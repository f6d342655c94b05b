/**
 * @file
 * The pulse encoder: phase one of the Fig. 12 workflow.
 *
 * "Based on the constraints (Table 1) and the optimized synaptic
 * order (Sec. 5.1), we encode the channels and input times of weight
 * and input pulses" — this module performs that off-chip encoding,
 * turning a compiled single-layer network plus binary input frames
 * into a timed PulseProgram: weight-configuration streams, neuron
 * control streams in the Sec. 5.2 order (rst -> write -> set ->
 * input), and the input pulse streams, all spaced by the Table-1
 * safe interval.
 */

#ifndef SUSHI_COMPILER_PULSE_ENCODER_HH
#define SUSHI_COMPILER_PULSE_ENCODER_HH

#include "compiler/compile.hh"
#include "compiler/program.hh"

namespace sushi::compiler {

/** Encoder knobs. */
struct EncoderConfig
{
    /** Pulse spacing on shared paths; 0 selects the Table-1 safe
     *  spacing with margin. */
    Tick spacing = 0;
    /** Guard time between phases (weight config / control / input),
     *  in spacing units, covering in-flight propagation. */
    int phase_guard = 20;
};

/**
 * Encode a full inference run of a single-layer compiled network
 * (in_dim, out_dim <= mesh width — the gate-level scale) over binary
 * input frames, one time step per frame. Throws
 * std::invalid_argument, before encoding anything, on a network
 * without a source net or with other than one layer, a layer wider
 * than the mesh, a frame of the wrong width, or a threshold <= 0
 * (its bias pulses have no encoded stream).
 */
PulseProgram encodeLayerProgram(const CompiledNetwork &cnet,
                                const std::vector<std::vector<
                                    std::uint8_t>> &frames,
                                const EncoderConfig &cfg = {});

} // namespace sushi::compiler

#endif // SUSHI_COMPILER_PULSE_ENCODER_HH
