/**
 * @file
 * Gate-level chip execution for small configurations.
 *
 * Drives a full cell-level MeshGate netlist through the same
 * rst -> write -> set -> input protocol (Sec. 5.2) the behavioural
 * SushiChip models, one time step at a time: per bucket pass the
 * synapse switches are configured for one polarity, the output NPEs
 * are armed with set0/set1, and the encoded input pulses are
 * replayed. Output spikes are observed through the SFQ/DC drivers —
 * the oscilloscope interface — so the Fig. 16 waveform comparison
 * can be reproduced end to end.
 *
 * Used for configurations the paper could fabricate (the 2-NPE 1x1
 * chip) up to a few mesh units; whole-network inference runs on the
 * behavioural model.
 */

#ifndef SUSHI_CHIP_GATE_SIM_HH
#define SUSHI_CHIP_GATE_SIM_HH

#include <memory>
#include <vector>

#include "compiler/compile.hh"
#include "compiler/program.hh"
#include "fabric/mesh_network.hh"
#include "sfq/netlist.hh"

namespace sushi::chip {

/** Gate-level single-layer chip runner. */
class GateChip
{
  public:
    /**
     * Build the mesh netlist for @p cfg in @p net. The compiled
     * network executed later must be a single layer with
     * in_dim <= n and out_dim <= n (no slicing at gate level).
     */
    GateChip(sfq::Netlist &net, const compiler::ChipConfig &cfg);

    /**
     * Execute binary input frames (one per time step).
     * @return per-step output pulse counts [step][neuron]
     * @throws std::invalid_argument, before scheduling anything, if
     *         @p cnet is not one layer that fits the mesh, a frame's
     *         width differs from the layer's, or a neuron needs bias
     *         pulses (threshold <= 0).
     */
    std::vector<std::vector<int>>
    run(const compiler::CompiledNetwork &cnet,
        const std::vector<std::vector<std::uint8_t>> &frames);

    /**
     * Execute a pre-encoded PulseProgram (open-loop: the exact pulse
     * streams the pulse input device would play into the fabricated
     * chip, Fig. 12). Requires the program's mesh to have been
     * compiled for this chip configuration (w_max is 1 at gate
     * scale).
     * @return per-step output pulse counts [step][neuron]
     * @throws std::invalid_argument, before injecting anything, if
     *         @p cnet is not one layer that fits the mesh, or an op
     *         is dated before now(), addresses an NPE, SC or synapse
     *         outside the mesh, or sets a strength other than 1.
     */
    std::vector<std::vector<int>>
    runProgram(const compiler::CompiledNetwork &cnet,
               const compiler::PulseProgram &prog);

    /** Step window boundaries of the last run (size steps + 1). */
    const std::vector<Tick> &stepBounds() const { return bounds_; }

    /** The underlying mesh (for waveform capture). */
    fabric::MeshGate &mesh() { return *mesh_; }

    /** The compiled flat representation this chip executes on. */
    const sfq::CompiledNetlist &compiled() const
    {
        return net_.sim().core();
    }

    /** Timing-constraint violations observed during the run. */
    std::uint64_t violations() const;

  private:
    /** Throw std::invalid_argument unless @p cnet is one layer that
     *  fits the mesh. */
    void checkLayer(const compiler::CompiledNetwork &cnet) const;

    /** Re-arm input NPE @p i as a fire-per-pulse relay. */
    Tick rearmInputNpe(int i, Tick t);

    sfq::Netlist &net_;
    compiler::ChipConfig cfg_;
    std::unique_ptr<fabric::MeshGate> mesh_;
    std::vector<Tick> bounds_;
    Tick gap_;
};

} // namespace sushi::chip

#endif // SUSHI_CHIP_GATE_SIM_HH
