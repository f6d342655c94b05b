#include "compiler/pulse_encoder.hh"

#include <stdexcept>
#include <string>

#include "sfq/constraints.hh"

namespace sushi::compiler {

PulseProgram
encodeLayerProgram(
    const CompiledNetwork &cnet,
    const std::vector<std::vector<std::uint8_t>> &frames,
    const EncoderConfig &cfg)
{
    auto reject = [](const std::string &why) {
        throw std::invalid_argument("encodeLayerProgram: " + why);
    };
    if (cnet.net == nullptr)
        reject("the compiled network has no source net");
    if (cnet.layers.size() != 1 || cnet.net->layers().size() != 1)
        reject("the network has " + std::to_string(cnet.layers.size()) +
               " layers; the encoder takes one");
    const auto &layer = cnet.layers[0];
    const auto &blayer = cnet.net->layers()[0];
    const int in_dim = static_cast<int>(blayer.inDim());
    const int out_dim = static_cast<int>(blayer.outDim());
    const int n = cnet.chip.n;
    const int k = cnet.chip.sc_per_npe;
    if (in_dim > n || out_dim > n)
        reject("a " + std::to_string(in_dim) + "x" +
               std::to_string(out_dim) + " layer does not fit a " +
               std::to_string(n) + "x" + std::to_string(n) + " mesh");
    for (std::size_t f = 0; f < frames.size(); ++f) {
        if (static_cast<int>(frames[f].size()) != in_dim)
            reject("frame " + std::to_string(f) + " has " +
                   std::to_string(frames[f].size()) +
                   " inputs, the layer takes " +
                   std::to_string(in_dim));
    }
    // Thresholds <= 0 compile to excitatory bias pulses at step
    // start; the encoded protocol has no stream for them.
    for (const int bias : layer.bias_pulses)
        if (bias > 0)
            reject("bias pulses are not encoded; use thresholds >= 1");

    const Tick gap =
        cfg.spacing ? cfg.spacing : sfq::safePulseSpacing();
    const Tick guard = cfg.phase_guard * gap;

    PulseProgram prog;
    Tick t = gap;
    auto emit = [&](Channel ch, int a, int b = 0, int c = 0) {
        prog.ops.push_back(PulseOp{t, ch, a, b, c});
        t += gap;
        // An NPE rst triggers the SC-internal readout/toggle-back
        // sequence (~50 ps); give it a second interval to settle
        // before the write that follows (Sec. 5.2 ordering).
        if (ch == Channel::OutRst || ch == Channel::InRst)
            t += gap;
    };

    for (const auto &frame : frames) {
        prog.step_bounds.push_back(t);

        // Step start: reset and preload the output NPEs
        // (Sec. 5.2: write must follow rst).
        for (int j = 0; j < out_dim; ++j) {
            if (layer.disabled[static_cast<std::size_t>(j)])
                continue;
            emit(Channel::OutRst, j);
            const std::uint64_t preload =
                layer.preload[static_cast<std::size_t>(j)];
            for (int b = 0; b < k; ++b)
                if (preload & (std::uint64_t{1} << b))
                    emit(Channel::OutWrite, j, b);
        }
        t += guard;

        // Two polarity passes per bucket (gate scale: one bucket).
        for (int pass = 0; pass < 2; ++pass) {
            const bool neg = pass == 0;
            // Weight configuration stream (Fig. 12(e)): arm exactly
            // the crosspoints of this pass's polarity.
            for (int i = 0; i < in_dim; ++i) {
                for (int j = 0; j < out_dim; ++j) {
                    const bool w_neg =
                        blayer.weights[static_cast<std::size_t>(j)]
                                      [static_cast<std::size_t>(i)] <
                        0;
                    emit(Channel::SynRst, i, j,
                         cnet.chip.n /*tap clears, informational*/);
                    if (w_neg == neg)
                        emit(Channel::SynStrength, i, j, 1);
                }
            }
            // Polarity at the output neurons.
            for (int j = 0; j < out_dim; ++j) {
                if (layer.disabled[static_cast<std::size_t>(j)])
                    continue;
                emit(neg ? Channel::OutSet0 : Channel::OutSet1, j);
            }
            t += guard;

            // Input pulse stream (Fig. 12(f)): each active input's
            // relay NPE is re-armed (rst -> write all bits -> set1)
            // then fired once.
            for (int i = 0; i < in_dim; ++i) {
                if (!frame[static_cast<std::size_t>(i)])
                    continue;
                emit(Channel::InRst, i);
                for (int b = 0; b < k; ++b)
                    emit(Channel::InWrite, i, b);
                emit(Channel::InSet1, i);
                emit(Channel::Input, i);
                t += guard; // let the spike propagate the fabric
            }
        }
        t += guard;
    }
    prog.step_bounds.push_back(t);
    return prog;
}

} // namespace sushi::compiler
