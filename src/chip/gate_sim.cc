#include "chip/gate_sim.hh"

#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "sfq/constraints.hh"

namespace sushi::chip {

namespace {

[[noreturn]] void
reject(const std::string &what)
{
    throw std::invalid_argument("GateChip: " + what);
}

} // namespace

GateChip::GateChip(sfq::Netlist &net, const compiler::ChipConfig &cfg)
    : net_(net), cfg_(cfg)
{
    fabric::MeshConfig mesh_cfg;
    mesh_cfg.n = cfg.n;
    mesh_cfg.sc_per_npe = cfg.sc_per_npe;
    mesh_cfg.w_max = 1; // binary SSNN: strength is the on/off switch
    mesh_ = std::make_unique<fabric::MeshGate>(net, mesh_cfg);
    gap_ = sfq::safePulseSpacing();
    net.compile(); // whole mesh lowered; runs on the compiled core
}

void
GateChip::checkLayer(const compiler::CompiledNetwork &cnet) const
{
    if (cnet.net == nullptr || cnet.layers.size() != 1 ||
        cnet.net->layers().empty())
        reject("needs a compiled single-layer network");
    const auto &blayer = cnet.net->layers()[0];
    if (static_cast<int>(blayer.inDim()) > cfg_.n ||
        static_cast<int>(blayer.outDim()) > cfg_.n)
        reject("layer " + std::to_string(blayer.inDim()) + "x" +
               std::to_string(blayer.outDim()) +
               " does not fit an n=" + std::to_string(cfg_.n) +
               " mesh");
}

Tick
GateChip::rearmInputNpe(int i, Tick t)
{
    // Fire-per-pulse relay: threshold 1, i.e. preload 2^K - 1 (all
    // SC bits written). Must follow the Sec. 5.2 order: rst, write,
    // set.
    auto &npe = mesh_->inputNpe(i);
    npe.injectRst(t);
    t += gap_;
    for (int b = 0; b < cfg_.sc_per_npe; ++b) {
        npe.injectWrite(b, t);
        t += gap_;
    }
    npe.injectSet1(t);
    return t + gap_;
}

std::vector<std::vector<int>>
GateChip::run(const compiler::CompiledNetwork &cnet,
              const std::vector<std::vector<std::uint8_t>> &frames)
{
    checkLayer(cnet);
    const auto &layer = cnet.layers[0];
    const auto &blayer = cnet.net->layers()[0];
    const int in_dim = static_cast<int>(blayer.inDim());
    const int out_dim = static_cast<int>(blayer.outDim());
    // Every check precedes the first scheduled pulse, so a rejected
    // call leaves the chip as it was.
    for (std::size_t f = 0; f < frames.size(); ++f) {
        if (static_cast<int>(frames[f].size()) != in_dim)
            reject("frame " + std::to_string(f) + " has " +
                   std::to_string(frames[f].size()) +
                   " inputs, the layer takes " +
                   std::to_string(in_dim));
    }
    for (int j = 0; j < out_dim; ++j) {
        // Bias pulses (thresholds <= 0) would be fed excitatory
        // through the diagonal synapse before the passes; the
        // gate-level protocol does not model that.
        if (layer.bias_pulses[static_cast<std::size_t>(j)] > 0)
            reject("gate-level bias pulses are not supported; use "
                   "thresholds >= 1");
    }

    sfq::Simulator &sim = net_.sim();
    std::vector<std::vector<int>> result;
    bounds_.clear();

    Tick t = sim.now() + gap_;
    for (const auto &frame : frames) {
        bounds_.push_back(t);

        // Step start: reset and pre-load the output NPEs.
        for (int j = 0; j < out_dim; ++j) {
            auto &npe = mesh_->outputNpe(j);
            npe.injectRst(t);
            Tick wt = t + gap_;
            const std::uint64_t preload = layer.preload[
                static_cast<std::size_t>(j)];
            for (int b = 0; b < cfg_.sc_per_npe; ++b) {
                if (preload & (std::uint64_t{1} << b)) {
                    npe.injectWrite(b, wt);
                    wt += gap_;
                }
            }
        }
        t += gap_ * (cfg_.sc_per_npe + 2);
        net_.sim().run();
        t = std::max(t, sim.now() + gap_);

        // Two polarity passes per bucket (tiny nets: one bucket).
        for (int pass = 0; pass < 2; ++pass) {
            const bool neg = pass == 0;
            // Configure the crosspoint switches for this pass.
            std::vector<std::vector<int>> strengths(
                static_cast<std::size_t>(cfg_.n),
                std::vector<int>(static_cast<std::size_t>(cfg_.n),
                                 0));
            for (int i = 0; i < in_dim; ++i) {
                for (int j = 0; j < out_dim; ++j) {
                    const bool w_neg =
                        blayer.weights[static_cast<std::size_t>(j)]
                                      [static_cast<std::size_t>(i)] <
                        0;
                    strengths[static_cast<std::size_t>(i)]
                             [static_cast<std::size_t>(j)] =
                                 (w_neg == neg) ? 1 : 0;
                }
            }
            t = std::max(mesh_->configureWeights(strengths, t, gap_),
                         t);
            // Polarity at the output neurons.
            for (int j = 0; j < out_dim; ++j) {
                if (neg)
                    mesh_->outputNpe(j).injectSet0(t);
                else
                    mesh_->outputNpe(j).injectSet1(t);
            }
            t += gap_;
            net_.sim().run();
            t = std::max(t, sim.now() + gap_);

            // Replay the input spikes for this pass, one relay
            // firing at a time.
            for (int i = 0; i < in_dim; ++i) {
                if (!frame[static_cast<std::size_t>(i)])
                    continue;
                t = rearmInputNpe(i, t);
                mesh_->injectInput(i, t);
                t += 2 * gap_;
                net_.sim().run();
                t = std::max(t, sim.now() + gap_);
            }
        }
        net_.sim().run();
        t = std::max(t, sim.now() + 2 * gap_);

        // Collect this step's output pulses from the drivers.
        std::vector<int> step_counts(
            static_cast<std::size_t>(out_dim), 0);
        for (int j = 0; j < out_dim; ++j) {
            const auto &toggles = mesh_->outputDriver(j).toggles();
            int count = 0;
            for (Tick tt : toggles)
                if (tt >= bounds_.back())
                    ++count;
            step_counts[static_cast<std::size_t>(j)] = count;
        }
        result.push_back(std::move(step_counts));
    }
    bounds_.push_back(t);
    return result;
}

std::vector<std::vector<int>>
GateChip::runProgram(const compiler::CompiledNetwork &cnet,
                     const compiler::PulseProgram &prog)
{
    checkLayer(cnet);
    const int out_dim =
        static_cast<int>(cnet.net->layers()[0].outDim());

    using compiler::Channel;
    // Validate the whole program before injecting any of it, so a
    // rejected program leaves the chip as it was.
    const Tick now = net_.sim().now();
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
        const auto &op = prog.ops[i];
        const bool syn = op.channel == Channel::SynRst ||
                         op.channel == Channel::SynStrength;
        const bool write = op.channel == Channel::InWrite ||
                           op.channel == Channel::OutWrite;
        const int b_end = syn ? cfg_.n : cfg_.sc_per_npe;
        std::string bad;
        if (op.at < now)
            bad = "is scheduled before now";
        else if (op.a < 0 || op.a >= cfg_.n)
            bad = "operand a=" + std::to_string(op.a) +
                  " is out of range";
        else if ((syn || write) && (op.b < 0 || op.b >= b_end))
            bad = "operand b=" + std::to_string(op.b) +
                  " is out of range";
        else if (op.channel == Channel::SynStrength && op.c != 1)
            // w_max is 1 at gate scale: the strength operand arms
            // the series switch only.
            bad = "strength " + std::to_string(op.c) +
                  " needs w_max 1";
        if (!bad.empty())
            reject("program op " + std::to_string(i) + " (" +
                   compiler::channelName(op.channel) + ") " + bad);
    }
    for (const auto &op : prog.ops) {
        switch (op.channel) {
          case Channel::Input:
            mesh_->injectInput(op.a, op.at);
            break;
          case Channel::InRst:
            mesh_->inputNpe(op.a).injectRst(op.at);
            break;
          case Channel::InWrite:
            mesh_->inputNpe(op.a).injectWrite(op.b, op.at);
            break;
          case Channel::InSet0:
            mesh_->inputNpe(op.a).injectSet0(op.at);
            break;
          case Channel::InSet1:
            mesh_->inputNpe(op.a).injectSet1(op.at);
            break;
          case Channel::OutRst:
            mesh_->outputNpe(op.a).injectRst(op.at);
            break;
          case Channel::OutWrite:
            mesh_->outputNpe(op.a).injectWrite(op.b, op.at);
            break;
          case Channel::OutSet0:
            mesh_->outputNpe(op.a).injectSet0(op.at);
            break;
          case Channel::OutSet1:
            mesh_->outputNpe(op.a).injectSet1(op.at);
            break;
          case Channel::SynRst:
            mesh_->synapse(op.a, op.b).injectSwitchClear(op.at);
            break;
          case Channel::SynStrength:
            mesh_->synapse(op.a, op.b).injectSwitchArm(op.at);
            break;
        }
    }
    net_.sim().run();

    bounds_ = prog.step_bounds;
    std::vector<std::vector<int>> result;
    for (std::size_t s = 0; s + 1 < bounds_.size(); ++s) {
        std::vector<int> step_counts(
            static_cast<std::size_t>(out_dim), 0);
        for (int j = 0; j < out_dim; ++j) {
            for (Tick tt : mesh_->outputDriver(j).toggles()) {
                if (tt >= bounds_[s] && tt < bounds_[s + 1])
                    ++step_counts[static_cast<std::size_t>(j)];
            }
        }
        result.push_back(std::move(step_counts));
    }
    return result;
}

std::uint64_t
GateChip::violations() const
{
    return net_.sim().violations();
}

} // namespace sushi::chip
