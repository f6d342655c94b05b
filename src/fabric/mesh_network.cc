#include "fabric/mesh_network.hh"

#include <algorithm>
#include <span>

#include "common/logging.hh"

namespace sushi::fabric {

int
wMaxForN(int n)
{
    sushi_assert(n >= 1);
    // Calibrated: w_max * n is held near the neuron state budget.
    return std::clamp(64 / n, 3, 16);
}

MeshGate::MeshGate(sfq::Netlist &net, const MeshConfig &cfg) : cfg_(cfg)
{
    sushi_assert(cfg.n >= 1);
    const int n = cfg.n;
    const int w_max = cfg_.effectiveWMax();

    npe::NpeGate::Options in_opts;
    in_opts.link_stages = cfg.link_stages;
    in_opts.external_out = true; // out drives the row line

    npe::NpeGate::Options out_opts;
    out_opts.link_stages = cfg.link_stages;
    out_opts.external_in = true; // in is fed by the column merge
    out_opts.external_out = true; // out drives the SFQ/DC pad

    sfq::CellNamer name; // every instance name, in one buffer
    for (int i = 0; i < n; ++i) {
        in_npes_.push_back(std::make_unique<npe::NpeGate>(
            net, name("in_npe", i), cfg.sc_per_npe, in_opts));
        out_npes_.push_back(std::make_unique<npe::NpeGate>(
            net, name("out_npe", i), cfg.sc_per_npe, out_opts));
    }

    // Crosspoint weight structures.
    synapses_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            synapses_[static_cast<std::size_t>(i)].push_back(
                std::make_unique<WeightStructureGate>(
                    net, name("syn", i, "_", j), w_max));
        }
    }

    // Row distribution: input NPE i's spike fans out to every
    // crosspoint on row i. Row hops get longer further from the NPE;
    // row_stages is the per-hop cost.
    std::vector<sfq::PortRef> ends;
    for (int i = 0; i < n; ++i) {
        ends.clear();
        for (int j = 0; j < n; ++j) {
            auto &syn = synapse(i, j);
            ends.emplace_back(&syn.inPort(), syn.inChan());
        }
        if (n == 1) {
            inputNpe(i).connectOut(*ends[0].first, ends[0].second,
                                   cfg.row_stages);
        } else {
            // Fan out through an SPL tree rooted at the NPE output.
            sfq::Spl &root = net.makeSpl(name("row", i, ".root"));
            inputNpe(i).connectOut(root, 0, cfg.row_stages);
            const std::span<const sfq::PortRef> dsts(ends);
            const std::size_t mid = dsts.size() / 2;
            net.fanout(name("row", i, ".l"), root, 0, dsts.first(mid),
                       cfg.row_stages);
            net.fanout(name("row", i, ".r"), root, 1,
                       dsts.subspan(mid), cfg.row_stages);
        }
    }

    // Column merge: crosspoint outputs on column j merge into output
    // NPE j's chain input.
    for (int j = 0; j < n; ++j) {
        ends.clear();
        for (int i = 0; i < n; ++i) {
            // Park each crosspoint output on a JTL so the merge tree
            // can treat all sources uniformly.
            sfq::Jtl &pad = net.makeJtl(name("col", j, ".pad", i));
            synapse(i, j).connectOut(pad, 0, cfg.col_stages);
            ends.emplace_back(&pad, 0);
        }
        net.mergeTree(name("col", j), ends, outputNpe(j).inPort(),
                      outputNpe(j).inChan(), cfg.col_stages);
    }

    // Output drivers: SFQ/DC converters, the oscilloscope interface.
    for (int j = 0; j < n; ++j) {
        sfq::SfqDc &drv = net.makeSfqDc(name("drv", j));
        outputNpe(j).connectOut(drv, 0, cfg.col_stages);
        drivers_.push_back(&drv);
    }

    // Line-crossing overhead: each crosspoint crosses the column line
    // over the row line (Sec. 4.2.2: twice the width of the original
    // transmission line).
    net.addWiringOverhead(cfg.crossing_jjs * n * n);
}

void
MeshGate::injectInput(int i, Tick when)
{
    inputNpe(i).injectIn(when);
}

Tick
MeshGate::configureWeights(
    const std::vector<std::vector<int>> &strengths, Tick start,
    Tick spacing)
{
    sushi_assert(static_cast<int>(strengths.size()) == cfg_.n);
    Tick done = start;
    for (int i = 0; i < cfg_.n; ++i) {
        sushi_assert(static_cast<int>(strengths[i].size()) == cfg_.n);
        for (int j = 0; j < cfg_.n; ++j) {
            // Parallel per synapse: each starts at `start`.
            const Tick t = synapse(i, j).configure(
                strengths[static_cast<std::size_t>(i)]
                         [static_cast<std::size_t>(j)],
                start, spacing);
            done = std::max(done, t);
        }
    }
    return done;
}

} // namespace sushi::fabric
