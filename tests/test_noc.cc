/**
 * @file
 * Tests for the NoC subsystem: mesh geometry and XY routing, spike-
 * packet serialization, the discrete-event fabric's closed-form
 * timing (HOL stalls, NIC backpressure, per-link counters), the
 * traffic-aware placement pass, and the engine integration contract —
 * NoC-transport spike results bit-identical to the ideal transport,
 * NoC metrics byte-deterministic across thread counts, and the
 * transport block surfaced through statsJson / ServerMetrics — and
 * the scaling sweep over link bandwidth and mesh shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "compiler/driver.hh"
#include "engine/inference_engine.hh"
#include "noc/fabric.hh"
#include "noc/packet.hh"
#include "noc/placement.hh"
#include "noc/topology.hh"
#include "noc/transport.hh"
#include "serve/metrics.hh"
#include "snn/binarize.hh"
#include "snn/network.hh"

#include "test_util.hh"

namespace sushi {
namespace {

using namespace testutil;

using engine::CompiledModel;
using engine::EngineConfig;
using engine::EngineRun;
using engine::InferenceEngine;
using engine::Sample;

// --- Topology ---------------------------------------------------

TEST(NocTopology, RowMajorNodesAndLinkCount)
{
    noc::MeshTopology topo(3, 2);
    EXPECT_EQ(topo.numNodes(), 6);
    // Directed links: 2 per horizontal + vertical neighbour pair.
    EXPECT_EQ(topo.numLinks(), 2 * (2 * 3 * 2 - 3 - 2));
    EXPECT_EQ(topo.nodeAt({2, 1}), 5);
    EXPECT_EQ(topo.coordOf(4).x, 1);
    EXPECT_EQ(topo.coordOf(4).y, 1);
    // A physical channel is two directed links with distinct ids.
    EXPECT_NE(topo.linkBetween(0, 1), topo.linkBetween(1, 0));
    EXPECT_THROW(topo.linkBetween(0, 5), noc::NocError);
    EXPECT_THROW(noc::MeshTopology(0, 3), noc::NocError);
}

TEST(NocTopology, XyRouteCorrectsXThenY)
{
    noc::MeshTopology topo(3, 3);
    const int src = topo.nodeAt({0, 0});
    const int dst = topo.nodeAt({2, 1});
    const std::vector<int> route = topo.route(src, dst);
    ASSERT_EQ(route.size(), 3u);
    EXPECT_EQ(topo.hopDistance(src, dst), 3);
    // Hop endpoints chain src -> dst, x corrected before y.
    EXPECT_EQ(topo.linkSource(route[0]), (noc::Coord{0, 0}));
    EXPECT_EQ(topo.linkDest(route[0]), (noc::Coord{1, 0}));
    EXPECT_EQ(topo.linkDest(route[1]), (noc::Coord{2, 0}));
    EXPECT_EQ(topo.linkDest(route[2]), (noc::Coord{2, 1}));
    EXPECT_TRUE(topo.route(src, src).empty());
    // Pure function: the same query yields the same route.
    EXPECT_EQ(topo.route(src, dst), route);
}

TEST(NocTopology, SnakeOrderVisitsAllNodesAdjacent)
{
    noc::MeshTopology topo(4, 3);
    const std::vector<int> order = topo.snakeOrder();
    ASSERT_EQ(order.size(), 12u);
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_EQ(topo.hopDistance(order[i - 1], order[i]), 1) << i;
}

// --- Packet format ----------------------------------------------

TEST(NocPacket, HeaderPlusPackedEntries)
{
    noc::PacketFormat fmt; // 64-bit flits, 32-bit entries
    EXPECT_EQ(fmt.entriesPerFlit(), 2);
    EXPECT_EQ(fmt.flitsFor(0), 1u); // header only
    EXPECT_EQ(fmt.flitsFor(1), 2u);
    EXPECT_EQ(fmt.flitsFor(5), 4u); // 1 + ceil(5/2)
    EXPECT_EQ(fmt.worstCaseFlits(16), fmt.flitsFor(16));

    // Only nonzero wires serialize; an all-silent step still pays
    // the header flit for the step boundary.
    const noc::PacketSize silent =
        noc::packetOf(std::vector<std::uint16_t>{0, 0, 0, 0}, fmt);
    EXPECT_EQ(silent.entries, 0u);
    EXPECT_EQ(silent.flits, 1u);
    const noc::PacketSize sparse =
        noc::packetOf(std::vector<std::uint16_t>{0, 2, 0, 1, 1}, fmt);
    EXPECT_EQ(sparse.entries, 3u);
    EXPECT_EQ(sparse.flits, 1u + 2u);
    EXPECT_THROW(noc::packetOf(std::vector<std::uint16_t>{1},
                               noc::PacketFormat{0, 32}),
                 noc::NocError);
}

// --- Fabric timing ----------------------------------------------

noc::NocConfig
fabricConfig(int bandwidth, int queue)
{
    noc::NocConfig cfg;
    cfg.link_latency_cycles = 1;
    cfg.link_bandwidth_flits = bandwidth;
    cfg.nic_queue_flits = queue;
    return cfg;
}

TEST(NocFabric, ClosedFormSinglePacketLatency)
{
    noc::MeshTopology topo(3, 1);
    noc::NocFabric fab(topo, fabricConfig(4, 64));
    const std::vector<int> route = topo.route(0, 2); // 2 hops
    fab.resetSample();
    fab.beginStep();
    // 8 flits at bandwidth 4: 2 serialization cycles + 1 latency per
    // hop = (2 + 1) * 2 = 6 cycles, no contention.
    EXPECT_EQ(fab.send(route, 8), 6u);
    fab.endStep();
    EXPECT_EQ(fab.clock().cycles, 6u);
    EXPECT_EQ(fab.packets(), 1u);
    EXPECT_EQ(fab.totalFlits(), 8u);
    EXPECT_EQ(fab.flitHops(), 16u);
    EXPECT_EQ(fab.holStallCycles(), 0u);
    EXPECT_EQ(fab.backpressureStalls(), 0u);
    EXPECT_EQ(fab.maxStepLinkFlits(), 8u);
    EXPECT_EQ(fab.link(route[0]).busy_cycles, 2u);
}

TEST(NocFabric, SharedLinkCountsHeadOfLineStalls)
{
    noc::MeshTopology topo(2, 1);
    noc::NocFabric fab(topo, fabricConfig(4, 64));
    const std::vector<int> route = topo.route(0, 1);
    fab.resetSample();
    fab.beginStep();
    EXPECT_EQ(fab.send(route, 4), 2u); // occupies the link 1 cycle
    // The second packet waits for the first's serialization slot.
    EXPECT_EQ(fab.send(route, 4), 3u);
    fab.endStep();
    EXPECT_EQ(fab.holStallCycles(), 1u);
    EXPECT_EQ(fab.link(route[0]).hol_stall_cycles, 1u);
    EXPECT_EQ(fab.maxStepLinkFlits(), 8u);
    // Occupancy resets at the next step: no cross-step stall.
    fab.beginStep();
    EXPECT_EQ(fab.send(route, 4), 2u);
    fab.endStep();
    EXPECT_EQ(fab.holStallCycles(), 1u);
    EXPECT_EQ(fab.clock().cycles, 3u + 2u);
    EXPECT_GT(fab.maxLinkUtilisation(), 0.0);
    EXPECT_LE(fab.maxLinkUtilisation(), 1.0);
}

TEST(NocFabric, NicBackpressureChargesCreditStalls)
{
    noc::MeshTopology topo(2, 1);
    noc::NocFabric fab(topo, fabricConfig(4, 8));
    const std::vector<int> route = topo.route(0, 1);
    fab.resetSample();
    fab.beginStep();
    // 11 flits into an 8-flit credit window: 3 credit-return waits
    // before injection, then ceil(11/4)=3 serialization + 1 latency.
    EXPECT_EQ(fab.send(route, 11), 3u + 3u + 1u);
    fab.endStep();
    EXPECT_EQ(fab.backpressureStalls(), 3u);
}

TEST(NocFabric, GuardsAgainstProtocolMisuse)
{
    noc::MeshTopology topo(2, 1);
    noc::NocFabric fab(topo, fabricConfig(4, 8));
    EXPECT_THROW(fab.send(topo.route(0, 1), 1), noc::NocError);
    EXPECT_THROW(fab.endStep(), noc::NocError);
    EXPECT_THROW(noc::NocFabric(topo, fabricConfig(0, 8)),
                 noc::NocError);
    EXPECT_THROW(noc::NocFabric(topo, fabricConfig(4, 0)),
                 noc::NocError);
}

TEST(NocFabric, RejectsCycleTimeThatIsNotFiniteAndPositive)
{
    noc::MeshTopology topo(2, 1);
    for (const double cycle_ps :
         {0.0, -20.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        noc::NocConfig cfg = fabricConfig(4, 8);
        cfg.cycle_ps = cycle_ps;
        EXPECT_THROW(noc::NocFabric(topo, cfg), noc::NocError)
            << cycle_ps;
    }
    noc::NocConfig cfg = fabricConfig(4, 8);
    cfg.cycle_ps = 0.5;
    EXPECT_NO_THROW(noc::NocFabric(topo, cfg));
}

// --- Placement --------------------------------------------------

std::vector<noc::CutTraffic>
chainEdges(int stages, long weight)
{
    std::vector<noc::CutTraffic> edges;
    for (int s = 0; s + 1 < stages; ++s)
        edges.push_back(noc::CutTraffic{s, s + 1, weight});
    return edges;
}

TEST(NocPlacement, PipelineChainLandsOnAdjacentNodes)
{
    const noc::Placement p =
        noc::placeStages(4, chainEdges(4, 16));
    EXPECT_EQ(p.width * p.height, 4); // auto-sized near-square
    noc::MeshTopology topo(p.width, p.height);
    ASSERT_EQ(p.stage_node.size(), 4u);
    // The contraction chains the pipeline along the snake order, so
    // every cut travels exactly one hop.
    for (int s = 0; s + 1 < 4; ++s)
        EXPECT_EQ(topo.hopDistance(
                      p.stage_node[static_cast<std::size_t>(s)],
                      p.stage_node[static_cast<std::size_t>(s + 1)]),
                  1)
            << s;
    // Deterministic: same inputs, same placement.
    const noc::Placement q =
        noc::placeStages(4, chainEdges(4, 16));
    EXPECT_EQ(q.stage_node, p.stage_node);
    EXPECT_EQ(p.host_node, 0);
}

TEST(NocPlacement, ExplicitDimensionsRespectedOrRejected)
{
    const noc::Placement p =
        noc::placeStages(3, chainEdges(3, 8), 3, 1);
    EXPECT_EQ(p.width, 3);
    EXPECT_EQ(p.height, 1);
    std::vector<int> nodes = p.stage_node;
    std::sort(nodes.begin(), nodes.end());
    EXPECT_EQ(nodes, (std::vector<int>{0, 1, 2}));
    EXPECT_THROW(noc::placeStages(5, chainEdges(5, 8), 2, 2),
                 noc::NocError);
}

// --- Engine integration -----------------------------------------

compiler::ChipConfig
smallChip()
{
    compiler::ChipConfig cfg;
    cfg.n = 4;
    cfg.sc_per_npe = 10;
    return cfg;
}

/** Budget that fits each layer alone but never two together, so the
 *  driver splits one stage per layer (test_multichip idiom). */
compiler::DriverOptions
splittingOptions(const snn::BinarySnn &net,
                 const compiler::ChipConfig &chip)
{
    compiler::CostModel model(chip.n, chip.sc_per_npe);
    long biggest = 0;
    for (const auto &layer : net.layers())
        biggest = std::max(biggest, model.layerCost(layer).totalJjs());
    compiler::DriverOptions opts;
    opts.enforce_budget = true;
    opts.allow_multichip = true;
    opts.score_schedules = false;
    opts.budget.sc_per_npe = chip.sc_per_npe;
    opts.budget.jj_cap = model.fabricJjs() + biggest;
    opts.budget.area_cap_mm2 = 1e9;
    return opts;
}

std::shared_ptr<const CompiledModel>
twoStageModel()
{
    auto net = tinyNet(24, 16, 12, 3, 9);
    return CompiledModel::compile(net, smallChip(),
                                  splittingOptions(net, smallChip()));
}

std::shared_ptr<const CompiledModel>
fourStageModel()
{
    const auto net = snn::BinarySnn::fromLayers(
        {randomLayer(20, 12, 8, 3), randomLayer(12, 18, 8, 4),
         randomLayer(18, 10, 8, 5), randomLayer(10, 6, 8, 6)},
        3);
    return CompiledModel::compile(net, smallChip(),
                                  splittingOptions(net, smallChip()));
}

TEST(NocEngine, SpikeResultsBitIdenticalToIdealTransport)
{
    // The acceptance contract: for every tested plan, results over
    // the NoC match the ideal transport bit for bit — the fabric
    // only charges time, never touches the payload.
    for (const auto &model : {twoStageModel(), fourStageModel()}) {
        ASSERT_GE(model->stageCount(), 2);
        const std::size_t in_dim =
            model->network().layers().front().inDim();
        auto samples = randomSamples(8, in_dim, 3, 71);

        EngineConfig ideal;
        ideal.replicas = 2;
        EngineConfig noced = ideal;
        noced.noc.enabled = true;
        noced.noc.link_bandwidth_flits = 2;
        noced.noc.nic_queue_flits = 4; // force congestion accounting

        InferenceEngine a(model, ideal);
        InferenceEngine b(model, noced);
        EXPECT_FALSE(a.nocEnabled());
        ASSERT_TRUE(b.nocEnabled());
        EngineRun ra = a.run(samples);
        EngineRun rb = b.run(samples);
        for (std::size_t i = 0; i < samples.size(); ++i) {
            EXPECT_EQ(ra.samples[i].counts, rb.samples[i].counts)
                << i;
            EXPECT_EQ(ra.samples[i].prediction,
                      rb.samples[i].prediction)
                << i;
        }
        // Behavioural counters agree; only transport accounting and
        // the modelled makespan differ.
        EXPECT_EQ(ra.merged.synaptic_ops, rb.merged.synaptic_ops);
        EXPECT_EQ(ra.merged.output_spikes, rb.merged.output_spikes);
        EXPECT_EQ(ra.merged.dynamic_energy_j,
                  rb.merged.dynamic_energy_j);
        EXPECT_EQ(ra.merged.noc_packets, 0u);
        EXPECT_GT(rb.merged.noc_packets, 0u);
        EXPECT_GT(rb.merged.noc_flits, 0u);
        EXPECT_GT(rb.merged.noc_latency_ps, 0.0);
        EXPECT_GT(rb.merged.est_time_ps, ra.merged.est_time_ps);
        EXPECT_EQ(rb.merged.noc_latency_cycles * 20,
                  static_cast<std::uint64_t>(
                      rb.merged.noc_latency_ps));
    }
}

TEST(NocEngine, TransportStatsSizedToThePlan)
{
    auto model = fourStageModel();
    EngineConfig cfg;
    cfg.replicas = 1;
    cfg.noc.enabled = true;
    InferenceEngine eng(model, cfg);
    ASSERT_TRUE(eng.nocEnabled());
    const noc::NocTransport &nt = eng.nocTransport(0);
    EXPECT_EQ(nt.cuts(), model->stageCount() - 1);
    EXPECT_EQ(nt.placement().stage_node.size(),
              static_cast<std::size_t>(model->stageCount()));
    EXPECT_GT(nt.worstCaseCutFlits(), 0u);

    const std::size_t in_dim =
        model->network().layers().front().inDim();
    EngineRun run = eng.run(randomSamples(4, in_dim, 3, 5));
    ASSERT_EQ(run.merged.noc_cut_flits.size(),
              static_cast<std::size_t>(model->stageCount() - 1));
    for (const std::uint64_t f : run.merged.noc_cut_flits)
        EXPECT_GT(f, 0u); // every step pays at least the header flit
    // Per-step packets: ingress + cuts + egress, per sample frame.
    EXPECT_EQ(run.merged.noc_packets,
              run.merged.time_steps *
                  static_cast<std::uint64_t>(model->stageCount() + 1));
}

TEST(NocEngine, MetricsReplayByteIdenticallyAcrossThreads)
{
    auto model = fourStageModel();
    const std::size_t in_dim =
        model->network().layers().front().inDim();
    auto samples = randomSamples(10, in_dim, 3, 41);

    std::string baseline;
    for (unsigned threads : {1u, 2u, 8u}) {
        EngineConfig cfg;
        cfg.replicas = 3;
        cfg.max_threads = threads;
        cfg.noc.enabled = true;
        cfg.noc.link_bandwidth_flits = 2;
        EngineRun run = InferenceEngine(model, cfg).run(samples);
        const std::string json = engine::statsJson(run.merged);
        if (baseline.empty())
            baseline = json;
        else
            EXPECT_EQ(json, baseline) << threads << " threads";
    }
    EXPECT_NE(baseline.find("\"noc_flits\""), std::string::npos);
    EXPECT_NE(baseline.find("\"noc_cut_flits\": ["),
              std::string::npos);
    EXPECT_NE(baseline.find("\"noc_max_link_utilisation\""),
              std::string::npos);
}

TEST(NocEngine, SingleStagePlansIgnoreTheToggle)
{
    auto net = tinyNet(24, 16, 12, 3, 5);
    auto model = CompiledModel::compile(
        net, smallChip(), compiler::DriverOptions::costAware());
    ASSERT_EQ(model->stageCount(), 1);
    EngineConfig cfg;
    cfg.replicas = 1;
    cfg.noc.enabled = true;
    InferenceEngine eng(model, cfg);
    EXPECT_FALSE(eng.nocEnabled());
    EngineRun run = eng.run(randomSamples(3, 24, 3, 7));
    EXPECT_EQ(run.merged.noc_packets, 0u);
    EXPECT_TRUE(run.merged.noc_cut_flits.empty());
}

TEST(NocEngine, ServerMetricsSurfaceTheTransportBlock)
{
    // ServerMetrics renders merged engine stats through statsJson,
    // so the transport block reaches the serving observability
    // snapshot unchanged.
    serve::ServerMetrics m;
    m.merged.noc_flits = 42;
    m.merged.noc_cut_flits = {40, 2};
    const std::string json = m.toJson();
    EXPECT_NE(json.find("\"noc_flits\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"noc_cut_flits\": [40, 2]"),
              std::string::npos);
}

// --- Scaling over link bandwidth and mesh shape ------------------

/** Four dense layers, one 8x8 chip stage each: three cuts of 96
 *  wires, worst-case packets of 49 flits at the default format. */
std::shared_ptr<const CompiledModel>
scalingPipeline()
{
    compiler::ChipConfig chip;
    chip.n = 8;
    chip.sc_per_npe = 10;
    const auto net = snn::BinarySnn::fromLayers(
        {randomLayer(64, 96, 16, 21), randomLayer(96, 96, 16, 22),
         randomLayer(96, 96, 16, 23), randomLayer(96, 12, 16, 24)},
        4);
    return CompiledModel::compile(net, chip,
                                  splittingOptions(net, chip));
}

/** One replica over the NoC at @p bandwidth flits/cycle on a
 *  @p width x @p height mesh (0 x 0: auto-sized); bandwidth 0 runs
 *  the ideal transport instead. */
EngineRun
runScaling(const std::shared_ptr<const CompiledModel> &model,
           int bandwidth, int width = 0, int height = 0)
{
    EngineConfig cfg;
    cfg.replicas = 1;
    cfg.noc.enabled = bandwidth > 0;
    cfg.noc.link_bandwidth_flits = bandwidth;
    cfg.noc.mesh_width = width;
    cfg.noc.mesh_height = height;
    return InferenceEngine(model, cfg).run(randomSamples(6, 64, 4, 97));
}

/** Modelled frames per second. */
double
throughputFps(const EngineRun &run)
{
    return static_cast<double>(run.merged.frames) /
           (run.merged.est_time_ps * 1e-12);
}

const std::vector<int> kBandwidths = {64, 32, 16, 8, 4, 2, 1};

TEST(NocScaling, BitIdenticalAtEveryBandwidthAndMesh)
{
    const auto model = scalingPipeline();
    const int stages = model->stageCount();
    ASSERT_EQ(stages, 4);
    const EngineRun ideal = runScaling(model, 0);
    const auto expectIdentical = [&](const EngineRun &run) {
        ASSERT_EQ(run.samples.size(), ideal.samples.size());
        for (std::size_t i = 0; i < ideal.samples.size(); ++i) {
            EXPECT_EQ(run.samples[i].counts, ideal.samples[i].counts);
            EXPECT_EQ(run.samples[i].prediction,
                      ideal.samples[i].prediction);
        }
    };
    for (const int bw : kBandwidths) {
        SCOPED_TRACE("bandwidth " + std::to_string(bw));
        expectIdentical(runScaling(model, bw));
    }
    for (const auto &[w, h] : std::vector<std::pair<int, int>>{
             {0, 0}, {1, stages}, {stages, stages}}) {
        SCOPED_TRACE("mesh " + std::to_string(w) + "x" +
                     std::to_string(h));
        expectIdentical(runScaling(model, 8, w, h));
    }
}

TEST(NocScaling, ThroughputMonotoneInBandwidthStrictBelowDemand)
{
    // The heaviest per-step link demand is a function of the packet
    // schedule, not of bandwidth. Halving the bandwidth never raises
    // throughput, and lowers it once the larger bandwidth of the
    // pair already sits below the demand.
    const auto model = scalingPipeline();
    std::vector<EngineRun> runs;
    for (const int bw : kBandwidths)
        runs.push_back(runScaling(model, bw));
    const std::uint64_t demand =
        runs.front().merged.noc_max_step_link_flits;
    ASSERT_GT(demand, 1u);
    for (std::size_t i = 1; i < runs.size(); ++i) {
        SCOPED_TRACE("bandwidth " + std::to_string(kBandwidths[i]));
        const double hi = throughputFps(runs[i - 1]);
        const double lo = throughputFps(runs[i]);
        EXPECT_LE(lo, hi);
        if (static_cast<std::uint64_t>(kBandwidths[i - 1]) < demand) {
            EXPECT_LT(lo, hi);
        }
        EXPECT_EQ(runs[i].merged.noc_max_step_link_flits, demand);
    }
}

TEST(NocScaling, CutFlitsWithinPlanEstimate)
{
    // Observed cut flits never exceed worst-case serialization of
    // the plan's own wires, at the default NoC configuration.
    const auto model = scalingPipeline();
    const EngineRun run =
        runScaling(model, noc::NocConfig{}.link_bandwidth_flits);
    const noc::PacketFormat fmt = noc::NocConfig{}.packetFormat();
    std::uint64_t cap = 0;
    for (const auto &cut : model->plan()->cuts)
        cap += fmt.worstCaseFlits(cut.wires);
    cap *= run.merged.time_steps;
    std::uint64_t seen = 0;
    for (const std::uint64_t f : run.merged.noc_cut_flits)
        seen += f;
    EXPECT_GT(seen, 0u);
    EXPECT_LE(seen, cap);
}

} // namespace
} // namespace sushi
