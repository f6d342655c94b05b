/**
 * @file
 * Tests for budget-driven multi-chip plans end to end: plan
 * structure, engine execution equivalence with the single-chip
 * compile, stats surfacing (utilisation gauges, plan diagnostics in
 * statsJson), determinism across thread counts, and the derived
 * energy constant shared by cost model and chip.
 */

#include <gtest/gtest.h>

#include "chip/sushi_chip.hh"
#include "compiler/driver.hh"
#include "engine/inference_engine.hh"
#include "sfq/cell_params.hh"
#include "snn/binarize.hh"
#include "snn/network.hh"

#include "test_util.hh"

namespace sushi::engine {
namespace {

using namespace testutil;

compiler::ChipConfig
smallChip()
{
    compiler::ChipConfig cfg;
    cfg.n = 4;
    cfg.sc_per_npe = 10;
    return cfg;
}

/**
 * Driver preset whose JJ cap fits each layer of @p net alone but not
 * all of them together, forcing a split — with legacy schedule
 * selection, so every stage's per-layer artifacts are bit-identical
 * to an unbounded single-chip compile of the same network.
 */
compiler::DriverOptions
splittingOptions(const snn::BinarySnn &net,
                 const compiler::ChipConfig &chip)
{
    compiler::CostModel model(chip.n, chip.sc_per_npe);
    long biggest = 0;
    long total = 0;
    for (const auto &layer : net.layers()) {
        const long jjs = model.layerCost(layer).totalJjs();
        biggest = std::max(biggest, jjs);
        total += jjs;
    }
    EXPECT_LT(biggest, total); // a split point must exist
    compiler::DriverOptions opts;
    opts.enforce_budget = true;
    opts.allow_multichip = true;
    opts.score_schedules = false; // keep stage artifacts legacy-equal
    opts.budget.sc_per_npe = chip.sc_per_npe;
    opts.budget.jj_cap = model.fabricJjs() + biggest;
    opts.budget.area_cap_mm2 = 1e9;
    return opts;
}

TEST(MultiChipPlan, OverflowingModelSplitsIntoStages)
{
    auto net = tinyNet(24, 16, 12, 3, 5);
    const auto chip = smallChip();
    auto model = CompiledModel::compile(
        net, chip, splittingOptions(net, chip));

    ASSERT_TRUE(model->multiChip());
    ASSERT_NE(model->plan(), nullptr);
    const compiler::MultiChipPlan &plan = *model->plan();
    ASSERT_EQ(model->stageCount(), 2);
    ASSERT_EQ(plan.cuts.size(), 1u);

    // Stages cover the layer chain contiguously, in order.
    EXPECT_EQ(plan.stages[0]->first_layer, 0);
    EXPECT_EQ(plan.stages[0]->num_layers, 1);
    EXPECT_EQ(plan.stages[1]->first_layer, 1);
    EXPECT_EQ(plan.stages[1]->num_layers, 1);

    // The cut sits after layer 0 and carries its activations.
    EXPECT_EQ(plan.cuts[0].boundary_layer, 0);
    EXPECT_EQ(plan.cuts[0].wires, 16);
    EXPECT_EQ(plan.crossChipWires(), 16);

    // Every stage artifact points into the stage's own subnet and
    // respects the per-chip caps it was planned against.
    for (int s = 0; s < model->stageCount(); ++s) {
        const auto &stage = *plan.stages[static_cast<std::size_t>(s)];
        EXPECT_EQ(model->stageNet(s).net, &stage.subnet);
        EXPECT_TRUE(stage.net.budget.fits());
        EXPECT_EQ(stage.subnet.layers().size(),
                  static_cast<std::size_t>(stage.num_layers));
    }
    EXPECT_GT(plan.maxJjUtilisation(), 0.0);
    EXPECT_LE(plan.maxJjUtilisation(), 1.0);
}

TEST(MultiChipPlan, FittingModelStaysSingleStage)
{
    auto net = tinyNet(24, 16, 12, 3, 5);
    const auto chip = smallChip();
    auto model = CompiledModel::compile(
        net, chip, compiler::DriverOptions::costAware());
    EXPECT_EQ(model->stageCount(), 1);
    EXPECT_FALSE(model->multiChip());
    EXPECT_TRUE(model->stageNet(0).budget.fits());
}

TEST(MultiChipPlan, EngineMatchesSingleChipBitExactly)
{
    auto net = tinyNet(24, 16, 12, 3, 9);
    const auto chip = smallChip();
    auto samples = randomSamples(12, 24, 3, 77);

    auto single = CompiledModel::compile(net, chip);
    auto split = CompiledModel::compile(net, chip,
                                        splittingOptions(net, chip));
    ASSERT_EQ(split->stageCount(), 2);

    EngineConfig cfg;
    cfg.replicas = 2;
    EngineRun a = InferenceEngine(single, cfg).run(samples);
    EngineRun b = InferenceEngine(split, cfg).run(samples);

    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].counts, b.samples[i].counts) << i;
        EXPECT_EQ(a.samples[i].prediction, b.samples[i].prediction)
            << i;
    }
    // The pipelined stages execute the same compiled layers, so the
    // behavioural counters agree exactly with the single chip.
    EXPECT_EQ(a.merged.frames, b.merged.frames);
    EXPECT_EQ(a.merged.time_steps, b.merged.time_steps);
    EXPECT_EQ(a.merged.synaptic_ops, b.merged.synaptic_ops);
    EXPECT_EQ(a.merged.output_spikes, b.merged.output_spikes);
    EXPECT_EQ(a.merged.dynamic_energy_j, b.merged.dynamic_energy_j);
}

TEST(MultiChipPlan, MergedStatsDeterministicAcrossThreads)
{
    auto net = tinyNet(24, 16, 12, 3, 13);
    const auto chip = smallChip();
    auto model = CompiledModel::compile(net, chip,
                                        splittingOptions(net, chip));
    auto samples = randomSamples(10, 24, 3, 31);

    std::string baseline;
    for (unsigned threads : {1u, 2u, 4u}) {
        EngineConfig cfg;
        cfg.replicas = 3;
        cfg.max_threads = threads;
        EngineRun run = InferenceEngine(model, cfg).run(samples);
        const std::string json = statsJson(run.merged);
        if (baseline.empty())
            baseline = json;
        else
            EXPECT_EQ(json, baseline) << threads << " threads";
    }
}

TEST(MultiChipPlan, StatsSurfaceCompilerDiagnostics)
{
    auto net = tinyNet(24, 16, 12, 3, 9);
    const auto chip = smallChip();
    auto model = CompiledModel::compile(net, chip,
                                        splittingOptions(net, chip));
    auto samples = randomSamples(4, 24, 3, 5);

    EngineConfig cfg;
    cfg.replicas = 1;
    EngineRun run = InferenceEngine(model, cfg).run(samples);

    // The utilisation gauges come from the per-stage budget reports
    // (worst stage wins) and flow into the JSON rendering.
    EXPECT_GT(run.merged.jj_utilisation, 0.0);
    EXPECT_LE(run.merged.jj_utilisation, 1.0);
    EXPECT_EQ(run.merged.jj_utilisation,
              model->plan()->maxJjUtilisation());
    long disabled = 0;
    long reloads = 0;
    for (int s = 0; s < model->stageCount(); ++s) {
        disabled += model->stageNet(s).disabled_count;
        reloads += model->stageNet(s).plan_reloads;
    }
    EXPECT_EQ(run.merged.disabled_neurons,
              static_cast<std::uint64_t>(disabled));
    EXPECT_EQ(run.merged.plan_reloads,
              static_cast<std::uint64_t>(reloads));

    const std::string json = statsJson(run.merged);
    EXPECT_NE(json.find("\"jj_utilisation\""), std::string::npos);
    EXPECT_NE(json.find("\"area_utilisation\""), std::string::npos);
    EXPECT_NE(json.find("\"disabled_neurons\""), std::string::npos);
    EXPECT_NE(json.find("\"plan_reloads\""), std::string::npos);
}

TEST(MultiChipPlan, CutsAndWireListsAreDeterministicallyOrdered)
{
    // Four layers whose per-boundary widths differ, so the splitter's
    // heaviest-traffic-first contraction visits boundaries out of
    // chain order — the published plan must still come out sorted.
    const auto net = snn::BinarySnn::fromLayers(
        {randomLayer(20, 12, 8, 3), randomLayer(12, 18, 8, 4),
         randomLayer(18, 10, 8, 5), randomLayer(10, 6, 8, 6)},
        3);
    const auto chip = smallChip();
    auto model = CompiledModel::compile(net, chip,
                                        splittingOptions(net, chip));
    ASSERT_GE(model->stageCount(), 3);
    const compiler::MultiChipPlan &plan = *model->plan();
    ASSERT_EQ(plan.cuts.size(),
              static_cast<std::size_t>(model->stageCount() - 1));

    long traffic = 0;
    for (std::size_t c = 0; c < plan.cuts.size(); ++c) {
        const compiler::InterChipCut &cut = plan.cuts[c];
        if (c > 0) {
            EXPECT_LT(plan.cuts[c - 1].boundary_layer,
                      cut.boundary_layer);
        }
        // The wire list enumerates the producer's index space
        // ascending: exactly 0..wires-1.
        ASSERT_EQ(cut.wire_indices.size(),
                  static_cast<std::size_t>(cut.wires));
        for (std::size_t w = 0; w < cut.wire_indices.size(); ++w)
            EXPECT_EQ(cut.wire_indices[w], static_cast<int>(w));
        traffic += cut.est_pulses_per_step;
    }
    EXPECT_EQ(plan.cutTrafficPerStep(), traffic);
    EXPECT_EQ(plan.cutTrafficPerStep(), plan.crossChipWires());
}

TEST(InferenceStatsMerge, PipelineMergeOverThreeStages)
{
    // Three stage records of one sample: frames/time_steps are
    // per-sample gauges (every stage saw the same frames), the
    // behavioural counters and plan diagnostics add up, utilisation
    // keeps the worst chip and modelled time extends the makespan.
    chip::InferenceStats s0;
    s0.frames = 1;
    s0.time_steps = 4;
    s0.synaptic_ops = 100;
    s0.input_pulses = 10;
    s0.disabled_neurons = 2;
    s0.plan_reloads = 1;
    s0.jj_utilisation = 0.4;
    s0.est_time_ps = 50.0;
    chip::InferenceStats s1 = s0;
    s1.synaptic_ops = 200;
    s1.disabled_neurons = 3;
    s1.jj_utilisation = 0.9;
    s1.est_time_ps = 70.0;
    chip::InferenceStats s2 = s0;
    s2.synaptic_ops = 50;
    s2.output_spikes = 7;
    s2.jj_utilisation = 0.6;
    s2.est_time_ps = 30.0;

    chip::InferenceStats merged = s0;
    merged.accumulatePipeline(s1);
    merged.accumulatePipeline(s2);
    EXPECT_EQ(merged.frames, 1u);
    EXPECT_EQ(merged.time_steps, 4u);
    EXPECT_EQ(merged.synaptic_ops, 350u);
    EXPECT_EQ(merged.input_pulses, 30u);
    EXPECT_EQ(merged.output_spikes, 7u);
    EXPECT_EQ(merged.disabled_neurons, 7u);
    EXPECT_EQ(merged.plan_reloads, 3u);
    EXPECT_EQ(merged.jj_utilisation, 0.9);
    EXPECT_EQ(merged.est_time_ps, 150.0);
}

TEST(InferenceStatsMerge, GaugeVsCounterUnderDegradedStageGroup)
{
    // A degraded replica degrades every stage chip of the group in
    // lockstep: the failed-slot count is a gauge (same physical
    // failure seen by each stage — max, not sum), while the remap
    // work and extra passes are real per-stage costs that add.
    chip::InferenceStats s0;
    s0.frames = 1;
    s0.time_steps = 3;
    s0.failed_npes = 2;
    s0.remapped_neurons = 12;
    s0.degraded_passes = 3;
    chip::InferenceStats s1 = s0;
    s1.remapped_neurons = 9;
    chip::InferenceStats s2 = s0;
    s2.remapped_neurons = 4;
    s2.degraded_passes = 6;

    chip::InferenceStats merged = s0;
    merged.accumulatePipeline(s1);
    merged.accumulatePipeline(s2);
    EXPECT_EQ(merged.failed_npes, 2u);
    EXPECT_EQ(merged.remapped_neurons, 25u);
    EXPECT_EQ(merged.degraded_passes, 12u);

    // The sample-merge (accumulate) treats failed_npes the same way —
    // a gauge — while frames become a counter again.
    chip::InferenceStats across = merged;
    across.accumulate(merged);
    EXPECT_EQ(across.failed_npes, 2u);
    EXPECT_EQ(across.frames, 2u);
    EXPECT_EQ(across.remapped_neurons, 50u);
}

TEST(InferenceStatsMerge, DegradedMultiStageEngineKeepsGaugeSemantics)
{
    auto net = tinyNet(24, 16, 12, 3, 9);
    const auto chip = smallChip();
    auto model = CompiledModel::compile(net, chip,
                                        splittingOptions(net, chip));
    ASSERT_GE(model->stageCount(), 2);
    auto samples = randomSamples(3, 24, 3, 23);

    EngineConfig cfg;
    cfg.replicas = 1;
    cfg.drain_degraded = false;
    InferenceEngine eng(model, cfg);
    eng.markReplicaDegraded(0, 1);
    EngineRun run = eng.run(samples);

    // One failed slot, mirrored on every stage chip of the group and
    // across every sample: the gauge must stay 1 through both the
    // pipeline merge and the sample merge, never the stage- or
    // sample-count multiple.
    EXPECT_EQ(run.merged.failed_npes, 1u);
    // The remap work is a counter: each stage that hosts remapped
    // neurons contributes per time step, summed over samples.
    EXPECT_GT(run.merged.remapped_neurons, 0u);
    EXPECT_EQ(run.merged.frames, samples.size());
}

/** Every field distinct and non-zero; the two records differ in
 *  which side holds the larger gauge and in noc_cut_flits length. */
void
distinctStats(chip::InferenceStats &a, chip::InferenceStats &b)
{
    a.frames = 3;
    a.time_steps = 12;
    a.input_pulses = 101;
    a.synaptic_ops = 202;
    a.output_spikes = 7;
    a.underflow_spikes = 5;
    a.multi_fires = 4;
    a.reload_events = 9;
    a.failed_npes = 2;
    a.remapped_neurons = 13;
    a.degraded_passes = 6;
    a.disabled_neurons = 8;
    a.plan_reloads = 11;
    a.est_time_ps = 1500.5;
    a.reload_time_ps = 250.25;
    a.dynamic_energy_j = 0.125;
    a.jj_utilisation = 0.75;
    a.area_utilisation = 0.375;
    a.noc_packets = 21;
    a.noc_flits = 42;
    a.noc_flit_hops = 84;
    a.noc_hol_stall_cycles = 17;
    a.noc_backpressure_stalls = 19;
    a.noc_latency_cycles = 23;
    a.noc_max_step_link_flits = 31;
    a.noc_latency_ps = 460.5;
    a.noc_max_link_utilisation = 0.625;
    a.noc_cut_flits = {40, 2};

    b.frames = 2;
    b.time_steps = 8;
    b.input_pulses = 303;
    b.synaptic_ops = 404;
    b.output_spikes = 15;
    b.underflow_spikes = 14;
    b.multi_fires = 16;
    b.reload_events = 18;
    b.failed_npes = 3;
    b.remapped_neurons = 20;
    b.degraded_passes = 22;
    b.disabled_neurons = 24;
    b.plan_reloads = 10;
    b.est_time_ps = 700.75;
    b.reload_time_ps = 125.5;
    b.dynamic_energy_j = 0.0625;
    b.jj_utilisation = 0.5;
    b.area_utilisation = 0.875;
    b.noc_packets = 26;
    b.noc_flits = 28;
    b.noc_flit_hops = 29;
    b.noc_hol_stall_cycles = 30;
    b.noc_backpressure_stalls = 32;
    b.noc_latency_cycles = 33;
    b.noc_max_step_link_flits = 27;
    b.noc_latency_ps = 90.25;
    b.noc_max_link_utilisation = 0.9375;
    b.noc_cut_flits = {1, 3, 5};
}

TEST(InferenceStatsMerge, EveryFieldMergesAsRecorded)
{
    // Pins each field's merge kind through all three merges: the
    // sample merge, the stage merge and the engine's NoC fold.
    // Recorded before the field list generated the merges.
    const char *const kWant[] = {
        R"({"frames": 5, "time_steps": 20, "input_pulses": 404, )"
        R"("synaptic_ops": 606, "output_spikes": 22, )"
        R"("underflow_spikes": 19, "multi_fires": 20, )"
        R"("reload_events": 27, "failed_npes": 3, )"
        R"("remapped_neurons": 33, "degraded_passes": 28, )"
        R"("disabled_neurons": 24, "plan_reloads": 11, )"
        R"("est_time_ps": 2201.25, "reload_time_ps": 375.75, )"
        R"("dynamic_energy_j": 0.1875, "jj_utilisation": 0.75, )"
        R"("area_utilisation": 0.875, "noc_packets": 47, )"
        R"("noc_flits": 70, "noc_flit_hops": 113, )"
        R"("noc_hol_stall_cycles": 47, "noc_backpressure_stalls": 51, )"
        R"("noc_latency_cycles": 56, "noc_max_step_link_flits": 31, )"
        R"("noc_latency_ps": 550.75, )"
        R"("noc_max_link_utilisation": 0.9375, "noc_cut_flits": [41, )"
        R"(5, 5]})",
        R"({"frames": 3, "time_steps": 12, "input_pulses": 404, )"
        R"("synaptic_ops": 606, "output_spikes": 22, )"
        R"("underflow_spikes": 19, "multi_fires": 20, )"
        R"("reload_events": 27, "failed_npes": 3, )"
        R"("remapped_neurons": 33, "degraded_passes": 28, )"
        R"("disabled_neurons": 32, "plan_reloads": 21, )"
        R"("est_time_ps": 2201.25, "reload_time_ps": 375.75, )"
        R"("dynamic_energy_j": 0.1875, "jj_utilisation": 0.75, )"
        R"("area_utilisation": 0.875, "noc_packets": 47, )"
        R"("noc_flits": 70, "noc_flit_hops": 113, )"
        R"("noc_hol_stall_cycles": 47, "noc_backpressure_stalls": 51, )"
        R"("noc_latency_cycles": 56, "noc_max_step_link_flits": 31, )"
        R"("noc_latency_ps": 550.75, )"
        R"("noc_max_link_utilisation": 0.9375, "noc_cut_flits": [41, )"
        R"(5, 5]})",
        R"({"frames": 1, "time_steps": 3, "input_pulses": 524, )"
        R"("synaptic_ops": 524, "output_spikes": 1, )"
        R"("underflow_spikes": 0, "multi_fires": 0, )"
        R"("reload_events": 912, "failed_npes": 0, )"
        R"("remapped_neurons": 0, "degraded_passes": 0, )"
        R"("disabled_neurons": 0, "plan_reloads": 304, )"
        R"("est_time_ps": 45233.429999999993, "reload_time_ps": 14250, )"
        R"("dynamic_energy_j": 3.1439999999999998e-15, )"
        R"("jj_utilisation": 1, )"
        R"("area_utilisation": 4.5779027040000001e-08, )"
        R"("noc_packets": 9, "noc_flits": 29, "noc_flit_hops": 11, )"
        R"("noc_hol_stall_cycles": 0, "noc_backpressure_stalls": 13, )"
        R"("noc_latency_cycles": 13, "noc_max_step_link_flits": 3, )"
        R"("noc_latency_ps": 260, )"
        R"("noc_max_link_utilisation": 0.53846153846153844, )"
        R"("noc_cut_flits": [7]})",
    };
    chip::InferenceStats a, b;
    distinctStats(a, b);

    chip::InferenceStats samples = a;
    samples.accumulate(b);
    EXPECT_EQ(statsJson(samples), kWant[0]);

    chip::InferenceStats stages = a;
    stages.accumulatePipeline(b);
    EXPECT_EQ(statsJson(stages), kWant[1]);

    auto net = tinyNet(24, 16, 12, 3, 9);
    const auto chip = smallChip();
    auto model = CompiledModel::compile(net, chip,
                                        splittingOptions(net, chip));
    ASSERT_EQ(model->stageCount(), 2);
    EngineConfig cfg;
    cfg.replicas = 1;
    cfg.noc.enabled = true;
    cfg.noc.link_bandwidth_flits = 1;
    cfg.noc.nic_queue_flits = 2; // congestion counters go non-zero
    InferenceEngine eng(model, cfg);
    const ReplicaRun run =
        eng.runOnReplica(0, randomSamples(1, 24, 3, 41));
    EXPECT_EQ(statsJson(run.per_sample[0]), kWant[2]);
}

TEST(MultiChipPlan, DegradedReplicaKeepsResults)
{
    auto net = tinyNet(24, 16, 12, 3, 9);
    const auto chip = smallChip();
    auto model = CompiledModel::compile(net, chip,
                                        splittingOptions(net, chip));
    auto samples = randomSamples(6, 24, 3, 19);

    EngineConfig cfg;
    cfg.replicas = 1;
    cfg.drain_degraded = false; // force work onto the degraded group
    InferenceEngine healthy(model, cfg);
    EngineRun want = healthy.run(samples);

    InferenceEngine degraded(model, cfg);
    degraded.markReplicaDegraded(0, 1);
    EXPECT_GT(degraded.failedNpeSlots(0), 0);
    EngineRun got = degraded.run(samples);
    for (std::size_t i = 0; i < want.samples.size(); ++i)
        EXPECT_EQ(want.samples[i].counts, got.samples[i].counts) << i;

    degraded.healReplica(0);
    EXPECT_EQ(degraded.failedNpeSlots(0), 0);
}

TEST(MultiChipPlan, FailingLastHealthyNpeThrowsAndChangesNothing)
{
    // Every output NPE of a chip failed used to abort the process.
    const auto chip = smallChip();
    chip::SushiChip one(chip);
    for (int s = 0; s + 1 < chip.n; ++s)
        one.markNpeFailed(s);
    const auto flags = one.failedNpes();
    try {
        one.markNpeFailed(chip.n - 1);
        ADD_FAILURE() << "no throw";
    } catch (const compiler::CompileError &e) {
        EXPECT_STREQ(compiler::CompileError::kindName(e.kind()),
                     "AllNpesFailed");
    }
    EXPECT_EQ(one.failedNpes(), flags);
    EXPECT_EQ(one.remapPlan().failed, chip.n - 1);
    EXPECT_EQ(one.stats().failed_npes,
              static_cast<std::uint64_t>(chip.n - 1));

    // The same through a 2-stage replica group: no stage chip moves.
    auto net = tinyNet(24, 16, 12, 3, 9);
    auto model = CompiledModel::compile(net, chip,
                                        splittingOptions(net, chip));
    ASSERT_EQ(model->stageCount(), 2);
    auto samples = randomSamples(6, 24, 3, 23);
    EngineConfig cfg;
    cfg.replicas = 1;
    cfg.drain_degraded = false;
    InferenceEngine want(model, cfg), got(model, cfg);
    for (int s = 0; s + 1 < chip.n; ++s) {
        want.markReplicaDegraded(0, s);
        got.markReplicaDegraded(0, s);
    }
    EXPECT_THROW(got.markReplicaDegraded(0, chip.n - 1),
                 compiler::CompileError);
    EXPECT_EQ(got.failedNpeSlots(0), chip.n - 1);
    got.markReplicaDegraded(0, 0); // an already-failed slot is fine
    const EngineRun a = want.run(samples);
    const EngineRun b = got.run(samples);
    for (std::size_t i = 0; i < a.samples.size(); ++i)
        EXPECT_EQ(a.samples[i].counts, b.samples[i].counts) << i;
    EXPECT_EQ(statsJson(a.merged), statsJson(b.merged));
    got.healReplica(0);
    EXPECT_EQ(got.failedNpeSlots(0), 0);
}

TEST(EnergyModel, ChipAndCostModelShareTheDerivedConstant)
{
    // The chip's per-op energy and the compiler's cost model must be
    // the same derived quantity: the 30-JJ synapse event path times
    // the per-JJ switching energy.
    compiler::CostModel model(4, 10);
    EXPECT_EQ(chip::dynamicEnergyJ(1), model.switchEnergyPerSynOpJ());
    EXPECT_EQ(chip::dynamicEnergyJ(1),
              sfq::synapseEventJjs() * sfq::switchEnergyPerJj());
}

} // namespace
} // namespace sushi::engine
