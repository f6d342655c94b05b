/**
 * @file
 * Tests for the SSNN compiler: slicing, bucketing/reordering,
 * state-range analysis, network compilation, the pass-based driver
 * (cost model, budgets, typed validation) and multi-chip splitting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "compiler/compile.hh"
#include "compiler/driver.hh"
#include "sfq/cell_params.hh"

#include "test_util.hh"

namespace sushi::compiler {
namespace {

using namespace testutil;

TEST(BitSlice, ExactFit)
{
    LayerSlices s = sliceLayer(16, 16, 16);
    EXPECT_EQ(s.numInBlocks(), 1);
    EXPECT_EQ(s.numOutBlocks(), 1);
    EXPECT_EQ(s.inBlock(0).size(), 16);
}

TEST(BitSlice, RaggedTail)
{
    LayerSlices s = sliceLayer(784, 800, 16);
    EXPECT_EQ(s.numInBlocks(), 49);
    EXPECT_EQ(s.numOutBlocks(), 50);
    EXPECT_EQ(s.inBlock(48).size(), 784 - 48 * 16);
    EXPECT_EQ(s.totalBlocks(), 49L * 50L);
}

TEST(BitSlice, BlocksCoverEverything)
{
    LayerSlices s = sliceLayer(100, 30, 7);
    int covered = 0;
    for (int k = 0; k < s.numInBlocks(); ++k)
        covered += s.inBlock(k).size();
    EXPECT_EQ(covered, 100);
    covered = 0;
    for (int k = 0; k < s.numOutBlocks(); ++k)
        covered += s.outBlock(k).size();
    EXPECT_EQ(covered, 30);
}

TEST(Bucketing, OrderIsPermutation)
{
    auto layer = randomLayer(97, 8, 0.4, 1, 5, 3);
    BucketingConfig cfg;
    auto sched = scheduleLayer(layer, cfg);
    std::vector<int> sorted = sched.order;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 97; ++i)
        EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Bucketing, BucketsCoverInputs)
{
    auto layer = randomLayer(130, 4, 0.5, 1, 3, 5);
    BucketingConfig cfg;
    cfg.bucket_size = 32;
    auto sched = scheduleLayer(layer, cfg);
    int covered = 0;
    int prev_end = 0;
    for (const Block &b : sched.buckets) {
        EXPECT_EQ(b.begin, prev_end);
        covered += b.size();
        prev_end = b.end;
    }
    EXPECT_EQ(covered, 130);
}

TEST(Bucketing, DisabledYieldsSingleBucket)
{
    auto layer = randomLayer(64, 4, 0.5, 1, 3, 7);
    BucketingConfig cfg;
    cfg.bucketing = false;
    auto sched = scheduleLayer(layer, cfg);
    ASSERT_EQ(sched.buckets.size(), 1u);
    EXPECT_EQ(sched.buckets[0].size(), 64);
}

TEST(Bucketing, BucketingShrinksStateRange)
{
    // Sec. 5.1: bucketing "controls the range of states of the
    // neuron". A heavily inhibitory layer needs far fewer states
    // with alternating passes.
    auto layer = randomLayer(512, 8, 0.5, 1, 8, 11);
    BucketingConfig cfg;
    cfg.bucket_size = 32;
    auto sched = scheduleLayer(layer, cfg);
    auto report = analyzeStateRange(layer, sched, cfg);
    EXPECT_LT(report.required_states,
              report.required_states_unbucketed / 3);
    EXPECT_GT(report.required_states_unbucketed, 256);
}

TEST(Bucketing, UnbucketedRangeMatchesInhibitoryCount)
{
    snn::BinaryLayer layer;
    layer.weights = {{-1, -1, -1, 1, 1}};
    layer.thresholds = {2};
    BucketingConfig cfg;
    cfg.bucketing = false;
    auto sched = scheduleLayer(layer, cfg);
    auto report = analyzeStateRange(layer, sched, cfg);
    // theta (2) + all three inhibitory synapses.
    EXPECT_EQ(report.required_states_unbucketed, 5);
    EXPECT_EQ(report.required_states, 5);
}

TEST(Bucketing, StateBudgetFromBits)
{
    auto layer = randomLayer(16, 2, 0.5, 1, 2, 13);
    BucketingConfig cfg;
    cfg.state_bits = 7;
    auto sched = scheduleLayer(layer, cfg);
    auto report = analyzeStateRange(layer, sched, cfg);
    EXPECT_EQ(report.state_budget, 128);
}

TEST(Bucketing, ReorderReducesReloads)
{
    // Sec. 4.2.2: reordering lets adjacent slices share crosspoint
    // configurations. Trained layers have correlated signs per
    // input; model that with inputs whose polarity is uniform
    // across columns but pseudo-shuffled across inputs.
    snn::BinaryLayer layer;
    const int in_dim = 256, out_dim = 16;
    layer.weights.resize(out_dim);
    layer.thresholds.assign(out_dim, 3);
    for (int o = 0; o < out_dim; ++o) {
        auto &row = layer.weights[static_cast<std::size_t>(o)];
        row.resize(in_dim);
        for (int i = 0; i < in_dim; ++i) {
            const bool neg =
                ((static_cast<unsigned>(i) * 2654435761u) >> 16) & 1;
            row[static_cast<std::size_t>(i)] = neg ? -1 : 1;
        }
    }
    BucketingConfig plain;
    plain.reorder = false;
    plain.mesh_width = 16;
    BucketingConfig sorted;
    sorted.reorder = true;
    sorted.mesh_width = 16;
    const long plain_reloads =
        countReloads(layer, scheduleLayer(layer, plain), 16);
    const long sorted_reloads =
        countReloads(layer, scheduleLayer(layer, sorted), 16);
    // Sorting groups equal-polarity inputs into contiguous runs per
    // crosspoint: at most two transitions per (row, column) plus the
    // initial configuration, far below the random baseline.
    EXPECT_LT(sorted_reloads, plain_reloads / 2);
}

/** The reorder key as the scheduler defined it before the keys were
 *  precomputed: an O(out_dim) column walk per comparison. */
long
referenceSignatureKey(const snn::BinaryLayer &layer, int input)
{
    const auto i = static_cast<std::size_t>(input);
    long neg = 0;
    for (std::size_t o = 0; o < layer.outDim(); ++o)
        neg += layer.weights[o][i] < 0 ? 1 : 0;
    long key = neg << 16;
    const std::size_t lead = std::min<std::size_t>(16, layer.outDim());
    for (std::size_t o = 0; o < lead; ++o)
        key = (key << 1) | (layer.weights[o][i] > 0 ? 1 : 0);
    return key;
}

/** scheduleLayer's reordered order (bucketing off), recomputed with
 *  the comparator calling referenceSignatureKey. */
std::vector<int>
referenceReorder(const snn::BinaryLayer &layer, int mesh_width)
{
    const int in_dim = static_cast<int>(layer.inDim());
    std::vector<int> sorted(static_cast<std::size_t>(in_dim));
    std::iota(sorted.begin(), sorted.end(), 0);
    std::stable_sort(sorted.begin(), sorted.end(), [&](int a, int b) {
        return referenceSignatureKey(layer, a) <
               referenceSignatureKey(layer, b);
    });
    std::vector<int> order(sorted.size());
    const int blocks = (in_dim + mesh_width - 1) / mesh_width;
    std::size_t take = 0;
    for (int r = 0; r < mesh_width; ++r)
        for (int b = 0; b < blocks; ++b) {
            const int pos = b * mesh_width + r;
            if (pos < in_dim)
                order[static_cast<std::size_t>(pos)] = sorted[take++];
        }
    return order;
}

TEST(Bucketing, ReorderMatchesComparatorReference)
{
    BucketingConfig cfg;
    cfg.bucketing = false;
    // Random layers, out_dim < 16 (fewer leading signs), a zero
    // weight, and layers whose inputs all tie or tie in pairs.
    std::vector<snn::BinaryLayer> layers = {
        randomLayer(784, 800, 0.5, 1, 50, 101),
        randomLayer(97, 40, 0.3, 1, 5, 102),
        randomLayer(50, 7, 0.5, 1, 3, 103),
        randomLayer(33, 1, 0.5, 1, 2, 104),
        randomLayer(64, 15, 0.5, 1, 2, 105),
        randomLayer(40, 10, 0.0, 1, 2, 106), // every key ties
    };
    snn::BinaryLayer pairs = randomLayer(60, 20, 0.5, 1, 3, 107);
    for (auto &row : pairs.weights)
        for (std::size_t i = 1; i < row.size(); i += 2)
            row[i] = row[i - 1]; // inputs 2k and 2k + 1 tie
    // A zero weight is neither negative nor positive: it breaks the
    // tie of inputs 10 and 11 the other way round.
    pairs.weights[3][10] = 1;
    pairs.weights[3][11] = 0;
    layers.push_back(pairs);
    for (std::size_t k = 0; k < layers.size(); ++k) {
        for (const int width : {16, 5}) {
            cfg.mesh_width = width;
            EXPECT_EQ(scheduleLayer(layers[k], cfg).order,
                      referenceReorder(layers[k], width))
                << "layer " << k << " mesh width " << width;
        }
    }
}

TEST(Bucketing, ReloadsCountFirstConfiguration)
{
    // A single slice still needs its one-time configuration.
    auto layer = randomLayer(8, 4, 0.5, 1, 2, 19);
    BucketingConfig cfg;
    auto sched = scheduleLayer(layer, cfg);
    EXPECT_EQ(countReloads(layer, sched, 8), 4 * 8L);
}

TEST(Compile, PreloadsEncodeThresholds)
{
    snn::BinaryLayer layer;
    layer.weights = {{1, 1, 1}, {1, -1, 1}};
    layer.thresholds = {2, 1};
    snn::BinarySnn net; // assemble via fromFloat path is heavier;
    // compile a hand-built network through the public API instead.
    // BinarySnn has no public constructor for layers, so test the
    // layer-level invariants through compileNetwork on a trained
    // net below; here check the slicing piece only.
    ChipConfig chip;
    chip.n = 4;
    auto slices = sliceLayer(3, 2, chip.n);
    EXPECT_EQ(slices.numInBlocks(), 1);
}

TEST(Compile, FullNetworkCompiles)
{
    snn::SnnConfig cfg;
    cfg.input = 36;
    cfg.hidden = 12;
    cfg.output = 4;
    cfg.t_steps = 3;
    cfg.stateless = true;
    snn::SnnMlp mlp(cfg, 21);
    auto bin = snn::BinarySnn::fromFloat(mlp);

    ChipConfig chip;
    chip.n = 8;
    chip.sc_per_npe = 10;
    auto compiled = compileNetwork(bin, chip);
    ASSERT_EQ(compiled.layers.size(), 2u);

    const auto &l0 = compiled.layers[0];
    EXPECT_EQ(l0.slices.numInBlocks(), 5); // ceil(36/8)
    EXPECT_EQ(l0.slices.numOutBlocks(), 2); // ceil(12/8)
    EXPECT_EQ(l0.preload.size(), 12u);
    const std::uint64_t budget = 1u << 10;
    for (std::size_t o = 0; o < 12; ++o) {
        if (compiled.layers[0].disabled[o])
            continue;
        const int theta = bin.layers()[0].thresholds[o];
        const int eff = theta + l0.bias_pulses[o];
        EXPECT_GE(eff, 1);
        EXPECT_EQ(l0.preload[o],
                  budget - static_cast<std::uint64_t>(eff));
    }
    EXPECT_GT(compiled.totalReloads(), 0);
}

TEST(Compile, MasksPartitionInputs)
{
    snn::SnnConfig cfg;
    cfg.input = 70;
    cfg.hidden = 9;
    cfg.output = 3;
    cfg.stateless = true;
    snn::SnnMlp mlp(cfg, 23);
    auto bin = snn::BinarySnn::fromFloat(mlp);
    ChipConfig chip;
    chip.n = 4;
    chip.sc_per_npe = 5; // tight: a bucketed schedule
    auto compiled = compileNetwork(bin, chip);
    const auto &l0 = compiled.layers[0];
    const auto &weights = bin.layers()[0].weights;
    ASSERT_GT(l0.schedule.buckets.size(), 1u);
    ASSERT_EQ(l0.position.size(), 70u);
    EXPECT_FALSE(l0.natural_order);
    // The bit at an input's kernel position is set iff its synapse
    // is inhibitory.
    constexpr std::size_t kLanes = MaskTable::kLanes;
    for (std::size_t o = 0; o < 9; ++o) {
        const std::uint64_t *neg = l0.neg_masks.lane(o);
        for (std::size_t i = 0; i < 70; ++i) {
            const std::size_t k = l0.position[i];
            EXPECT_EQ(neg[k / 64 * kLanes] >> (k % 64) & 1,
                      weights[o][i] < 0 ? 1u : 0u)
                << "neuron " << o << " input " << i;
        }
    }
    // Each bucket's inputs land on its own range, ascending.
    for (const Block &bucket : l0.schedule.buckets) {
        std::vector<int> inputs(
            l0.schedule.order.begin() + bucket.begin,
            l0.schedule.order.begin() + bucket.end);
        std::sort(inputs.begin(), inputs.end());
        for (std::size_t r = 0; r < inputs.size(); ++r)
            EXPECT_EQ(l0.position[static_cast<std::size_t>(inputs[r])],
                      static_cast<std::uint32_t>(bucket.begin) + r);
    }
}

TEST(Compile, ColumnsOfWideLayersMatchMasks)
{
    snn::SnnConfig cfg;
    cfg.input = 70;
    cfg.hidden = 600; // two 512-neuron chunks, the last ragged
    cfg.output = 3;
    cfg.stateless = true;
    snn::SnnMlp mlp(cfg, 29);
    auto bin = snn::BinarySnn::fromFloat(mlp);
    ChipConfig chip;
    chip.n = 4;
    auto compiled = compileNetwork(bin, chip);
    const auto &l0 = compiled.layers[0];
    EXPECT_TRUE(compiled.layers[1].columns.empty());
    const ColumnTable &cols = l0.columns;
    ASSERT_EQ(cols.chunks, 2u);
    ASSERT_EQ(cols.lines.size(), 70u * 2 * 8);
    EXPECT_EQ(cols.stride(), 128u);
    EXPECT_TRUE(cols.lanes32);
    constexpr std::size_t kLanes = MaskTable::kLanes;
    for (std::size_t k = 0; k < 70; ++k) {
        for (std::size_t o = 0; o < 2 * ColumnTable::kChunk; ++o) {
            const std::uint64_t *line =
                cols.line(o / ColumnTable::kChunk, k);
            const auto bit =
                line[o % ColumnTable::kChunk / 64] >> (o % 64) & 1;
            // Past out_dim nothing is set.
            const std::uint64_t want =
                o < 600
                    ? l0.neg_masks.lane(o)[k / 64 * kLanes] >> (k % 64) & 1
                    : 0;
            ASSERT_EQ(bit, want) << "position " << k << " neuron " << o;
        }
    }
    for (std::size_t o = 0; o < 2 * ColumnTable::kChunk; ++o) {
        const bool on = o < 600 && !l0.disabled[o];
        EXPECT_EQ(cols.enabled[o / 64] >> (o % 64) & 1, on ? 1u : 0u);
        EXPECT_EQ(cols.start32[o],
                  on ? l0.preload[o] + static_cast<std::uint64_t>(
                                           l0.bias_pulses[o])
                     : 0u);
    }
}

TEST(Validate, RejectsBadGeometry)
{
    snn::BinaryLayer layer;
    layer.weights = {{1, -1}};
    layer.thresholds = {1};
    auto net = snn::BinarySnn::fromLayers({layer}, 1);

    ChipConfig bad_n;
    bad_n.n = 0;
    EXPECT_THROW(
        {
            try {
                compileNetwork(net, bad_n);
            } catch (const CompileError &e) {
                EXPECT_EQ(e.kind(),
                          CompileError::Kind::BadChipConfig);
                throw;
            }
        },
        CompileError);

    ChipConfig bad_sc;
    bad_sc.sc_per_npe = 0;
    EXPECT_THROW(compileNetwork(net, bad_sc), CompileError);
    bad_sc.sc_per_npe = 31;
    EXPECT_THROW(compileNetwork(net, bad_sc), CompileError);

    ChipConfig bad_bucket;
    bad_bucket.bucketing.bucket_size = 0;
    EXPECT_THROW(compileNetwork(net, bad_bucket), CompileError);
}

TEST(Validate, RejectsNegativeBudgetCaps)
{
    snn::BinaryLayer layer;
    layer.weights = {{1, -1}};
    layer.thresholds = {1};
    auto net = snn::BinarySnn::fromLayers({layer}, 1);
    ChipConfig chip;
    chip.n = 2;
    DriverOptions opts = DriverOptions::costAware();
    opts.budget.jj_cap = -1;
    EXPECT_THROW(
        {
            try {
                CompilerDriver(opts).compileSingle(net, chip);
            } catch (const CompileError &e) {
                EXPECT_EQ(e.kind(), CompileError::Kind::BadBudget);
                throw;
            }
        },
        CompileError);
}

TEST(Validate, EmptyNetworkIsTyped)
{
    snn::BinarySnn net; // no layers
    ChipConfig chip;
    chip.n = 2;
    EXPECT_THROW(
        {
            try {
                CompilerDriver().compilePlan(net, chip);
            } catch (const CompileError &e) {
                EXPECT_EQ(e.kind(), CompileError::Kind::EmptyNetwork);
                EXPECT_STREQ(CompileError::kindName(e.kind()),
                             "EmptyNetwork");
                throw;
            }
        },
        CompileError);
}

TEST(Remap, SingleHealthySlot)
{
    // Three of four slots dead: every failed slot lands on the one
    // healthy host, needing three extra serialized passes.
    NpeRemap plan = planNpeRemap(4, {1, 1, 0, 1});
    EXPECT_EQ(plan.failed, 3);
    EXPECT_EQ(plan.extra_passes, 3);
    EXPECT_EQ(plan.host[0], 2);
    EXPECT_EQ(plan.host[1], 2);
    EXPECT_EQ(plan.host[2], 2);
    EXPECT_EQ(plan.host[3], 2);
}

TEST(Remap, AlternatingFailures)
{
    // Odd slots dead: the round-robin deals them across the even
    // hosts, one extra pass covers them all.
    NpeRemap plan = planNpeRemap(8, {0, 1, 0, 1, 0, 1, 0, 1});
    EXPECT_EQ(plan.failed, 4);
    EXPECT_EQ(plan.extra_passes, 1);
    for (int s = 0; s < 8; s += 2)
        EXPECT_EQ(plan.host[static_cast<std::size_t>(s)], s);
    // Failed slots cycle through the healthy hosts in order.
    EXPECT_EQ(plan.host[1], 0);
    EXPECT_EQ(plan.host[3], 2);
    EXPECT_EQ(plan.host[5], 4);
    EXPECT_EQ(plan.host[7], 6);
}

TEST(Remap, SingleSlotMesh)
{
    NpeRemap plan = planNpeRemap(1, {0});
    EXPECT_EQ(plan.failed, 0);
    EXPECT_EQ(plan.extra_passes, 0);
    EXPECT_EQ(plan.host[0], 0);
}

TEST(CostModel, EnergyDerivedFromCellTable)
{
    // The 30-JJ synapse-event path is derived from the cell table,
    // not restated.
    EXPECT_EQ(sfq::synapseEventJjs(), 30);
    CostModel model(4, 10);
    EXPECT_EQ(model.switchEnergyPerSynOpJ(),
              30 * sfq::switchEnergyPerJj());
}

TEST(CostModel, FlagshipFitsOneChip)
{
    // The paper's 784-800-10 model must fill most of — but fit —
    // the default n = 16 budget (the Table 2 story).
    CostModel model(16, 10);
    std::vector<LayerCost> costs = {model.layerCost(784, 800),
                                    model.layerCost(800, 10)};
    const ChipBudget budget = ChipBudget::tableDefaults(16, 10);
    const BudgetReport r = model.rollUp(costs, budget);
    EXPECT_TRUE(r.fits());
    EXPECT_GT(r.jjUtilisation(), 0.90);
    EXPECT_LE(r.jjUtilisation(), 1.0);
    EXPECT_EQ(r.synapses, 784L * 800 + 800L * 10);
}

TEST(Driver, LegacyPresetMatchesCompileNetwork)
{
    snn::SnnConfig cfg;
    cfg.input = 48;
    cfg.hidden = 20;
    cfg.output = 6;
    cfg.t_steps = 2;
    cfg.stateless = true;
    snn::SnnMlp mlp(cfg, 31);
    auto bin = snn::BinarySnn::fromFloat(mlp);
    ChipConfig chip;
    chip.n = 4;
    chip.sc_per_npe = 6; // tight: exercises the bucketed fallback

    const auto a = compileNetwork(bin, chip);
    const auto b =
        CompilerDriver(DriverOptions::legacy()).compileSingle(bin,
                                                              chip);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t l = 0; l < a.layers.size(); ++l) {
        EXPECT_EQ(a.layers[l].schedule.order,
                  b.layers[l].schedule.order);
        EXPECT_EQ(a.layers[l].schedule.buckets.size(),
                  b.layers[l].schedule.buckets.size());
        EXPECT_EQ(a.layers[l].switch_reloads,
                  b.layers[l].switch_reloads);
        EXPECT_EQ(a.layers[l].preload, b.layers[l].preload);
        EXPECT_EQ(a.layers[l].bias_pulses, b.layers[l].bias_pulses);
        EXPECT_EQ(a.layers[l].disabled, b.layers[l].disabled);
        EXPECT_EQ(a.layers[l].position, b.layers[l].position);
        EXPECT_EQ(a.layers[l].neg_masks, b.layers[l].neg_masks);
        EXPECT_EQ(a.layers[l].columns, b.layers[l].columns);
    }
    EXPECT_EQ(a.totalReloads(), b.totalReloads());
    EXPECT_EQ(a.disabled_count, a.disabledNeurons());
    EXPECT_EQ(a.plan_reloads, a.totalReloads());
    EXPECT_GT(a.budget.totalJjs(), 0);
}

TEST(Driver, LegacyKeepsAdaptiveBucketingRule)
{
    // The legacy selection must reproduce the Sec. 5.1 rule: the
    // exact unbucketed traversal wins whenever its range fits.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        auto layer = randomLayer(128, 8, 0.5, 1, 6, seed);
        auto net = snn::BinarySnn::fromLayers({layer}, 1);
        ChipConfig chip;
        chip.n = 8;
        chip.sc_per_npe = 6;
        auto compiled = compileNetwork(net, chip);

        BucketingConfig single = chip.bucketing;
        single.state_bits = chip.sc_per_npe;
        single.mesh_width = chip.n;
        single.bucketing = false;
        auto unb = scheduleLayer(layer, single);
        auto unb_range = analyzeStateRange(layer, unb, single);
        if (unb_range.fitsUnbucketed())
            EXPECT_EQ(compiled.layers[0].schedule.buckets.size(), 1u)
                << "seed " << seed;
        else
            EXPECT_GT(compiled.layers[0].schedule.buckets.size(), 1u)
                << "seed " << seed;
    }
}

TEST(Driver, ScoredSelectionNeverLosesFit)
{
    // Scoring may pick a different fitting schedule (cheaper
    // reloads) but must never choose an unfitting one when a
    // fitting candidate exists.
    for (std::uint64_t seed = 11; seed <= 16; ++seed) {
        auto layer = randomLayer(96, 8, 0.5, 1, 5, seed);
        auto net = snn::BinarySnn::fromLayers({layer}, 1);
        ChipConfig chip;
        chip.n = 8;
        chip.sc_per_npe = 6;
        DriverOptions opts;
        opts.score_schedules = true;
        auto scored =
            CompilerDriver(opts).compileSingle(net, chip);
        auto legacy = compileNetwork(net, chip);
        if (legacy.layers[0].range.fits()) {
            EXPECT_TRUE(scored.layers[0].range.fits())
                << "seed " << seed;
        }
        EXPECT_LE(scored.layers[0].switch_reloads,
                  legacy.layers[0].switch_reloads)
            << "seed " << seed;
    }
}

TEST(Driver, Table2FlagshipFitsOversizedSplits)
{
    // Under the default 16x16 budget the paper's 784-800-10 model
    // fills most of one chip, and a 784-800-800-800-10 chain, whose
    // every layer fits a chip alone, splits across chips.
    ChipConfig chip;
    chip.n = 16;
    chip.sc_per_npe = 10;
    const CompilerDriver driver(DriverOptions::costAware());

    const auto flagship_net = tinyNet(784, 800, 10, 5, 7);
    const MultiChipPlan flagship =
        driver.compilePlan(flagship_net, chip);
    EXPECT_EQ(flagship.numChips(), 1);
    EXPECT_GT(flagship.maxJjUtilisation(), 0.90);
    EXPECT_LE(flagship.maxJjUtilisation(), 1.0);

    const auto oversized_net = snn::BinarySnn::fromLayers(
        {randomLayer(784, 800, 32, 11), randomLayer(800, 800, 32, 12),
         randomLayer(800, 800, 32, 13), randomLayer(800, 10, 32, 14)},
        5);
    const MultiChipPlan oversized =
        driver.compilePlan(oversized_net, chip);
    EXPECT_GE(oversized.numChips(), 2);
    EXPECT_GT(oversized.crossChipWires(), 0);
    EXPECT_LE(oversized.maxJjUtilisation(), 1.0);
}

TEST(MultiChipSplit, ExactCapBoundary)
{
    // A budget of exactly fabric + model cost fits one chip; one JJ
    // less forces a split.
    CostModel model(2, 10);
    std::vector<LayerCost> costs = {model.layerCost(8, 8),
                                    model.layerCost(8, 4)};
    std::vector<int> wires = {8, 4};
    ChipBudget budget;
    budget.sc_per_npe = 10;
    budget.area_cap_mm2 = 1e9; // isolate the JJ cap
    const long total = costs[0].totalJjs() + costs[1].totalJjs();

    budget.jj_cap = model.fabricJjs() + total;
    StageSplit fit = splitLayersUnderBudget(costs, wires, model,
                                            budget, 8);
    EXPECT_EQ(fit.stages.size(), 1u);
    EXPECT_TRUE(fit.cuts.empty());

    budget.jj_cap = model.fabricJjs() + total - 1;
    StageSplit split = splitLayersUnderBudget(costs, wires, model,
                                              budget, 8);
    ASSERT_EQ(split.stages.size(), 2u);
    EXPECT_EQ(split.stages[0].begin, 0);
    EXPECT_EQ(split.stages[0].end, 1);
    EXPECT_EQ(split.stages[1].begin, 1);
    EXPECT_EQ(split.stages[1].end, 2);
    ASSERT_EQ(split.cuts.size(), 1u);
    EXPECT_EQ(split.cuts[0].boundary_layer, 0);
    EXPECT_EQ(split.cuts[0].wires, 8);
}

TEST(MultiChipSplit, ContractsWidestBoundariesFirst)
{
    // Three layers; the budget allows merging exactly one boundary.
    // The heavier-traffic boundary (wider producer) must be the one
    // contracted, leaving the cheap cut.
    CostModel model(2, 10);
    std::vector<LayerCost> costs = {model.layerCost(8, 16),
                                    model.layerCost(16, 8),
                                    model.layerCost(8, 2)};
    std::vector<int> wires = {16, 8, 2};
    ChipBudget budget;
    budget.sc_per_npe = 10;
    budget.area_cap_mm2 = 1e9;
    // Fits layers 0+1 together (the wide boundary) but not 1+2+0.
    budget.jj_cap = model.fabricJjs() + costs[0].totalJjs() +
                    costs[1].totalJjs();
    StageSplit split = splitLayersUnderBudget(costs, wires, model,
                                              budget, 8);
    ASSERT_EQ(split.stages.size(), 2u);
    EXPECT_EQ(split.stages[0].end, 2); // layers 0,1 share a chip
    ASSERT_EQ(split.cuts.size(), 1u);
    EXPECT_EQ(split.cuts[0].boundary_layer, 1);
    EXPECT_EQ(split.cuts[0].wires, 8);
}

TEST(MultiChipSplit, SingleLayerOverflowIsTyped)
{
    CostModel model(2, 10);
    std::vector<LayerCost> costs = {model.layerCost(64, 64)};
    std::vector<int> wires = {64};
    ChipBudget budget;
    budget.sc_per_npe = 10;
    budget.area_cap_mm2 = 1e9;
    budget.jj_cap = model.fabricJjs() + 1; // no layer can fit
    EXPECT_THROW(
        {
            try {
                splitLayersUnderBudget(costs, wires, model, budget,
                                       8);
            } catch (const CompileError &e) {
                EXPECT_EQ(e.kind(),
                          CompileError::Kind::BudgetOverflow);
                throw;
            }
        },
        CompileError);
}

TEST(MultiChipSplit, MaxChipsIsTyped)
{
    CostModel model(2, 10);
    std::vector<LayerCost> costs = {model.layerCost(8, 8),
                                    model.layerCost(8, 8),
                                    model.layerCost(8, 8)};
    std::vector<int> wires = {8, 8, 8};
    ChipBudget budget;
    budget.sc_per_npe = 10;
    budget.area_cap_mm2 = 1e9;
    budget.jj_cap = model.fabricJjs() + costs[0].totalJjs();
    EXPECT_THROW(
        splitLayersUnderBudget(costs, wires, model, budget, 2),
        CompileError);
}

} // namespace
} // namespace sushi::compiler
