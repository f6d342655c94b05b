/**
 * @file
 * Tests for the batched multi-chip inference engine: the compiled
 * artifact's ownership of its network, shard-plan determinism (byte-identical merged
 * stats across thread counts), equivalence with single-chip
 * sequential inference, degraded-replica draining, replica reuse
 * across batches, modelled throughput scaling with the replica
 * count, and typed errors for out-of-range arguments.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "chip/sushi_chip.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "engine/inference_engine.hh"
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
    cfg.n = 8;
    cfg.sc_per_npe = 10;
    return cfg;
}

TEST(CompiledModel, ArtifactPointsIntoItsOwnNetwork)
{
    auto model =
        CompiledModel::compile(tinyNet(10, 5, 3, 2, 21), smallChip());
    // CompiledNetwork::net must reference the artifact's own copy,
    // not the (destroyed) temporary it was compiled from.
    EXPECT_EQ(model->compiled().net, &model->network());
    EXPECT_EQ(model->compiled().layers.size(),
              model->network().layers().size());
}

TEST(Engine, MatchesSingleChipSequential)
{
    auto net = tinyNet(20, 10, 4, 3, 31);
    const auto chip_cfg = smallChip();
    auto model = CompiledModel::compile(net, chip_cfg);
    auto samples = randomSamples(23, 20, 3, 5);

    EngineConfig ecfg;
    ecfg.replicas = 4;
    InferenceEngine eng(model, ecfg);
    const auto run = eng.run(samples);

    chip::SushiChip single(chip_cfg);
    std::uint64_t seq_ops = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        single.resetStats();
        const auto counts =
            single.inferCounts(model->compiled(), samples[i]);
        EXPECT_EQ(run.samples[i].counts, counts) << "sample " << i;
        seq_ops += single.stats().synaptic_ops;
    }
    EXPECT_EQ(run.merged.synaptic_ops, seq_ops);
    EXPECT_EQ(run.merged.frames,
              static_cast<std::uint64_t>(samples.size()));
}

TEST(Engine, MergedStatsByteIdenticalAcrossThreadCounts)
{
    auto net = tinyNet(24, 12, 5, 3, 41);
    auto model = CompiledModel::compile(net, smallChip());
    auto samples = randomSamples(33, 24, 3, 6);

    std::string digest;
    for (unsigned threads : {1u, 2u, 3u, 8u}) {
        EngineConfig ecfg;
        ecfg.replicas = 4;
        ecfg.max_threads = threads;
        InferenceEngine eng(model, ecfg);
        const std::string json = statsJson(eng.run(samples).merged);
        if (digest.empty())
            digest = json;
        EXPECT_EQ(json, digest) << "threads " << threads;
    }
}

TEST(Engine, MergedStatsByteIdenticalAcrossReplicaCounts)
{
    // Stronger than the thread-count contract: per-sample stats are
    // captured from a reset chip, so even the shard plan (which
    // changes with the replica count) cannot perturb the merge.
    auto net = tinyNet(24, 12, 5, 3, 43);
    auto model = CompiledModel::compile(net, smallChip());
    auto samples = randomSamples(17, 24, 3, 7);

    std::string digest;
    std::vector<SampleResult> reference;
    for (int replicas : {1, 2, 3, 4, 8}) {
        EngineConfig ecfg;
        ecfg.replicas = replicas;
        InferenceEngine eng(model, ecfg);
        const auto run = eng.run(samples);
        const std::string json = statsJson(run.merged);
        if (digest.empty()) {
            digest = json;
            reference = run.samples;
        }
        EXPECT_EQ(json, digest) << "replicas " << replicas;
        ASSERT_EQ(run.samples.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i)
            EXPECT_EQ(run.samples[i].counts, reference[i].counts)
                << "replicas " << replicas << " sample " << i;
    }
}

TEST(Engine, ModelledThroughputScalesWithReplicas)
{
    // Replicas are independent chips, so the modelled makespan (the
    // slowest replica's chip time) shrinks with the replica count
    // while every sample's counts and the merged stats stay put.
    const auto [model, samples] = digitsWorkload(256);

    EngineConfig one;
    one.replicas = 1;
    EngineConfig eight;
    eight.replicas = 8;
    const auto base = InferenceEngine(model, one).run(samples);
    const auto wide = InferenceEngine(model, eight).run(samples);
    EXPECT_GE(base.modeledMakespanPs() / wide.modeledMakespanPs(),
              3.0);
    for (std::size_t i = 0; i < samples.size(); ++i)
        EXPECT_EQ(wide.samples[i].counts, base.samples[i].counts)
            << i;

    const std::string json = statsJson(wide.merged);
    EXPECT_EQ(json, statsJson(base.merged));
    EXPECT_EQ(json.size(), 710u);
    EXPECT_EQ(fnv1a64(json), 0xb161eee20c993809ULL)
        << std::hex << fnv1a64(json);
}

TEST(Engine, ShardPlanCoversEverySampleOnce)
{
    auto net = tinyNet(16, 8, 4, 2, 51);
    auto model = CompiledModel::compile(net, smallChip());
    auto samples = randomSamples(40, 16, 2, 8);

    EngineConfig ecfg;
    ecfg.replicas = 3;
    ecfg.shard_block = 4;
    InferenceEngine eng(model, ecfg);
    const auto run = eng.run(samples);
    ASSERT_EQ(run.shard_of.size(), samples.size());
    std::vector<int> served(3, 0);
    for (int owner : run.shard_of) {
        ASSERT_GE(owner, 0);
        ASSERT_LT(owner, 3);
        ++served[static_cast<std::size_t>(owner)];
    }
    // Block round-robin: every replica gets work on a 40-sample
    // batch with block 4.
    for (int r = 0; r < 3; ++r)
        EXPECT_GT(served[static_cast<std::size_t>(r)], 0)
            << "replica " << r;
}

TEST(Engine, DrainsDegradedReplicaAndRedistributes)
{
    auto net = tinyNet(16, 8, 4, 3, 61);
    auto model = CompiledModel::compile(net, smallChip());
    auto samples = randomSamples(24, 16, 3, 9);

    EngineConfig ecfg;
    ecfg.replicas = 3;
    InferenceEngine healthy_eng(model, ecfg);
    const auto healthy = healthy_eng.run(samples);

    InferenceEngine eng(model, ecfg);
    eng.markReplicaDegraded(1, 2);
    EXPECT_TRUE(eng.replicaDegraded(1));
    const auto run = eng.run(samples);

    // The degraded replica serves nothing; results and merged stats
    // are unchanged (the drain removes the degraded surcharges).
    EXPECT_EQ(run.active_replicas, 2);
    for (int owner : run.shard_of)
        EXPECT_NE(owner, 1);
    for (std::size_t i = 0; i < samples.size(); ++i)
        EXPECT_EQ(run.samples[i].counts, healthy.samples[i].counts);
    EXPECT_EQ(statsJson(run.merged), statsJson(healthy.merged));
    EXPECT_EQ(run.merged.degraded_passes, 0u);

    // Healing restores the replica to the shard plan.
    eng.healReplica(1);
    EXPECT_FALSE(eng.replicaDegraded(1));
    const auto healed = eng.run(samples);
    EXPECT_EQ(healed.active_replicas, 3);
}

TEST(Engine, UndrainedDegradedReplicaStillBitIdentical)
{
    // Sec. 6.2 failure tolerance: degraded-mode results are
    // bit-identical; only time/reload surcharges appear. With
    // draining off the degraded replica keeps serving.
    auto net = tinyNet(16, 8, 4, 3, 71);
    auto model = CompiledModel::compile(net, smallChip());
    auto samples = randomSamples(18, 16, 3, 10);

    EngineConfig ecfg;
    ecfg.replicas = 2;
    InferenceEngine healthy_eng(model, ecfg);
    const auto healthy = healthy_eng.run(samples);

    ecfg.drain_degraded = false;
    InferenceEngine eng(model, ecfg);
    eng.markReplicaDegraded(0, 1);
    const auto run = eng.run(samples);
    EXPECT_EQ(run.active_replicas, 2);
    bool degraded_served = false;
    for (int owner : run.shard_of)
        degraded_served |= owner == 0;
    EXPECT_TRUE(degraded_served);
    for (std::size_t i = 0; i < samples.size(); ++i)
        EXPECT_EQ(run.samples[i].counts, healthy.samples[i].counts);
    EXPECT_GT(run.merged.remapped_neurons, 0u);
    EXPECT_GT(run.merged.degraded_passes, 0u);
}

TEST(Engine, BackToBackBatchesAreIndependent)
{
    // Replica pooling reuses chips across batches: the second batch
    // must be indistinguishable from a run on a fresh engine.
    auto net = tinyNet(20, 10, 4, 3, 81);
    auto model = CompiledModel::compile(net, smallChip());
    auto batch_a = randomSamples(15, 20, 3, 11);
    auto batch_b = randomSamples(15, 20, 3, 12);

    EngineConfig ecfg;
    ecfg.replicas = 3;
    InferenceEngine eng(model, ecfg);
    eng.run(batch_a);
    const auto second = eng.run(batch_b);

    InferenceEngine fresh(model, ecfg);
    const auto reference = fresh.run(batch_b);
    for (std::size_t i = 0; i < batch_b.size(); ++i)
        EXPECT_EQ(second.samples[i].counts,
                  reference.samples[i].counts);
    EXPECT_EQ(statsJson(second.merged), statsJson(reference.merged));
}

TEST(Engine, EmptyBatch)
{
    auto net = tinyNet(10, 5, 3, 2, 91);
    auto model = CompiledModel::compile(net, smallChip());
    InferenceEngine eng(model, EngineConfig{});
    const auto run = eng.run({});
    EXPECT_TRUE(run.samples.empty());
    EXPECT_EQ(run.merged.frames, 0u);
    EXPECT_EQ(run.modeledMakespanPs(), 0.0);
}

TEST(Engine, ReplicaIdOutOfRangeThrows)
{
    auto net = tinyNet(10, 5, 3, 2, 92);
    auto model = CompiledModel::compile(net, smallChip());
    EngineConfig cfg;
    cfg.replicas = 2;
    InferenceEngine eng(model, cfg);
    const auto samples = randomSamples(1, 10, 2, 93);
    for (const int bad : {-1, eng.replicas()}) {
        EXPECT_THROW(eng.runOnReplica(bad, samples), std::out_of_range)
            << bad;
        EXPECT_THROW(eng.markReplicaDegraded(bad, 0), std::out_of_range)
            << bad;
        EXPECT_THROW(eng.healReplica(bad), std::out_of_range) << bad;
        EXPECT_THROW(eng.failedNpeSlots(bad), std::out_of_range) << bad;
    }
    // A rejected call leaves the engine serving.
    EXPECT_EQ(eng.runOnReplica(eng.replicas() - 1, samples)
                  .results.size(),
              1u);
}

TEST(Engine, DegradeSlotOutOfRangeThrows)
{
    auto net = tinyNet(10, 5, 3, 2, 94);
    auto model = CompiledModel::compile(net, smallChip());
    EngineConfig cfg;
    cfg.replicas = 2;
    InferenceEngine eng(model, cfg);
    for (const int bad : {-1, eng.npeSlots(), eng.npeSlots() + 7})
        EXPECT_THROW(eng.markReplicaDegraded(0, bad), std::out_of_range)
            << bad;
    // A rejected mark fails no slot, and the edge slots are valid.
    EXPECT_FALSE(eng.replicaDegraded(0));
    EXPECT_EQ(eng.failedNpeSlots(0), 0);
    eng.markReplicaDegraded(0, 0);
    eng.markReplicaDegraded(1, eng.npeSlots() - 1);
    EXPECT_EQ(eng.failedNpeSlots(0), 1);
    EXPECT_EQ(eng.failedNpeSlots(1), 1);

    chip::SushiChip chip(smallChip());
    EXPECT_THROW(chip.markNpeFailed(-1), std::out_of_range);
    EXPECT_THROW(chip.markNpeFailed(smallChip().n), std::out_of_range);
    EXPECT_EQ(chip.stats().failed_npes, 0u);
}

TEST(Engine, NocTransportWithoutNocThrows)
{
    auto net = tinyNet(10, 5, 3, 2, 95);
    auto model = CompiledModel::compile(net, smallChip());
    ASSERT_EQ(model->stageCount(), 1);
    // NoC off, and NoC on over a single-stage plan (no cut to route).
    for (const bool noc : {false, true}) {
        EngineConfig cfg;
        cfg.replicas = 1;
        cfg.noc.enabled = noc;
        InferenceEngine eng(model, cfg);
        ASSERT_FALSE(eng.nocEnabled());
        EXPECT_THROW(eng.nocTransport(0), std::logic_error) << noc;
    }
}

TEST(Engine, NullModelThrows)
{
    EXPECT_THROW(InferenceEngine(nullptr, EngineConfig{}),
                 std::invalid_argument);
}

/** The what() of the invalid_argument an engine built with @p cfg
 *  throws ("" if it constructs). */
std::string
engineError(const EngineConfig &cfg)
{
    auto model = CompiledModel::compile(tinyNet(10, 5, 3, 2, 96),
                                        smallChip());
    try {
        InferenceEngine eng(model, cfg);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(Engine, NegativeReplicasThrowsNamingTheField)
{
    EngineConfig cfg;
    cfg.replicas = -1;
    EXPECT_NE(engineError(cfg).find("EngineConfig.replicas"),
              std::string::npos);
    cfg.replicas = 0; // parallelWorkers()
    EXPECT_EQ(engineError(cfg), "");
}

TEST(Engine, ZeroShardBlockThrowsNamingTheField)
{
    EngineConfig cfg;
    cfg.replicas = 1;
    cfg.shard_block = 0;
    EXPECT_NE(engineError(cfg).find("EngineConfig.shard_block"),
              std::string::npos);
    cfg.shard_block = 1;
    EXPECT_EQ(engineError(cfg), "");
}

TEST(Engine, EncodeSamplesIsPerSampleDeterministic)
{
    snn::Tensor images(4, 16);
    Rng rng(101);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 16; ++c)
            images.at(r, c) = static_cast<float>(rng.uniform());

    const auto all = encodeSamples(images, 3, 7);
    ASSERT_EQ(all.size(), 4u);

    // Encoding the first two rows alone gives the same streams: the
    // per-sample seed derivation is independent of batch size.
    snn::Tensor head(2, 16);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 16; ++c)
            head.at(r, c) = images.at(r, c);
    const auto prefix = encodeSamples(head, 3, 7);
    EXPECT_EQ(prefix[0], all[0]);
    EXPECT_EQ(prefix[1], all[1]);
}

TEST(WorkerPool, DrainRunsEverySubmittedJob)
{
    WorkerPool pool(3);
    std::vector<int> done(64, 0);
    for (std::size_t i = 0; i < done.size(); ++i)
        pool.submit([&done, i] { done[i] = 1; });
    pool.drain();
    for (std::size_t i = 0; i < done.size(); ++i)
        EXPECT_EQ(done[i], 1) << "job " << i;
}

TEST(WorkerPool, DrainRethrowsJobException)
{
    WorkerPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.drain(), std::runtime_error);
    // The pool stays usable after an error.
    bool ran = false;
    pool.submit([&ran] { ran = true; });
    pool.drain();
    EXPECT_TRUE(ran);
}

TEST(ParallelFor, CoversRangeExactlyOnceAtAnyWidth)
{
    for (unsigned width : {1u, 2u, 5u}) {
        std::vector<int> hits(1000, 0);
        ParallelOptions opts;
        opts.grain = 1;
        opts.max_workers = width;
        parallelFor(
            hits.size(),
            [&](std::size_t b, std::size_t e) {
                for (std::size_t i = b; i < e; ++i)
                    ++hits[i];
            },
            opts);
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i], 1) << "width " << width << " i " << i;
    }
}

} // namespace
} // namespace sushi::engine
