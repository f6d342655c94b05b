/**
 * @file
 * Tests for the sharded serving front-end (PR 10): RequestPool slab
 * / lane invariants, the ServerMetrics fold rules and a pin of every
 * toJson() field, the extended determinism property
 * (ServerMetrics::toJson() byte-identical across admission_shards x
 * max_threads, with and without the resilience/chaos policies
 * engaged), and real-clock conservation under an 8-thread submit
 * hammer (runs under TSan in CI).
 */

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <thread>
#include <vector>

#include "serve/load_gen.hh"
#include "serve/request_pool.hh"
#include "serve/server.hh"
#include "snn/binarize.hh"
#include "snn/network.hh"

#include "test_util.hh"

namespace sushi::serve {
namespace {

using namespace testutil;

std::shared_ptr<const engine::CompiledModel>
smallModel()
{
    static std::shared_ptr<const engine::CompiledModel> model = [] {
        compiler::ChipConfig chip;
        chip.n = 8;
        chip.sc_per_npe = 10;
        return engine::CompiledModel::compile(
            tinyNet(16, 8, 4, 3, 7), chip);
    }();
    return model;
}

PendingReq
poolReq(std::uint64_t id, int priority)
{
    PendingReq req;
    req.id = id;
    req.request_id = id;
    req.priority = priority;
    return req;
}

// ---------------------------------------------------------------
// RequestPool: slab + per-priority lane invariants.
// ---------------------------------------------------------------

TEST(RequestPool, PopsPriorityDescThenIdAsc)
{
    RequestPool pool;
    const int prios[] = {0, 2, 1, 2, 0, 1};
    for (std::uint64_t id = 1; id <= 6; ++id)
        pool.enqueue(poolReq(id, prios[id - 1]));
    ASSERT_EQ(pool.size(), 6u);

    const std::uint64_t want[] = {2, 4, 3, 6, 1, 5};
    for (std::uint64_t expect : want) {
        const PendingReq *peek = pool.peekBest();
        ASSERT_NE(peek, nullptr);
        EXPECT_EQ(peek->id, expect);
        EXPECT_EQ(pool.popBest().id, expect);
    }
    EXPECT_TRUE(pool.empty());
    EXPECT_EQ(pool.peekBest(), nullptr);
}

TEST(RequestPool, RemoveIfLeavesLazyLaneEntries)
{
    RequestPool pool;
    for (std::uint64_t id = 1; id <= 3; ++id)
        pool.enqueue(poolReq(id, 0));

    std::vector<std::uint64_t> removed;
    const std::size_t n = pool.removeIf(
        [](const PendingReq &r) { return r.id == 2; },
        [&](PendingReq &&r) { removed.push_back(r.id); });
    EXPECT_EQ(n, 1u);
    ASSERT_EQ(removed.size(), 1u);
    EXPECT_EQ(removed[0], 2u);
    EXPECT_EQ(pool.size(), 2u);

    // The stale lane entry of id 2 is skipped transparently.
    EXPECT_EQ(pool.popBest().id, 1u);
    EXPECT_EQ(pool.popBest().id, 3u);
    EXPECT_TRUE(pool.empty());
}

TEST(RequestPool, SlabSlotReuseDoesNotResurrectStaleEntries)
{
    RequestPool pool;
    for (std::uint64_t id = 1; id <= 3; ++id)
        pool.enqueue(poolReq(id, 0));
    // Free every slot without consuming the lane entries...
    pool.removeIf([](const PendingReq &) { return true; },
                  [](PendingReq &&) {});
    EXPECT_TRUE(pool.empty());

    // ...then reuse the slots under fresh (monotone) ids. The stale
    // entries alias the reused slots but carry the old ids, so peek
    // and pop must drop them instead of double-serving.
    pool.enqueue(poolReq(10, 0));
    pool.enqueue(poolReq(11, 1));
    ASSERT_EQ(pool.size(), 2u);
    EXPECT_EQ(pool.popBest().id, 11u);
    EXPECT_EQ(pool.popBest().id, 10u);
    EXPECT_TRUE(pool.empty());
}

TEST(RequestPool, ReenqueuedOldIdKeepsArrivalOrder)
{
    RequestPool pool;
    pool.enqueue(poolReq(10, 0));
    pool.enqueue(poolReq(12, 0));
    PendingReq popped = pool.popBest();
    EXPECT_EQ(popped.id, 10u);

    // A retry re-enqueue keeps its original id: the sorted insert
    // must restore it AHEAD of the younger id 12.
    pool.enqueue(std::move(popped));
    EXPECT_EQ(pool.popBest().id, 10u);
    EXPECT_EQ(pool.popBest().id, 12u);
}

TEST(RequestPool, ForEachLiveVisitsExactlyLiveEntries)
{
    RequestPool pool;
    for (std::uint64_t id = 1; id <= 4; ++id)
        pool.enqueue(poolReq(id, static_cast<int>(id % 2)));
    pool.removeIf([](const PendingReq &r) { return r.id == 3; },
                  [](PendingReq &&) {});

    std::uint64_t mask = 0;
    pool.forEachLive(
        [&](const PendingReq &r) { mask |= 1ull << r.id; });
    EXPECT_EQ(mask, (1ull << 1) | (1ull << 2) | (1ull << 4));
}

// ---------------------------------------------------------------
// ServerMetrics::fold: the declared merge rules.
// ---------------------------------------------------------------

TEST(ServerMetrics, FoldAddsCountersAndMergesWatermarks)
{
    ServerMetrics d;
    const std::string empty = d.toJson();
    d.submitted = 3;
    d.accepted = 2;
    d.rejected_queue_full = 1;
    d.completed = 2;
    d.first_submit_ns = 50;
    d.last_event_ns = 900;
    d.queue_ns.sample(10);
    d.total_ns.sample(40);
    d.breaker = BreakerState::Open;
    d.replicas.resize(2);
    EXPECT_NE(d.toJson(), empty);

    ServerMetrics m;
    m.submitted = 5;
    m.first_submit_ns = 100;
    m.last_event_ns = 200;
    m.fold(d);

    EXPECT_EQ(m.submitted, 8u);
    EXPECT_EQ(m.accepted, 2u);
    EXPECT_EQ(m.rejected_queue_full, 1u);
    EXPECT_EQ(m.completed, 2u);
    EXPECT_EQ(m.first_submit_ns, 50);  // min merge
    EXPECT_EQ(m.last_event_ns, 900);   // max merge
    EXPECT_EQ(m.queue_ns.count(), 1u);
    EXPECT_EQ(m.total_ns.count(), 1u);
    // Scheduler-held fields are not folded.
    EXPECT_EQ(m.breaker, BreakerState::Closed);
    EXPECT_TRUE(m.replicas.empty());

    // The source is left as it was, and folding an empty record is
    // a no-op.
    EXPECT_EQ(d.submitted, 3u);
    const std::string before = m.toJson();
    m.fold(ServerMetrics{});
    EXPECT_EQ(m.toJson(), before);
}

TEST(ServerMetrics, FoldFirstSubmitMinIgnoresEmptySides)
{
    // An empty side (first_submit_ns == -1) must not clobber an
    // established watermark, and vice versa.
    ServerMetrics m;
    m.first_submit_ns = 77;
    ServerMetrics d;
    d.submitted = 1;
    m.fold(d);
    EXPECT_EQ(m.first_submit_ns, 77);

    ServerMetrics fresh;
    ServerMetrics d2;
    d2.submitted = 1;
    d2.first_submit_ns = 42;
    fresh.fold(d2);
    EXPECT_EQ(fresh.first_submit_ns, 42);
}

// ---------------------------------------------------------------
// ServerMetrics::toJson(): every field pinned.
// ---------------------------------------------------------------

TEST(ServerMetrics, ToJsonEveryFieldPinned)
{
    // Length and FNV-1a 64 hash of toJson() over one snapshot in
    // which every field holds its own value, recorded before the
    // fields were declared in one table. The campaign pins cannot
    // see a field the campaign never moves; this one can.
    ServerMetrics m;
    std::uint64_t v = 3;
    for (std::uint64_t *counter :
         {&m.deadline_missed, &m.submitted, &m.accepted, &m.completed,
          &m.rejected_queue_full, &m.rejected_deadline,
          &m.rejected_shutdown, &m.rejected_breaker,
          &m.rejected_replica_failure, &m.rejected_invalid,
          &m.batches, &m.flush_size, &m.flush_delay, &m.flush_drain,
          &m.batch_failures, &m.retries, &m.hedges_launched,
          &m.hedges_won, &m.hedges_lost, &m.hedges_cancelled,
          &m.breaker_opens, &m.breaker_half_opens, &m.breaker_closes,
          &m.quarantines, &m.probes, &m.probe_failures, &m.readmits,
          &m.spares_promoted, &m.chaos_crashes, &m.chaos_stalls,
          &m.chaos_slow_degrades, &m.chaos_faults,
          &m.chaos_degrades}) {
        *counter = v;
        v = v * 7 + 1;
    }
    m.breaker = BreakerState::HalfOpen;
    m.first_submit_ns = 1'250;
    m.last_event_ns = 9'876'543;
    for (const std::int64_t ns : {40, 700, 700, 65'000})
        m.queue_ns.sample(ns);
    for (const std::int64_t ns : {3'000, 5'500})
        m.service_ns.sample(ns);
    for (const std::int64_t ns : {9'000, 12'345, 1'000'000})
        m.total_ns.sample(ns);
    for (const std::int64_t n : {1, 4, 8, 8, 70})
        m.batch_size.sample(n);
    m.replicas.resize(3);
    const ReplicaState states[] = {ReplicaState::Active,
                                   ReplicaState::Quarantined,
                                   ReplicaState::Spare};
    for (std::size_t r = 0; r < m.replicas.size(); ++r) {
        ReplicaMetrics &rep = m.replicas[r];
        const auto k = static_cast<std::uint64_t>(r + 1);
        rep.batches = 11 * k;
        rep.samples = 13 * k;
        rep.busy_ns = static_cast<std::int64_t>(1'000'003 * k);
        rep.failures = 2 * k;
        rep.quarantines = 3 * k;
        rep.probes = 5 * k;
        rep.readmissions = 7 * k;
        rep.failed_npes = r == 1 ? 2 : 0;
        rep.state = states[r];
    }
    m.merged.frames = 17;
    m.merged.time_steps = 85;
    m.merged.synaptic_ops = 123'456;
    m.merged.failed_npes = 2;
    m.merged.est_time_ps = 4'321.5;
    m.merged.dynamic_energy_j = 7.25e-12;
    m.merged.noc_cut_flits = {3, 5};

    const std::string json = m.toJson();
    EXPECT_EQ(json.size(), 3486u);
    EXPECT_EQ(fnv1a64(json), 0x166984d919e58394ULL)
        << std::hex << fnv1a64(json);
}

// ---------------------------------------------------------------
// Virtual-clock determinism across shard AND thread counts.
// ---------------------------------------------------------------

std::string
runMatrixPoint(int shards, unsigned threads, bool resilience)
{
    ServerConfig cfg;
    cfg.engine.replicas = 3;
    cfg.max_batch = 4;
    cfg.max_delay_ns = 40'000;
    cfg.max_queue = 24; // tight: exercises QueueFull shedding
    cfg.admission_shards = shards;
    cfg.max_threads = threads;
    cfg.clock = ClockMode::Virtual;
    if (resilience) {
        cfg.retry.max_retries = 2;
        cfg.retry.backoff_ns = 20'000;
        cfg.hedge.priority_floor = 2;
        cfg.hedge.delay_ns = 30'000;
        cfg.chaos.seed = 21;
        cfg.chaos.crash_rate = 0.08;
        cfg.chaos.stall_rate = 0.05;
        cfg.chaos.fault_rate = 0.04;
        cfg.chaos.crash_hold_ns = 2'000'000;
        cfg.resilience_seed = 9;
    }

    LoadGenConfig load;
    load.rate_rps = 150'000.0;
    load.requests = 400;
    load.sample_pool = 8;
    load.seed = 1234;
    load.deadline_ns = 600'000; // some arrivals shed
    load.priorities = 3;

    const auto samples = randomSamples(8, 16, 3, 5);
    Server server(smallModel(), cfg);
    std::vector<std::future<Response>> futs;
    for (const GeneratedArrival &a : poissonArrivals(load))
        futs.push_back(server.submitAt(
            a.arrival_ns, samples[a.sample_index], a.opts));
    server.runVirtual();
    for (auto &f : futs)
        f.get(); // every future resolves
    return server.metrics().toJson();
}

TEST(ServeFrontend, MetricsByteIdenticalAcrossShardsAndThreads)
{
    const std::string reference = runMatrixPoint(1, 1, false);
    EXPECT_FALSE(reference.empty());
    for (int shards : {1, 2, 8})
        for (unsigned threads : {1u, 2u, 8u}) {
            SCOPED_TRACE("shards=" + std::to_string(shards) +
                         " threads=" + std::to_string(threads));
            EXPECT_EQ(runMatrixPoint(shards, threads, false),
                      reference);
        }
}

TEST(ServeFrontend, MetricsByteIdenticalWithResilienceAndChaos)
{
    const std::string reference = runMatrixPoint(1, 1, true);
    EXPECT_FALSE(reference.empty());
    for (int shards : {1, 2, 3, 8})
        for (unsigned threads : {1u, 2u, 8u}) {
            SCOPED_TRACE("shards=" + std::to_string(shards) +
                         " threads=" + std::to_string(threads));
            EXPECT_EQ(runMatrixPoint(shards, threads, true),
                      reference);
        }
}

// ---------------------------------------------------------------
// Shard-count plumbing.
// ---------------------------------------------------------------

TEST(ServeFrontend, AdmissionShardsDefaultToReplicaCount)
{
    ServerConfig cfg;
    cfg.engine.replicas = 3;
    cfg.clock = ClockMode::Virtual;
    Server by_default(smallModel(), cfg);
    EXPECT_EQ(by_default.admissionShards(), 3);

    cfg.admission_shards = 5;
    Server explicit_count(smallModel(), cfg);
    EXPECT_EQ(explicit_count.admissionShards(), 5);
}

// ---------------------------------------------------------------
// Real clock: 8-thread submit hammer, conservation after drain.
// (Label `serve` puts this file in the TSan CI selection.)
// ---------------------------------------------------------------

TEST(ServeFrontend, RealModeEightThreadSubmitConservation)
{
    ServerConfig cfg;
    cfg.engine.replicas = 2;
    cfg.max_batch = 4;
    cfg.max_delay_ns = 50'000;
    cfg.max_queue = 8; // small: forces QueueFull under the hammer
    cfg.clock = ClockMode::Real;
    Server server(smallModel(), cfg);

    const auto samples = randomSamples(4, 16, 3, 11);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 150;
    std::vector<std::uint64_t> ok(kThreads, 0);
    std::vector<std::uint64_t> rejected(kThreads, 0);

    std::vector<std::thread> hammers;
    hammers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        hammers.emplace_back([&, t] {
            std::vector<std::future<Response>> futs;
            futs.reserve(kPerThread);
            for (int k = 0; k < kPerThread; ++k) {
                RequestOptions opts;
                opts.priority = k % 3;
                futs.push_back(server.submit(
                    samples[static_cast<std::size_t>(k) %
                            samples.size()],
                    opts));
            }
            for (auto &f : futs) {
                const Response r = f.get();
                if (r.ok())
                    ++ok[t];
                else
                    ++rejected[t];
            }
        });
    for (std::thread &h : hammers)
        h.join();
    server.drain();

    std::uint64_t total_ok = 0;
    std::uint64_t total_rejected = 0;
    for (int t = 0; t < kThreads; ++t) {
        total_ok += ok[t];
        total_rejected += rejected[t];
    }
    EXPECT_EQ(total_ok + total_rejected,
              static_cast<std::uint64_t>(kThreads * kPerThread));

    const ServerMetrics m = server.metrics();
    const std::uint64_t all_rejections =
        m.rejected_queue_full + m.rejected_deadline +
        m.rejected_shutdown + m.rejected_breaker +
        m.rejected_replica_failure;
    EXPECT_EQ(m.submitted,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(m.submitted, m.completed + all_rejections);
    EXPECT_EQ(m.completed, total_ok);
    EXPECT_EQ(all_rejections, total_rejected);
    // No deadlines were set, so every accepted request completed.
    EXPECT_EQ(m.accepted, m.completed);
    EXPECT_GT(m.completed, 0u);
}

} // namespace
} // namespace sushi::serve
