/**
 * @file
 * Tests for the request-level serving layer: dynamic-batcher flush
 * rules (size / delay / drain), deadline shedding before execution
 * and late-completion accounting, queue-full admission control,
 * priority ordering under contention, drain/shutdown semantics, the
 * virtual-clock determinism property (same seed + config ==>
 * byte-identical ServerMetrics JSON across worker-thread counts and
 * repeated runs), request-level bit-equivalence with a lone
 * SushiChip, and the open-loop latency sweep (shedding past
 * saturation, the p99 bound, a pinned replay).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "chip/sushi_chip.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "serve/load_gen.hh"
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

ServerConfig
virtualConfig(int replicas, std::size_t max_batch,
              std::int64_t max_delay_ns,
              std::size_t max_queue = 1024)
{
    ServerConfig cfg;
    cfg.engine.replicas = replicas;
    cfg.max_batch = max_batch;
    cfg.max_delay_ns = max_delay_ns;
    cfg.max_queue = max_queue;
    cfg.clock = ClockMode::Virtual;
    return cfg;
}

/** Service duration of one request on an idle virtual server. */
std::int64_t
soloServiceNs(const engine::Sample &sample)
{
    Server server(smallModel(), virtualConfig(1, 1, 0));
    auto fut = server.submitAt(0, sample);
    server.runVirtual();
    return fut.get().serviceNs();
}

TEST(ServeBatcher, FlushesOnSize)
{
    Server server(smallModel(),
                  virtualConfig(1, 4, /*max_delay=*/1'000'000'000));
    const auto samples = randomSamples(8, 16, 3, 1);
    std::vector<std::future<Response>> futs;
    for (const auto &s : samples)
        futs.push_back(server.submitAt(0, s));
    server.runVirtual();

    for (auto &f : futs) {
        const Response r = f.get();
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.batch_size, 4);
    }
    const ServerMetrics m = server.metrics();
    EXPECT_EQ(m.accepted, 8u);
    EXPECT_EQ(m.completed, 8u);
    EXPECT_EQ(m.batches, 2u);
    EXPECT_EQ(m.flush_size, 2u);
    EXPECT_EQ(m.flush_delay, 0u);
    EXPECT_EQ(m.batch_size.bucketCount(3), 2u); // two batches of 4
}

TEST(ServeBatcher, FlushesOnDelay)
{
    const std::int64_t delay = 500;
    Server server(smallModel(), virtualConfig(1, 8, delay));
    const auto samples = randomSamples(2, 16, 3, 2);
    auto f0 = server.submitAt(0, samples[0]);
    auto f1 = server.submitAt(100, samples[1]);
    server.runVirtual();

    const Response r0 = f0.get();
    const Response r1 = f1.get();
    EXPECT_TRUE(r0.ok());
    EXPECT_TRUE(r1.ok());
    // The partial batch flushed when the OLDEST request hit the
    // queue-delay bound, carrying both requests.
    EXPECT_EQ(r0.dispatch_ns, delay);
    EXPECT_EQ(r1.dispatch_ns, delay);
    EXPECT_EQ(r0.batch_size, 2);
    const ServerMetrics m = server.metrics();
    EXPECT_EQ(m.flush_delay, 1u);
    EXPECT_EQ(m.flush_size, 0u);
}

TEST(ServeDeadline, RejectsBeforeExecution)
{
    const auto samples = randomSamples(3, 16, 3, 3);
    Server server(smallModel(), virtualConfig(1, 1, 0));

    // A occupies the replica; B's deadline passes while it queues;
    // C is dead on arrival.
    auto fa = server.submitAt(0, samples[0]);
    RequestOptions ob;
    ob.deadline_ns = 1;
    auto fb = server.submitAt(0, samples[1], ob);
    RequestOptions oc;
    oc.deadline_ns = 5;
    auto fc = server.submitAt(10, samples[2], oc);
    server.runVirtual();

    EXPECT_TRUE(fa.get().ok());
    const Response rb = fb.get();
    EXPECT_EQ(rb.rejected, Reject::DeadlineExceeded);
    EXPECT_TRUE(rb.result.counts.empty()); // never executed
    EXPECT_EQ(fc.get().rejected, Reject::DeadlineExceeded);
    const ServerMetrics m = server.metrics();
    EXPECT_EQ(m.rejected_deadline, 2u);
    EXPECT_EQ(m.completed, 1u);
    EXPECT_EQ(m.deadline_missed, 0u);
}

TEST(ServeDeadline, LateCompletionCountsAsMissed)
{
    const auto samples = randomSamples(2, 16, 3, 4);
    const std::int64_t service = soloServiceNs(samples[0]);
    ASSERT_GT(service, 1);

    // B dequeues when A's service ends and its deadline passes
    // mid-service: it completes, but late.
    Server server(smallModel(), virtualConfig(1, 1, 0));
    auto fa = server.submitAt(0, samples[0]);
    RequestOptions ob;
    ob.deadline_ns = service + 1;
    auto fb = server.submitAt(0, samples[1], ob);
    server.runVirtual();

    EXPECT_TRUE(fa.get().ok());
    const Response rb = fb.get();
    EXPECT_TRUE(rb.ok());
    EXPECT_TRUE(rb.deadline_missed);
    EXPECT_GT(rb.complete_ns, ob.deadline_ns);
    const ServerMetrics m = server.metrics();
    EXPECT_EQ(m.completed, 2u);
    EXPECT_EQ(m.deadline_missed, 1u);
    EXPECT_EQ(m.rejected_deadline, 0u);
}

TEST(ServeAdmission, QueueFullSheds)
{
    const auto samples = randomSamples(6, 16, 3, 5);
    Server server(smallModel(),
                  virtualConfig(1, 1, 0, /*max_queue=*/2));
    std::vector<std::future<Response>> futs;
    for (const auto &s : samples)
        futs.push_back(server.submitAt(0, s));
    server.runVirtual();

    std::size_t ok = 0, shed = 0;
    for (auto &f : futs) {
        const Response r = f.get();
        if (r.ok())
            ++ok;
        else if (r.rejected == Reject::QueueFull)
            ++shed;
    }
    EXPECT_EQ(ok, 2u);
    EXPECT_EQ(shed, 4u);
    const ServerMetrics m = server.metrics();
    EXPECT_EQ(m.rejected_queue_full, 4u);
    EXPECT_EQ(m.accepted, 2u);
    EXPECT_EQ(m.submitted, 6u);
}

/** submitted == completed + every typed rejection. */
void
expectEveryRequestAccounted(const ServerMetrics &m)
{
    EXPECT_EQ(m.submitted,
              m.completed + m.rejected_queue_full +
                  m.rejected_deadline + m.rejected_shutdown +
                  m.rejected_breaker + m.rejected_replica_failure +
                  m.rejected_invalid);
}

TEST(ServeAdmission, MalformedRequestFailsAloneNotItsBatch)
{
    // Three well-formed requests and one 3-wide one share a batch
    // window: the bad one is rejected at admission, its batch-mates
    // are served, and the healthy replica records no failure.
    auto samples = randomSamples(3, 16, 3, 21);
    samples.insert(samples.begin() + 1, randomSamples(1, 3, 3, 22)[0]);
    Server server(smallModel(),
                  virtualConfig(1, 4, /*max_delay=*/1'000'000));
    std::vector<std::future<Response>> futs;
    for (const auto &s : samples)
        futs.push_back(server.submitAt(10, s));
    server.runVirtual();

    for (std::size_t i = 0; i < futs.size(); ++i) {
        const Response r = futs[i].get();
        if (i == 1) {
            EXPECT_EQ(r.rejected, Reject::InvalidRequest);
            EXPECT_STREQ(rejectName(r.rejected), "invalid_request");
        } else {
            EXPECT_TRUE(r.ok()) << "request " << i;
        }
    }
    const ServerMetrics m = server.metrics();
    EXPECT_EQ(m.completed, 3u);
    EXPECT_EQ(m.rejected_invalid, 1u);
    EXPECT_EQ(m.rejected_replica_failure, 0u);
    EXPECT_EQ(m.batch_failures, 0u);
    ASSERT_EQ(m.replicas.size(), 1u);
    EXPECT_EQ(m.replicas[0].failures, 0u);
    expectEveryRequestAccounted(m);

    // The real-clock submit path checks the same shape.
    ServerConfig cfg;
    cfg.engine.replicas = 1;
    cfg.clock = ClockMode::Real;
    Server real(smallModel(), cfg);
    EXPECT_EQ(real.submit(samples[1]).get().rejected,
              Reject::InvalidRequest);
    EXPECT_TRUE(real.submit(samples[0]).get().ok());
    real.drain();
    const ServerMetrics rm = real.metrics();
    EXPECT_EQ(rm.rejected_invalid, 1u);
    EXPECT_EQ(rm.completed, 1u);
    expectEveryRequestAccounted(rm);
}

TEST(ServeAdmission, RejectsWrongFrameCountAndNonBinaryValues)
{
    // smallModel runs T = 3 frames of 16 spikes. Each malformed
    // sample is rejected alone as InvalidRequest, on either clock.
    const auto good = randomSamples(2, 16, 3, 23);
    std::vector<engine::Sample> bad = {
        {},                                // no frames
        randomSamples(1, 16, 2, 24)[0],    // T - 1 frames
        randomSamples(1, 16, 4, 25)[0],    // T + 1 frames
        good[0],                           // a 2-pulse input
        good[1],                           // a 255-valued input
    };
    bad[3][1][5] = 2;
    bad[4][2][15] = 255;
    std::vector<engine::Sample> samples = {good[0]};
    samples.insert(samples.end(), bad.begin(), bad.end());
    samples.push_back(good[1]);
    const auto check = [&](Server &server,
                           std::vector<std::future<Response>> &futs) {
        for (std::size_t i = 0; i < futs.size(); ++i) {
            const Response r = futs[i].get();
            if (i == 0 || i + 1 == futs.size())
                EXPECT_TRUE(r.ok()) << "request " << i;
            else
                EXPECT_EQ(r.rejected, Reject::InvalidRequest)
                    << "request " << i;
        }
        const ServerMetrics m = server.metrics();
        EXPECT_EQ(m.completed, 2u);
        EXPECT_EQ(m.rejected_invalid, bad.size());
        EXPECT_EQ(m.rejected_replica_failure, 0u);
        expectEveryRequestAccounted(m);
    };

    Server virt(smallModel(),
                virtualConfig(1, 4, /*max_delay=*/1'000'000));
    std::vector<std::future<Response>> futs;
    for (const auto &s : samples)
        futs.push_back(virt.submitAt(10, s));
    virt.runVirtual();
    check(virt, futs);

    ServerConfig cfg;
    cfg.engine.replicas = 1;
    cfg.clock = ClockMode::Real;
    Server real(smallModel(), cfg);
    futs.clear();
    for (const auto &s : samples)
        futs.push_back(real.submit(s));
    for (auto &f : futs)
        f.wait();
    real.drain();
    check(real, futs);
}

/** A 70-wide model: a frame is one full word and a 6-input tail
 *  word, so a value can sit in either. */
std::shared_ptr<const engine::CompiledModel>
tailWordModel()
{
    static std::shared_ptr<const engine::CompiledModel> model = [] {
        compiler::ChipConfig chip;
        chip.n = 8;
        chip.sc_per_npe = 10;
        return engine::CompiledModel::compile(tinyNet(70, 12, 4, 3, 31),
                                              chip);
    }();
    return model;
}

TEST(ServeAdmission, SeededShapeFuzzRejectsEachMalformedRequestAlone)
{
    // ~200 seeded requests per clock: valid samples mixed with every
    // malformed shape admission must refuse — 0, T - 1 and T + 1
    // frames; a frame in - 1, in + 1 or 0 wide; the value 2 or 255 at
    // the first, the last and a tail-word input. Every future
    // resolves; each malformed one alone as InvalidRequest, each
    // valid one with a lone chip's inferCounts.
    const auto model = tailWordModel();
    const std::size_t in = 70;
    const int t_steps = 3;
    Rng rng(8080);
    std::vector<engine::Sample> samples;
    std::vector<bool> valid;
    for (int i = 0; i < 200; ++i) {
        engine::Sample s = randomSamples(
            1, in, t_steps, 9000 + static_cast<std::uint64_t>(i))[0];
        const auto frame = static_cast<std::size_t>(rng.below(3));
        bool ok = false;
        switch (rng.below(12)) {
        case 0: s.clear(); break;
        case 1: s.pop_back(); break;
        case 2: s.push_back(s.front()); break;
        case 3: s[frame].pop_back(); break;
        case 4: s[frame].push_back(0); break;
        case 5: s[frame].clear(); break;
        case 6:
        case 7: {
            // 2 or 255 at the first, the last or a tail-word input.
            const std::size_t at[] = {0, in - 1, 64 + rng.below(in - 65)};
            s[frame][at[rng.below(3)]] = rng.chance(0.5) ? 2 : 255;
            break;
        }
        default: ok = true; break;
        }
        samples.push_back(std::move(s));
        valid.push_back(ok);
    }
    std::vector<std::vector<int>> want(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (!valid[i])
            continue;
        chip::SushiChip lone(model->chip());
        want[i] = lone.inferCounts(model->compiled(), samples[i]);
    }
    const auto n_valid = static_cast<std::size_t>(
        std::count(valid.begin(), valid.end(), true));
    ASSERT_GT(n_valid, 50u);
    ASSERT_GT(samples.size() - n_valid, 50u);

    const auto check = [&](Server &server,
                           std::vector<std::future<Response>> &futs) {
        ASSERT_EQ(futs.size(), samples.size());
        for (std::size_t i = 0; i < futs.size(); ++i) {
            ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(60)),
                      std::future_status::ready)
                << "request " << i;
            const Response r = futs[i].get();
            if (valid[i]) {
                ASSERT_TRUE(r.ok()) << "request " << i;
                EXPECT_EQ(r.result.counts, want[i]) << "request " << i;
            } else {
                EXPECT_EQ(r.rejected, Reject::InvalidRequest)
                    << "request " << i;
            }
        }
        const ServerMetrics m = server.metrics();
        EXPECT_EQ(m.submitted, samples.size());
        EXPECT_EQ(m.completed, n_valid);
        EXPECT_EQ(m.rejected_invalid, samples.size() - n_valid);
        EXPECT_EQ(m.rejected_replica_failure, 0u);
        expectEveryRequestAccounted(m);
    };

    Server virt(model, virtualConfig(2, 4, /*max_delay=*/50'000));
    std::vector<std::future<Response>> futs;
    for (std::size_t i = 0; i < samples.size(); ++i)
        futs.push_back(virt.submitAt(
            static_cast<std::int64_t>(i) * 20'000, samples[i]));
    virt.runVirtual();
    check(virt, futs);

    ServerConfig cfg;
    cfg.engine.replicas = 2;
    cfg.clock = ClockMode::Real;
    Server real(model, cfg);
    futs.clear();
    for (const auto &s : samples)
        futs.push_back(real.submit(s));
    check(real, futs);
    real.drain();
}

TEST(ServePriority, HigherPriorityDispatchesFirst)
{
    const auto samples = randomSamples(4, 16, 3, 6);
    Server server(smallModel(), virtualConfig(1, 1, 0));
    const int priorities[] = {0, 1, 5, 3};
    std::vector<std::future<Response>> futs;
    for (std::size_t i = 0; i < 4; ++i) {
        RequestOptions opts;
        opts.priority = priorities[i];
        futs.push_back(server.submitAt(0, samples[i], opts));
    }
    server.runVirtual();

    std::vector<Response> rs;
    for (auto &f : futs)
        rs.push_back(f.get());
    // Contention on one replica: dispatch order follows priority
    // (5, 3, 1, 0), not submission order.
    EXPECT_LT(rs[2].dispatch_ns, rs[3].dispatch_ns);
    EXPECT_LT(rs[3].dispatch_ns, rs[1].dispatch_ns);
    EXPECT_LT(rs[1].dispatch_ns, rs[0].dispatch_ns);
}

TEST(ServePriority, TiesServeInArrivalOrder)
{
    const auto samples = randomSamples(3, 16, 3, 16);
    Server server(smallModel(), virtualConfig(1, 1, 0));
    std::vector<std::future<Response>> futs;
    for (const auto &s : samples)
        futs.push_back(server.submitAt(0, s));
    server.runVirtual();
    std::vector<Response> rs;
    for (auto &f : futs)
        rs.push_back(f.get());
    EXPECT_LE(rs[0].dispatch_ns, rs[1].dispatch_ns);
    EXPECT_LE(rs[1].dispatch_ns, rs[2].dispatch_ns);
}

TEST(ServeEquivalence, ResultsBitIdenticalToLoneChip)
{
    const auto samples = randomSamples(17, 16, 3, 8);
    ServerConfig cfg = virtualConfig(3, 4, 1000);
    Server server(smallModel(), cfg);
    LoadGenConfig lg;
    lg.rate_rps = 1e6;
    lg.requests = samples.size();
    lg.sample_pool = samples.size();
    lg.seed = 99;
    const auto arrivals = poissonArrivals(lg);
    std::vector<std::future<Response>> futs;
    for (const auto &a : arrivals)
        futs.push_back(server.submitAt(
            a.arrival_ns, samples[a.sample_index], a.opts));
    server.runVirtual();

    chip::SushiChip chip(smallModel()->chip());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Response r = futs[i].get();
        ASSERT_TRUE(r.ok());
        chip.resetStats();
        const auto expect = chip.inferCounts(
            smallModel()->compiled(),
            samples[arrivals[i].sample_index]);
        EXPECT_EQ(r.result.counts, expect) << "request " << i;
    }
}

TEST(ServeDeterminism, MetricsByteIdenticalAcrossThreadCounts)
{
    const auto samples = randomSamples(12, 16, 3, 9);
    LoadGenConfig lg;
    lg.rate_rps = 2e6; // near saturation: queueing + shedding occur
    lg.requests = 150;
    lg.sample_pool = samples.size();
    lg.seed = 1234;
    lg.deadline_ns = 400'000;
    lg.priorities = 3;
    const auto arrivals = poissonArrivals(lg);

    std::string digest;
    for (unsigned threads : {1u, 2u, 8u}) {
        for (int repeat = 0; repeat < 2; ++repeat) {
            ServerConfig cfg =
                virtualConfig(4, 4, 2000, /*max_queue=*/16);
            cfg.max_threads = threads;
            Server server(smallModel(), cfg);
            for (const auto &a : arrivals)
                server.submitAt(a.arrival_ns,
                                samples[a.sample_index], a.opts);
            server.runVirtual();
            const std::string json = server.metrics().toJson();
            if (digest.empty())
                digest = json;
            EXPECT_EQ(json, digest)
                << "threads " << threads << " repeat " << repeat;
        }
    }
    // The workload actually exercised the interesting paths.
    Server probe(smallModel(), virtualConfig(4, 4, 2000, 16));
    for (const auto &a : arrivals)
        probe.submitAt(a.arrival_ns, samples[a.sample_index],
                       a.opts);
    probe.runVirtual();
    const ServerMetrics m = probe.metrics();
    EXPECT_GT(m.completed, 0u);
    EXPECT_GT(m.batches, 0u);
    EXPECT_GT(m.rejected_queue_full + m.rejected_deadline, 0u);
}

// ---------------------------------------------------------------
// Open-loop latency vs offered load on the digits workload: 500
// Poisson arrivals (seed 4242) at multiples of the saturation rate.
// ---------------------------------------------------------------

constexpr std::size_t kSweepQueue = 128;

struct LatencySweep
{
    DigitsWorkload w;
    ServerMetrics calibration;
    double batch_service_ns = 0.0;
    double capacity_rps = 0.0;
};

/** Calibrates saturation: one full batch per replica on an idle
 *  4-replica pool gives the mean batch service time. */
LatencySweep
latencySweep()
{
    LatencySweep s;
    s.w = digitsWorkload(48);
    Server probe(s.w.model, virtualConfig(4, 8, 200'000));
    for (std::size_t i = 0; i < 4 * 8; ++i)
        probe.submitAt(0, s.w.samples[i]);
    probe.runVirtual();
    s.calibration = probe.metrics();
    s.batch_service_ns = s.calibration.service_ns.mean();
    s.capacity_rps = 4 * 8 * 1e9 / s.batch_service_ns;
    return s;
}

/** Plays @p load x saturation through a fresh server that waits up
 *  to half a batch service to coalesce; the deadline (24 batch
 *  services) is loose enough that the queue bound does the
 *  shedding. */
ServerMetrics
playLoad(const LatencySweep &s, double load)
{
    LoadGenConfig lg;
    lg.rate_rps = s.capacity_rps * load;
    lg.requests = 500;
    lg.sample_pool = s.w.samples.size();
    lg.seed = 4242;
    lg.deadline_ns =
        static_cast<std::int64_t>(s.batch_service_ns * 24);
    Server server(s.w.model,
                  virtualConfig(4, 8,
                                static_cast<std::int64_t>(
                                    s.batch_service_ns / 2),
                                kSweepQueue));
    for (const auto &a : poissonArrivals(lg))
        server.submitAt(a.arrival_ns, s.w.samples[a.sample_index],
                        a.opts);
    server.runVirtual();
    return server.metrics();
}

TEST(ServeLatency, QueueBoundShedsPastSaturationAndBoundsP99)
{
    const LatencySweep s = latencySweep();
    EXPECT_EQ(s.calibration.completed, 32u);
    EXPECT_EQ(s.calibration.batches, 4u);
    ASSERT_GT(s.batch_service_ns, 0.0);

    // An admitted request waits at most the queued backlog (the
    // queue bound over all replicas' batches), the delay knob and
    // its own batch; 2x slack.
    const double worst_wait_ns =
        (kSweepQueue / 32.0 + 1.0) * s.batch_service_ns +
        s.batch_service_ns / 2;
    std::vector<ServerMetrics> points;
    for (const double load : {0.5, 0.8, 1.1, 1.5, 2.5}) {
        points.push_back(playLoad(s, load));
        EXPECT_LE(points.back().total_ns.percentile(0.99),
                  2.0 * worst_wait_ns)
            << "load " << load;
    }
    // The shedding comes from the load: none at half saturation.
    EXPECT_EQ(points.front().rejected_queue_full, 0u);
    EXPECT_GT(points.back().rejected_queue_full, 0u);
}

TEST(ServeLatency, TopRateReplaysByteIdenticallyAndIsPinned)
{
    const LatencySweep s = latencySweep();
    const std::string json = playLoad(s, 2.5).toJson();
    EXPECT_EQ(playLoad(s, 2.5).toJson(), json);
    EXPECT_EQ(json.size(), 3648u);
    EXPECT_EQ(fnv1a64(json), 0x79b80c671868eb2fULL)
        << std::hex << fnv1a64(json);
}

TEST(ServeDrain, VirtualDrainFlushesQueuedAndRejectsLater)
{
    const auto samples = randomSamples(3, 16, 3, 10);
    Server server(smallModel(),
                  virtualConfig(2, 8, /*max_delay=*/1'000'000'000));
    std::vector<std::future<Response>> futs;
    for (const auto &s : samples)
        futs.push_back(server.submitAt(0, s));
    server.drain(); // plays the timeline; partial batch flushes

    for (auto &f : futs)
        EXPECT_TRUE(f.get().ok());
    const ServerMetrics m = server.metrics();
    EXPECT_EQ(m.completed, 3u);
    EXPECT_GE(m.flush_drain, 1u);

    auto late = server.submit(samples[0]);
    EXPECT_EQ(late.get().rejected, Reject::ShuttingDown);
}

TEST(ServeDrain, DestructorResolvesOutstandingFutures)
{
    const auto samples = randomSamples(2, 16, 3, 11);
    std::vector<std::future<Response>> futs;
    {
        Server server(smallModel(), virtualConfig(1, 4, 1000));
        for (const auto &s : samples)
            futs.push_back(server.submitAt(0, s));
        // No runVirtual(): the destructor must drain gracefully.
    }
    for (auto &f : futs)
        EXPECT_TRUE(f.get().ok());
}

TEST(ServeRealMode, ServesTrafficAndDrainsInFlight)
{
    const auto samples = randomSamples(24, 16, 3, 12);
    ServerConfig cfg;
    cfg.engine.replicas = 2;
    cfg.max_batch = 4;
    cfg.max_delay_ns = 1'000'000; // 1 ms
    cfg.clock = ClockMode::Real;
    Server server(smallModel(), cfg);

    std::vector<std::future<Response>> futs;
    for (const auto &s : samples)
        futs.push_back(server.submit(s));
    server.drain(); // in-flight and queued requests all finish

    chip::SushiChip chip(smallModel()->chip());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Response r = futs[i].get();
        ASSERT_TRUE(r.ok()) << "request " << i;
        EXPECT_GE(r.queueNs(), 0);
        EXPECT_GE(r.serviceNs(), 0);
        chip.resetStats();
        EXPECT_EQ(r.result.counts,
                  chip.inferCounts(smallModel()->compiled(),
                                   samples[i]));
    }
    const ServerMetrics m = server.metrics();
    EXPECT_EQ(m.completed, samples.size());
    EXPECT_EQ(m.accepted, samples.size());
    EXPECT_EQ(m.merged.frames,
              static_cast<std::uint64_t>(samples.size()));

    auto late = server.submit(samples[0]);
    EXPECT_EQ(late.get().rejected, Reject::ShuttingDown);
    server.shutdown();
    server.shutdown(); // idempotent
}

TEST(ServeRealMode, PartialBatchFlushesWithoutDrain)
{
    const auto samples = randomSamples(2, 16, 3, 13);
    ServerConfig cfg;
    cfg.engine.replicas = 1;
    cfg.max_batch = 64;          // never reached
    cfg.max_delay_ns = 2'000'000; // 2 ms
    cfg.clock = ClockMode::Real;
    Server server(smallModel(), cfg);
    auto f0 = server.submit(samples[0]);
    auto f1 = server.submit(samples[1]);
    // The delay flush must fire on its own.
    EXPECT_TRUE(f0.get().ok());
    EXPECT_TRUE(f1.get().ok());
    EXPECT_GE(server.metrics().flush_delay, 1u);
}

// An idle worker that spins instead of parking is not a sleeper, so
// when another thread forms its replica's batch, that thread's notify
// finds no one, and the queue depth it polls may be back where it
// was. A worker that missed its batch sleeps until its next event, up
// to 1 s away; this loop waits on its oldest future, so such a batch
// stalls the whole loop and shows as a long service time.
TEST(ServeRealMode, ClosedLoopStrandsNoBatch)
{
    if (usableCpus() <= 2)
        GTEST_SKIP() << "workers of a 2-replica server spin only on "
                        "more than 2 CPUs";
    const auto samples = randomSamples(64, 16, 3, 21);
    chip::SushiChip chip(smallModel()->chip());
    std::vector<std::vector<int>> expected;
    for (const auto &s : samples) {
        chip.resetStats();
        expected.push_back(
            chip.inferCounts(smallModel()->compiled(), s));
    }
    constexpr std::size_t kRequests = 2'000;
    constexpr std::size_t kInFlight = 16;
    for (const std::size_t max_batch : {4u, 8u}) {
        SCOPED_TRACE("max_batch " + std::to_string(max_batch));
        ServerConfig cfg;
        cfg.engine.replicas = 2;
        cfg.max_batch = max_batch;
        cfg.clock = ClockMode::Real;
        Server server(smallModel(), cfg);

        std::deque<std::pair<std::size_t, std::future<Response>>>
            inflight;
        std::size_t sent = 0;
        const auto submitNext = [&] {
            const std::size_t i = sent++ % samples.size();
            inflight.emplace_back(i, server.submit(samples[i]));
        };
        while (sent < kInFlight)
            submitNext();
        std::int64_t worst_service_ns = 0;
        while (!inflight.empty()) {
            auto [i, fut] = std::move(inflight.front());
            inflight.pop_front();
            ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
                      std::future_status::ready);
            const Response r = fut.get();
            ASSERT_TRUE(r.ok());
            EXPECT_EQ(r.result.counts, expected[i]);
            worst_service_ns = std::max(worst_service_ns, r.serviceNs());
            if (sent < kRequests)
                submitNext();
        }
        const ServerMetrics m = server.metrics();
        EXPECT_EQ(m.submitted, kRequests);
        EXPECT_EQ(m.completed, m.submitted);
        EXPECT_LE(worst_service_ns, 250'000'000)
            << "a formed batch waited for its worker's next event";
    }
}

// A drain or shutdown that begins while an idle worker spins off mu_
// notifies no sleeper either; the worker must see it under mu_ before
// it parks, or the join waits for the worker's next event, 1 s away.
TEST(ServeRealMode, ShutdownStrandsNoSpinningWorker)
{
    if (usableCpus() <= 2)
        GTEST_SKIP() << "workers of a 2-replica server spin only on "
                        "more than 2 CPUs";
    using Clock = std::chrono::steady_clock;
    ServerConfig cfg;
    cfg.engine.replicas = 2;
    cfg.clock = ClockMode::Real;
    Rng rng(29);
    Clock::duration worst{};
    for (int i = 0; i < 200; ++i) {
        Server server(smallModel(), cfg);
        // Land the shutdown anywhere in the workers' first spins.
        const auto until =
            Clock::now() + std::chrono::microseconds(rng.range(0, 120));
        while (Clock::now() < until) {
        }
        const auto t0 = Clock::now();
        server.shutdown();
        worst = std::max(worst, Clock::now() - t0);
    }
    EXPECT_LE(worst, std::chrono::milliseconds(250));
}

TEST(ServeMetrics, SnapshotJsonRoundsTrip)
{
    const auto samples = randomSamples(5, 16, 3, 14);
    Server server(smallModel(), virtualConfig(2, 2, 100));
    for (const auto &s : samples)
        server.submitAt(0, s);
    server.runVirtual();
    const ServerMetrics m = server.metrics();
    const std::string json = m.toJson();
    EXPECT_NE(json.find("\"completed\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"queue_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"merged_stats\""), std::string::npos);
    EXPECT_NE(json.find("\"replicas\""), std::string::npos);
    // Two snapshots of an idle server are byte-identical.
    EXPECT_EQ(json, server.metrics().toJson());
    EXPECT_GT(m.spanNs(), 0);
    EXPECT_GT(m.utilisation(0), 0.0);
}

TEST(ServeLoadGen, SchedulesAreSeedDeterministic)
{
    LoadGenConfig lg;
    lg.rate_rps = 5e5;
    lg.requests = 64;
    lg.sample_pool = 7;
    lg.seed = 42;
    lg.deadline_ns = 1000;
    lg.priorities = 4;
    const auto a = poissonArrivals(lg);
    const auto b = poissonArrivals(lg);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival_ns, b[i].arrival_ns);
        EXPECT_EQ(a[i].sample_index, b[i].sample_index);
        EXPECT_EQ(a[i].opts.priority, b[i].opts.priority);
        EXPECT_EQ(a[i].opts.deadline_ns, b[i].opts.deadline_ns);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_ns, a[i - 1].arrival_ns);
        }
        EXPECT_LT(a[i].sample_index, lg.sample_pool);
        EXPECT_EQ(a[i].opts.deadline_ns,
                  a[i].arrival_ns + lg.deadline_ns);
    }
    lg.seed = 43;
    const auto c = poissonArrivals(lg);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs |= a[i].arrival_ns != c[i].arrival_ns;
    EXPECT_TRUE(differs);
}


/** The invalid_argument message @p f throws ("" if it returns). */
template <class F>
std::string
invalidArgument(F &&f)
{
    try {
        f();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

/** The message of every arrival generator on @p lg, which must be
 *  the same for both ("" if they generate). */
std::string
generatorError(const LoadGenConfig &lg)
{
    const std::string poisson =
        invalidArgument([&] { poissonArrivals(lg); });
    EXPECT_EQ(invalidArgument([&] { burstyArrivals(lg); }), poisson);
    return poisson;
}

bool
names(const std::string &what, const char *field)
{
    return what.find(field) != std::string::npos;
}

TEST(ServeLoadGen, RateMustBePositive)
{
    LoadGenConfig lg;
    EXPECT_EQ(generatorError(lg), "");
    for (const double rate : {0.0, -5.0, std::nan("")}) {
        lg.rate_rps = rate;
        EXPECT_TRUE(names(generatorError(lg), "rate_rps")) << rate;
    }
}

TEST(ServeLoadGen, SamplePoolMustBeNonEmpty)
{
    LoadGenConfig lg;
    lg.sample_pool = 0;
    EXPECT_TRUE(names(generatorError(lg), "sample_pool"));
}

TEST(ServeLoadGen, PrioritiesMustBeAtLeastOne)
{
    LoadGenConfig lg;
    for (const int p : {0, -3}) {
        lg.priorities = p;
        EXPECT_TRUE(names(generatorError(lg), "priorities")) << p;
    }
}

TEST(ServeLoadGen, BurstPhasesMustBePositive)
{
    LoadGenConfig lg;
    lg.burst_on_ns = 0;
    EXPECT_TRUE(names(invalidArgument([&] { burstyArrivals(lg); }),
                      "burst_on_ns"));
    lg.burst_on_ns = 1000;
    lg.burst_off_ns = -1;
    EXPECT_TRUE(names(invalidArgument([&] { burstyArrivals(lg); }),
                      "burst_off_ns"));
    // Only the bursty generator reads them.
    EXPECT_EQ(invalidArgument([&] { poissonArrivals(lg); }), "");
}

// ---------------------------------------------------------------
// Config validation and API misuse: typed exceptions, never aborts.
// ---------------------------------------------------------------

/** The invalid_argument message of constructing with @p cfg ("" if
 *  it constructs). */
std::string
constructError(const ServerConfig &cfg)
{
    try {
        Server server(smallModel(), cfg);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(ServeConfig, InvalidFieldsThrowNamingTheField)
{
    const ServerConfig base = virtualConfig(2, 4, 1000);
    EXPECT_EQ(constructError(base), "");

    ServerConfig cfg = base;
    cfg.engine.replicas = -1;
    EXPECT_NE(constructError(cfg).find("engine.replicas"),
              std::string::npos);
    cfg = base;
    cfg.max_batch = 0;
    EXPECT_NE(constructError(cfg).find("max_batch"), std::string::npos);
    cfg = base;
    cfg.max_queue = 0;
    EXPECT_NE(constructError(cfg).find("max_queue"), std::string::npos);
    cfg = base;
    cfg.max_delay_ns = -1;
    EXPECT_NE(constructError(cfg).find("max_delay_ns"),
              std::string::npos);
    cfg = base;
    cfg.hot_spares = -1;
    EXPECT_NE(constructError(cfg).find("hot_spares"),
              std::string::npos);
    cfg = base;
    cfg.breaker.failure_threshold = 1;
    cfg.breaker.half_open_probes = 0;
    EXPECT_NE(constructError(cfg).find("half_open_probes"),
              std::string::npos);
    cfg.breaker.failure_threshold = 0; // breaker off: probes unused
    EXPECT_EQ(constructError(cfg), "");
    // The pool is 2 active + 1 spare: replica 2 is in, 3 and -1 out.
    cfg = base;
    cfg.hot_spares = 1;
    cfg.chaos.script.push_back({0, 2, ChaosKind::Crash, 0});
    EXPECT_EQ(constructError(cfg), "");
    cfg.chaos.script.push_back({0, 3, ChaosKind::Crash, 0});
    EXPECT_NE(constructError(cfg).find("chaos.script"),
              std::string::npos);
    cfg.chaos.script.back().replica = -1;
    EXPECT_NE(constructError(cfg).find("chaos.script"),
              std::string::npos);
}

TEST(ServeConfig, FuzzedConfigsConstructOrThrowTyped)
{
    // Seeded configs around every validated boundary: each one
    // constructs and serves every request, or throws
    // std::invalid_argument — never aborts.
    const auto samples = randomSamples(3, 16, 3, 17);
    Rng rng(2024);
    int built = 0;
    int refused = 0;
    for (int i = 0; i < 240; ++i) {
        ServerConfig cfg;
        cfg.clock = ClockMode::Virtual;
        cfg.engine.replicas = static_cast<int>(rng.range(1, 4));
        cfg.hot_spares = static_cast<int>(rng.range(-1, 2));
        cfg.max_batch = static_cast<std::size_t>(rng.range(0, 5));
        cfg.max_queue = static_cast<std::size_t>(rng.range(0, 5));
        cfg.max_delay_ns = rng.range(-2, 50'000);
        cfg.admission_shards = static_cast<int>(rng.range(-1, 4));
        cfg.max_threads = static_cast<unsigned>(rng.range(0, 3));
        cfg.retry.max_retries = static_cast<int>(rng.range(0, 2));
        cfg.breaker.failure_threshold =
            static_cast<int>(rng.range(0, 2));
        cfg.breaker.open_ns = rng.range(1, 100'000);
        cfg.breaker.half_open_probes =
            static_cast<int>(rng.range(-1, 2));
        cfg.chaos.seed = rng.next();
        cfg.chaos.crash_rate = rng.chance(0.3) ? 0.2 : 0.0;
        cfg.chaos.crash_hold_ns = 200'000;
        cfg.health.probe_delay_ns = 50'000;
        for (int k = static_cast<int>(rng.range(0, 2)); k > 0; --k)
            cfg.chaos.script.push_back(
                {rng.range(0, 100'000),
                 static_cast<int>(rng.range(-1, 6)),
                 rng.chance(0.5) ? ChaosKind::Crash : ChaosKind::Stall,
                 0});
        SCOPED_TRACE("config " + std::to_string(i));
        try {
            Server server(smallModel(), cfg);
            std::vector<std::future<Response>> futs;
            for (std::size_t k = 0; k < samples.size(); ++k)
                futs.push_back(server.submitAt(
                    static_cast<std::int64_t>(k) * 10'000,
                    samples[k]));
            server.runVirtual();
            for (auto &f : futs)
                ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                          std::future_status::ready);
            ++built;
        } catch (const std::invalid_argument &) {
            ++refused;
        }
    }
    // Both sides of the boundary are exercised.
    EXPECT_GT(built, 20);
    EXPECT_GT(refused, 20);
}

TEST(ServeApi, MisuseThrowsTypedExceptions)
{
    ServerConfig cfg;
    cfg.engine.replicas = 1;
    cfg.clock = ClockMode::Real;
    Server real(smallModel(), cfg);
    const auto samples = randomSamples(1, 16, 3, 18);
    EXPECT_THROW(real.submitAt(0, samples[0]), std::logic_error);
    EXPECT_THROW(real.runVirtual(), std::logic_error);
    EXPECT_THROW(real.replicaState(-1), std::out_of_range);
    EXPECT_THROW(real.replicaState(1), std::out_of_range);
    EXPECT_EQ(real.replicaState(0), ReplicaState::Active);
    // The server still serves after the refused calls.
    EXPECT_TRUE(real.submit(samples[0]).get().ok());
}

} // namespace
} // namespace sushi::serve
