/**
 * @file
 * Front-door submit throughput of the sharded admission path: a
 * closed-loop multi-threaded hammer drives submit() against a server
 * whose queue is pinned at the admission bound, so every timed call
 * is PURE front-end work — shard lock, shed scan, bound check, typed
 * rejection — with no batch execution behind it.
 *
 * The sweep compares the sharded default (admission_shards = 0, one
 * shard per replica) against the single-lock S=1 baseline under an
 * 8-thread hammer and exit-code-enforces a >= 3x throughput floor.
 * The speedup has two sources, and which dominates depends on the
 * host: on many-core machines the shard locks admit in parallel; on
 * few-core machines (including single-core CI containers) the win
 * is that the serialized critical section is S times smaller — the
 * per-submit expired-entry scan walks one shard's slots, not the
 * whole queue, and uncontended shard locks skip the futex round
 * trips the single hot lock pays for.
 *
 * The determinism half of the sharded front-end's contract (metrics
 * byte-identical across shard counts) is a ctest:
 * ServeFrontend.MetricsByteIdenticalWithResilienceAndChaos.
 *
 * Environment:
 *   SUSHI_JSON_OUT  output path (default BENCH_frontend.json)
 *   SUSHI_FULL=1    more submits per thread (slower, less noisy)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "serve/server.hh"

#include "bench_util.hh"
#include "test_util.hh"

using namespace sushi;

namespace {

constexpr double kSpeedupFloor = 3.0;

/**
 * One hammer run: fill the queue to the admission bound (the batcher
 * is configured so it can never flush during the run — max_batch
 * above max_queue, effectively infinite delay knob), then time
 * `threads` x `per_thread` submit() calls that all reject QueueFull
 * at the front door.
 */
double
hammerRps(const std::shared_ptr<const engine::CompiledModel> &model,
          int shards, int threads, std::size_t per_thread,
          const std::vector<engine::Sample> &samples)
{
    serve::ServerConfig cfg;
    cfg.engine.replicas = 8; // default shard count = 8
    cfg.admission_shards = shards;
    cfg.max_queue = 2048;
    cfg.max_batch = cfg.max_queue * 4; // no size flush mid-hammer
    cfg.max_delay_ns = INT64_MAX / 2;  // no delay flush mid-hammer
    cfg.clock = serve::ClockMode::Real;
    serve::Server server(model, cfg);

    for (std::size_t i = 0; i < cfg.max_queue; ++i)
        server.submit(samples[i % samples.size()]);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> hammers;
    hammers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        hammers.emplace_back([&, t] {
            for (std::size_t k = 0; k < per_thread; ++k) {
                serve::RequestOptions opts;
                opts.priority = static_cast<int>(k % 3);
                // The future is already resolved (typed rejection);
                // dropping it is the closed-loop steady state.
                server.submit(
                    samples[(static_cast<std::size_t>(t) + k) %
                            samples.size()],
                    opts);
            }
        });
    for (std::thread &h : hammers)
        h.join();
    const auto t1 = std::chrono::steady_clock::now();
    server.shutdown();

    const double secs =
        std::chrono::duration<double>(t1 - t0).count();
    const double total =
        static_cast<double>(threads) *
        static_cast<double>(per_thread);
    return secs > 0.0 ? total / secs : 0.0;
}

/** Best of @p values (0 if empty). */
double
best(const std::vector<double> &values)
{
    double b = 0.0;
    for (double v : values)
        if (v > b)
            b = v;
    return b;
}

} // namespace

int
main()
{
    const bool full = benchutil::envFlag("SUSHI_FULL");
    const int threads = 8;
    const std::size_t per_thread = full ? 20'000 : 4'000;
    const int trials = 3;

    compiler::ChipConfig chip;
    chip.n = 8;
    chip.sc_per_npe = 10;
    auto model = engine::CompiledModel::compile(
        testutil::tinyNet(16, 8, 4, 3, 7), chip);
    const auto samples = testutil::randomSamples(8, 16, 3, 5);

    std::printf("=== Sharded front-end submit throughput ===\n");
    std::printf("%d submit threads x %zu calls, queue pinned at the "
                "admission bound, best of %d interleaved trials\n",
                threads, per_thread, trials);

    // Single-lock and sharded trials alternate, so a slow spell of
    // the host hits both sides rather than one; each side keeps its
    // best trial.
    std::vector<double> s1_trials;
    std::vector<double> sharded_trials;
    for (int i = 0; i < trials; ++i) {
        s1_trials.push_back(
            hammerRps(model, 1, threads, per_thread, samples));
        sharded_trials.push_back(
            hammerRps(model, 0, threads, per_thread, samples));
    }
    const double s1_rps = best(s1_trials);
    const double sharded_rps = best(sharded_trials);
    const double speedup =
        s1_rps > 0.0 ? sharded_rps / s1_rps : 0.0;

    std::printf("%-24s %14.0f submits/s\n", "single lock (S=1)",
                s1_rps);
    std::printf("%-24s %14.0f submits/s\n", "sharded (S=8, default)",
                sharded_rps);
    std::printf("speedup %.2fx (floor %.1fx): %s\n", speedup,
                kSpeedupFloor,
                speedup >= kSpeedupFloor ? "pass" : "FAIL");

    JsonWriter w;
    w.field("threads", threads);
    w.field("per_thread_submits", std::uint64_t{per_thread});
    w.field("trials", trials);
    w.field("max_queue", std::uint64_t{2048});
    w.field("single_lock_rps", s1_rps);
    w.field("sharded_rps", sharded_rps);
    w.field("speedup", speedup);
    w.field("speedup_floor", kSpeedupFloor);
    w.field("speedup_ok", speedup >= kSpeedupFloor);
    w.beginArray("single_lock_trials_rps");
    for (double rps : s1_trials) {
        w.beginObject();
        w.field("rps", rps);
        w.endObject();
    }
    w.endArray();
    w.beginArray("sharded_trials_rps");
    for (double rps : sharded_trials) {
        w.beginObject();
        w.field("rps", rps);
        w.endObject();
    }
    w.endArray();
    const std::string json = w.finish();

    const char *env_path = std::getenv("SUSHI_JSON_OUT");
    const std::string path =
        env_path != nullptr && env_path[0] != '\0'
            ? env_path
            : "BENCH_frontend.json";
    if (!JsonWriter::writeFile(path, json)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf("JSON written to %s\n", path.c_str());

    return speedup >= kSpeedupFloor ? 0 : 1;
}
