/**
 * @file
 * Event-kernel throughput on the gate-level NPE workload.
 *
 * Measures events/sec of the compiled simulation core on the same
 * workload the fault campaign uses — 20k input pulses through a
 * 10-SC gate-level NPE counter — plus a queue-only microbench of the
 * calendar event queue, plus the time to build (lower and compile) a
 * 16x16 gate-level GateChip mesh. Correctness is asserted pulse-exactly
 * against the behavioural counter before any number is reported, so a
 * fast but wrong kernel fails instead of "winning".
 *
 * Environment:
 *   SUSHI_JSON_OUT  output path (default BENCH_sim.json)
 *   SUSHI_FULL=1    more repetitions (slower, steadier numbers)
 *
 * Exit status is nonzero when the workload result is wrong or the
 * measured throughput regresses below the 2x speedup floor over the
 * pre-compiled-core kernel.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chip/gate_sim.hh"
#include "common/stats.hh"
#include "npe/npe.hh"
#include "sfq/constraints.hh"
#include "sfq/event_queue.hh"
#include "sfq/netlist.hh"
#include "sfq/parallel_simulator.hh"
#include "sfq/simulator.hh"

#include "bench_util.hh"

using namespace sushi;

namespace {

/**
 * Seed-kernel baseline on this workload: the virtual-dispatch
 * simulator (std::function events in a std::priority_queue, commit
 * 307b40c) executes the same 339,747-event NPE run at ~7.46e6
 * events/sec on the reference container (-O2). The speedup below is
 * relative to this constant so the 2x acceptance floor of the
 * compiled-core refactor stays visible run over run.
 */
constexpr double kSeedEventsPerSec = 7.46e6;

/** Pulses injected into the gate-level counter per repetition. */
constexpr int kPulses = 20000;
constexpr int kNumSc = 10;

struct RunResult
{
    double seconds = 0.0;
    std::uint64_t events = 0;
    std::uint64_t checksum = 0;
};

/** One full fresh-simulator repetition of the NPE workload. */
RunResult
runNpeWorkload()
{
    const auto t0 = std::chrono::steady_clock::now();
    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
    sfq::Netlist net(sim);
    npe::NpeGate gate(net, "npe", kNumSc);
    const Tick gap = sfq::safePulseSpacing();
    gate.injectSet1(gap);
    for (int i = 0; i < kPulses; ++i)
        gate.injectIn((i + 2) * gap);
    sim.run();
    const auto t1 = std::chrono::steady_clock::now();

    RunResult r;
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.events = sim.eventsExecuted();
    r.checksum = gate.value() + gate.outSink().count();
    return r;
}

/** Independent NPE counters in one netlist for the thread sweep:
 *  enough decoupled work that the partitioner gives every lane its
 *  own gates and the windows never exchange pulses — the scaling
 *  ceiling of the conservative-sync design. */
constexpr int kFleetGates = 8;

struct SweepResult
{
    double seconds = 0.0;
    std::uint64_t events = 0;
    bool checksum_ok = false;
    bool parallel = false;
};

/** One fresh repetition of the fleet workload on @p threads lanes.
 *  Every gate receives the identical pulse stream, so each must
 *  reproduce @p want_checksum exactly. */
SweepResult
runFleetWorkload(int threads, std::uint64_t want_checksum)
{
    const auto t0 = std::chrono::steady_clock::now();
    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
    sfq::Netlist net(sim);
    std::vector<std::unique_ptr<npe::NpeGate>> gates;
    for (int g = 0; g < kFleetGates; ++g)
        gates.push_back(std::make_unique<npe::NpeGate>(
            net, "npe" + std::to_string(g), kNumSc));
    const Tick gap = sfq::safePulseSpacing();
    for (auto &gate : gates) {
        gate->injectSet1(gap);
        for (int i = 0; i < kPulses; ++i)
            gate->injectIn((i + 2) * gap);
    }

    SweepResult r;
    if (threads <= 1) {
        sim.run();
    } else {
        sfq::ParallelSimulator::Options opts;
        opts.threads = threads;
        sfq::ParallelSimulator psim(sim, opts);
        psim.run();
        r.parallel = psim.lastRunParallel();
    }
    const auto t1 = std::chrono::steady_clock::now();

    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.events = sim.eventsExecuted();
    r.checksum_ok = true;
    for (auto &gate : gates)
        r.checksum_ok &=
            gate->value() + gate->outSink().count() == want_checksum;
    return r;
}

/** Queue-only microbench: push/pop POD events, no cell execution. */
double
queueEventsPerSec(int rounds)
{
    sfq::EventQueue q;
    std::uint64_t ops = 0;
    const auto t0 = std::chrono::steady_clock::now();
    sfq::EventQueue::Event ev{};
    for (int r = 0; r < rounds; ++r) {
        for (int i = 0; i < 10000; ++i)
            q.push((i * 7) % 997 + r, i, 0);
        while (q.popNext(kTickNever, ev))
            ++ops;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(ops) / (s > 0 ? s : 1e-9);
}

/** Best-of-@p reps wall time, in microseconds, to build a fresh
 *  16x16 GateChip (the gate_cosim mesh) into a new simulator. */
double
meshBuildUs(int reps, std::size_t &cells)
{
    compiler::ChipConfig cfg;
    cfg.n = 16;
    cfg.sc_per_npe = 5;
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        sfq::Simulator sim;
        sfq::Netlist net(sim);
        chip::GateChip chip(net, cfg);
        const auto t1 = std::chrono::steady_clock::now();
        const double us =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        if (r == 0 || us < best)
            best = us;
        cells = net.numComponents();
    }
    return best;
}

} // namespace

int
main()
{
    const int reps = benchutil::envFlag("SUSHI_FULL") ? 15 : 5;

    // Pulse-exact reference: the behavioural counter on the same
    // pulse stream.
    npe::Npe ideal(kNumSc);
    ideal.setPolarity(npe::Polarity::Excitatory);
    const std::uint64_t ideal_spikes =
        ideal.addPulses(static_cast<std::uint64_t>(kPulses));
    const std::uint64_t want_checksum =
        ideal.value() + ideal_spikes;

    std::printf("=== Event-kernel throughput (gate-level NPE) ===\n");
    std::printf("%d pulses, %d SCs, best of %d repetitions\n",
                kPulses, kNumSc, reps);

    RunResult best{};
    bool checksum_ok = true;
    for (int r = 0; r < reps; ++r) {
        const RunResult run = runNpeWorkload();
        checksum_ok &= run.checksum == want_checksum;
        if (best.events == 0 || run.seconds < best.seconds)
            best = run;
        std::printf("  rep %d: %9.0f events/sec (%llu events)\n",
                    r,
                    static_cast<double>(run.events) / run.seconds,
                    static_cast<unsigned long long>(run.events));
    }

    const double eps =
        static_cast<double>(best.events) / best.seconds;
    const double speedup = eps / kSeedEventsPerSec;
    const double queue_eps = queueEventsPerSec(reps * 20);
    std::size_t mesh_cells = 0;
    const double mesh_us = meshBuildUs(reps * 4, mesh_cells);

    std::printf("workload checksum: %llu (want %llu) %s\n",
                static_cast<unsigned long long>(best.checksum),
                static_cast<unsigned long long>(want_checksum),
                checksum_ok ? "ok" : "MISMATCH");
    std::printf("best: %.3g events/sec, %.2fx over seed kernel "
                "(%.3g ev/s)\n",
                eps, speedup, kSeedEventsPerSec);
    std::printf("queue-only: %.3g events/sec\n", queue_eps);
    std::printf("16x16 mesh build: %.0f us (%zu cells)\n", mesh_us,
                mesh_cells);

    // Thread sweep on the partitioned simulator: 8 independent NPE
    // counters in one netlist. The 2x floor at 8 threads is only
    // meaningful with real cores underneath; single-core runners
    // still check correctness at every thread count.
    const unsigned hw = std::thread::hardware_concurrency();
    const bool enforce_floor = hw >= 4;
    const int sweep_reps = benchutil::envFlag("SUSHI_FULL") ? 5 : 3;
    std::printf("=== Partitioned thread sweep (%d NPE gates, "
                "%u hw threads) ===\n",
                kFleetGates, hw);
    struct SweepPoint
    {
        int threads;
        double eps;
        bool checksum_ok;
        bool parallel;
        std::uint64_t events;
    };
    std::vector<SweepPoint> sweep;
    bool sweep_checksums_ok = true;
    for (int threads : {1, 2, 4, 8}) {
        SweepResult sbest{};
        bool ok = true;
        for (int r = 0; r < sweep_reps; ++r) {
            const SweepResult run =
                runFleetWorkload(threads, want_checksum);
            ok &= run.checksum_ok;
            if (sbest.events == 0 || run.seconds < sbest.seconds)
                sbest = run;
        }
        const double teps =
            static_cast<double>(sbest.events) / sbest.seconds;
        sweep.push_back(
            {threads, teps, ok, sbest.parallel, sbest.events});
        sweep_checksums_ok &= ok;
        std::printf("  %d threads: %9.3g events/sec%s %s\n", threads,
                    teps, sbest.parallel ? " (parallel)" : "",
                    ok ? "" : "CHECKSUM MISMATCH");
    }
    const double sweep_scaling =
        sweep.back().eps / sweep.front().eps;
    const bool sweep_ok =
        sweep_checksums_ok &&
        (!enforce_floor || sweep_scaling >= 2.0);
    std::printf("8-thread scaling: %.2fx over 1 thread (floor %s)\n",
                sweep_scaling,
                enforce_floor ? "enforced: >= 2.0x" : "advisory");

    JsonWriter w;
    w.field("workload", "npe_gate_counter");
    w.field("pulses", kPulses);
    w.field("num_sc", kNumSc);
    w.field("reps", reps);
    w.field("events_per_run", best.events);
    w.field("checksum", best.checksum);
    w.field("checksum_ok", checksum_ok);
    w.field("events_per_sec", eps);
    w.field("seed_events_per_sec", kSeedEventsPerSec);
    w.field("speedup_vs_seed", speedup);
    w.field("queue_events_per_sec", queue_eps);
    w.field("mesh_build_us", mesh_us);
    w.field("mesh_cells", static_cast<std::uint64_t>(mesh_cells));
    w.field("sweep_gates", kFleetGates);
    w.field("sweep_reps", sweep_reps);
    w.field("hardware_concurrency", static_cast<std::uint64_t>(hw));
    w.field("sweep_floor_enforced", enforce_floor);
    w.field("sweep_scaling_8t", sweep_scaling);
    w.beginArray("sweep");
    for (const SweepPoint &p : sweep) {
        w.beginObject();
        w.field("threads", p.threads);
        w.field("events_per_sec", p.eps);
        w.field("events_per_run", p.events);
        w.field("checksum_ok", p.checksum_ok);
        w.field("ran_parallel", p.parallel);
        w.endObject();
    }
    w.endArray();
    const std::string json = w.finish();

    const char *env_path = std::getenv("SUSHI_JSON_OUT");
    const std::string path =
        env_path != nullptr && env_path[0] != '\0'
            ? env_path
            : "BENCH_sim.json";
    if (!JsonWriter::writeFile(path, json)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf("JSON written to %s\n", path.c_str());

    return checksum_ok && speedup >= 2.0 && sweep_ok ? 0 : 1;
}
