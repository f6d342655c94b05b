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
#include <string>

#include "chip/gate_sim.hh"
#include "common/stats.hh"
#include "npe/npe.hh"
#include "sfq/constraints.hh"
#include "sfq/event_queue.hh"
#include "sfq/netlist.hh"
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

    return checksum_ok && speedup >= 2.0 ? 0 : 1;
}
