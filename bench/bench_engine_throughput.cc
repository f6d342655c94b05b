/**
 * @file
 * Batched multi-chip inference throughput: samples/sec vs replica
 * count on the synth-digits workload, plus the engine's determinism
 * contract (byte-identical merged stats across thread counts).
 *
 * Two throughput figures are recorded per replica count:
 *  - modelled system throughput: the replicas are physically
 *    independent chips, so batch latency is the slowest replica's
 *    modelled chip time (EngineRun::modeledMakespanPs). This is the
 *    "as fast as the hardware allows" number and scales with the
 *    replica count regardless of the simulation host.
 *  - host throughput: wall-clock samples/sec of the simulation
 *    itself, which scales with the host's core count.
 *
 * Environment:
 *   SUSHI_JSON_OUT  output path (default BENCH_engine.json)
 *   SUSHI_FULL=1    more samples (slower)
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/kernel_isa.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "data/synth_digits.hh"
#include "engine/inference_engine.hh"
#include "snn/binarize.hh"

#include "bench_util.hh"

using namespace sushi;

int
main()
{
    const std::size_t samples_n =
        benchutil::envFlag("SUSHI_FULL") ? 1024 : 256;
    const int t_steps = 5;

    // The workload: synth-digits images through a binarized MLP on
    // the 16x16-mesh chip. Throughput is weight-independent, so the
    // network is binarized from a fresh (untrained) float model.
    auto data = data::synthDigits(samples_n, 42);
    snn::SnnConfig net_cfg;
    net_cfg.hidden = 96;
    net_cfg.t_steps = t_steps;
    net_cfg.stateless = true;
    snn::SnnMlp mlp(net_cfg, 7);
    auto bin = snn::BinarySnn::fromFloat(mlp);

    compiler::ChipConfig chip_cfg;
    chip_cfg.n = 16;
    chip_cfg.sc_per_npe = 10;

    // Compiled once, shared by every replica of every engine below.
    auto model = engine::ModelCache::shared().get(bin, chip_cfg);
    const auto samples =
        engine::encodeSamples(data.images, t_steps, 99);

    std::printf("=== Batched multi-chip inference throughput ===\n");
    std::printf("%zu synth-digit samples, %d time steps, %d-wide "
                "mesh, %u host workers\n",
                samples.size(), t_steps, chip_cfg.n,
                parallelWorkers());
    std::printf("%-9s %14s %16s %14s %16s\n", "replicas",
                "host smp/s", "host speedup", "chip smp/s",
                "chip speedup");

    struct Point
    {
        int replicas;
        double host_sps;
        double chip_sps;
    };
    std::vector<Point> points;
    double host_base = 0.0;
    double chip_base = 0.0;
    std::vector<int> prev_counts;
    bool results_stable = true;
    for (int replicas : {1, 2, 4, 8}) {
        engine::EngineConfig ecfg;
        ecfg.replicas = replicas;
        engine::InferenceEngine eng(model, ecfg);
        const auto run = eng.run(samples);

        const double host_sps =
            static_cast<double>(samples.size()) /
            (run.wall_seconds > 0 ? run.wall_seconds : 1e-9);
        const double makespan_s = run.modeledMakespanPs() * 1e-12;
        const double chip_sps =
            static_cast<double>(samples.size()) /
            (makespan_s > 0 ? makespan_s : 1e-30);
        if (host_base == 0.0) {
            host_base = host_sps;
            chip_base = chip_sps;
        }
        points.push_back({replicas, host_sps, chip_sps});
        std::printf("%-9d %14.1f %15.2fx %14.3g %15.2fx\n", replicas,
                    host_sps, host_sps / host_base, chip_sps,
                    chip_sps / chip_base);

        // Every replica count must produce identical per-sample
        // results.
        std::vector<int> flat;
        for (const auto &s : run.samples)
            flat.insert(flat.end(), s.counts.begin(),
                        s.counts.end());
        if (prev_counts.empty())
            prev_counts = std::move(flat);
        else if (flat != prev_counts)
            results_stable = false;
    }

    // Determinism: byte-identical merged stats across thread counts
    // at a fixed replica count.
    std::string digest;
    bool deterministic = true;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        engine::EngineConfig ecfg;
        ecfg.replicas = 8;
        ecfg.max_threads = threads;
        engine::InferenceEngine eng(model, ecfg);
        const auto run = eng.run(samples);
        const std::string json = engine::statsJson(run.merged);
        if (digest.empty())
            digest = json;
        else if (json != digest)
            deterministic = false;
    }
    std::printf("merged stats byte-identical across thread counts: "
                "%s\n",
                deterministic ? "yes" : "NO");
    std::printf("per-sample results identical across replica "
                "counts: %s\n",
                results_stable ? "yes" : "NO");

    const double chip_speedup_8 = points.back().chip_sps / chip_base;
    const double host_speedup_8 = points.back().host_sps / host_base;
    std::printf("8-replica speedup: %.2fx modelled chip throughput, "
                "%.2fx host wall-clock\n",
                chip_speedup_8, host_speedup_8);

    JsonWriter w;
    w.field("workload", "synth_digits");
    w.field("kernel_isa", kernelIsa());
    w.field("samples", std::uint64_t{samples_n});
    w.field("t_steps", t_steps);
    w.field("mesh", chip_cfg.n);
    w.field("host_workers", static_cast<int>(parallelWorkers()));
    w.field("deterministic_across_threads", deterministic);
    w.field("results_stable_across_replicas", results_stable);
    w.beginArray("samples_per_sec");
    for (const Point &p : points) {
        w.beginObject();
        w.field("replicas", p.replicas);
        w.field("samples_per_sec", p.chip_sps);
        w.field("speedup", p.chip_sps / chip_base);
        w.field("host_samples_per_sec", p.host_sps);
        w.field("host_speedup", p.host_sps / host_base);
        w.endObject();
    }
    w.endArray();
    w.field("speedup_at_8_replicas", chip_speedup_8);
    w.field("host_speedup_at_8_replicas", host_speedup_8);
    w.rawField("merged_stats", digest);
    const std::string json = w.finish();

    const char *env_path = std::getenv("SUSHI_JSON_OUT");
    const std::string path =
        env_path != nullptr && env_path[0] != '\0'
            ? env_path
            : "BENCH_engine.json";
    if (!JsonWriter::writeFile(path, json)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf("JSON written to %s\n", path.c_str());

    const bool ok =
        deterministic && results_stable && chip_speedup_8 >= 3.0;
    return ok ? 0 : 1;
}
