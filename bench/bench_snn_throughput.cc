/**
 * @file
 * Binarized FC forward throughput: packed XNOR/popcount kernel vs
 * the element-wise scalar oracle on the paper's layer geometry
 * (784 -> 800, Sec. 6) across a serving batch.
 *
 * The batch-major packed kernel fetches each packed weight row once
 * and streams it over the whole batch, so the headline number is
 * synaptic ops/sec (batch * out_dim * in_dim per pass). Correctness
 * is asserted bit-exactly before any number is reported — packed
 * spikes must equal both the scalar-oracle spikes and an independent
 * int8 reference — so a fast but wrong kernel fails instead of
 * "winning". A dense float linearForward pass over the XNOR-Net
 * effective weights is timed alongside as context (the path the
 * binarization-aware trainer used before the packed kernels).
 *
 * Environment:
 *   SUSHI_JSON_OUT  output path (default BENCH_snn.json)
 *   SUSHI_FULL=1    more repetitions (slower, steadier numbers)
 *
 * Exit status is nonzero when any kernel disagrees or the packed
 * kernel's speedup over the scalar oracle regresses below the 100x
 * acceptance floor (single-threaded, so the floor is a property of
 * the kernel, not of the runner's core count). The popcount wrapper
 * is picked by CPU at run time and recorded as "kernel_isa"; with
 * POPCNT the kernel measured 263-353x on a 4-core x86-64 host, and
 * the portable fallback ~155x.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/kernel_isa.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "snn/packed.hh"
#include "snn/tensor.hh"

#include "bench_util.hh"

using namespace sushi;
using snn::packed::Backend;
using snn::packed::PackedActivations;
using snn::packed::PackedLayer;

namespace {

/** Paper Sec. 6 hidden layer: INPUT 28*28 -> FC(800). */
constexpr std::size_t kInDim = 784;
constexpr std::size_t kOutDim = 800;
constexpr std::size_t kBatch = 256;

/** The packed kernel must beat the scalar oracle by at least this
 *  factor on the workload above (enforced via exit status). */
constexpr double kSpeedupFloor = 100.0;

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    const int reps = benchutil::envFlag("SUSHI_FULL") ? 30 : 8;
    const double synops = static_cast<double>(kInDim) *
                          static_cast<double>(kOutDim) *
                          static_cast<double>(kBatch);

    // Deterministic workload: random {-1,+1} weights, thresholds,
    // and a 30%-dense binary activation batch.
    Rng rng(20260809);
    std::vector<std::vector<std::int8_t>> weights(kOutDim);
    std::vector<int> thresholds(kOutDim);
    for (std::size_t o = 0; o < kOutDim; ++o) {
        weights[o].resize(kInDim);
        for (auto &w : weights[o])
            w = rng.chance(0.5) ? 1 : -1;
        thresholds[o] = static_cast<int>(rng.range(-30, 30));
    }
    const PackedLayer layer =
        PackedLayer::fromSigned(weights, thresholds);
    if (!layer.packable()) {
        std::fprintf(stderr, "workload failed to pack\n");
        return 1;
    }

    std::vector<std::vector<std::uint8_t>> act(kBatch);
    std::vector<const std::uint8_t *> rows(kBatch);
    for (std::size_t b = 0; b < kBatch; ++b) {
        act[b].resize(kInDim);
        for (auto &v : act[b])
            v = rng.chance(0.3) ? 1 : 0;
        rows[b] = act[b].data();
    }
    PackedActivations x;
    snn::packed::packRows(rows.data(), kBatch, kInDim, x);

    // Independent int8 reference, computed once.
    std::vector<std::uint8_t> want(kBatch * kOutDim);
    for (std::size_t b = 0; b < kBatch; ++b) {
        for (std::size_t o = 0; o < kOutDim; ++o) {
            int dot = 0;
            for (std::size_t i = 0; i < kInDim; ++i)
                if (act[b][i])
                    dot += weights[o][i];
            want[b * kOutDim + o] = dot >= thresholds[o] ? 1 : 0;
        }
    }

    std::printf("=== Binarized FC forward (%zu -> %zu, batch %zu) "
                "===\n",
                kInDim, kOutDim, kBatch);
    std::printf("%.3g synaptic ops/pass, best of %d repetitions\n",
                synops, reps);

    std::vector<std::uint8_t> spikes(kBatch * kOutDim);
    bool correct = true;

    auto timeKernel = [&](Backend backend, int threads) {
        double best = 1e300;
        for (int r = 0; r < reps; ++r) {
            std::memset(spikes.data(), 0, spikes.size());
            const auto t0 = std::chrono::steady_clock::now();
            snn::packed::spikeForward(layer, x, spikes.data(),
                                      backend, threads);
            const auto t1 = std::chrono::steady_clock::now();
            best = std::min(best, seconds(t0, t1));
            correct &= spikes == want;
        }
        return synops / best;
    };

    const double scalar_ops = timeKernel(Backend::Scalar, 1);
    const double packed_ops = timeKernel(Backend::Packed, 1);
    const double packed_mt_ops = timeKernel(Backend::Packed, 0);

    // Dense float context: the effective-weight linearForward pass
    // (bias + alpha * sign(w) accumulated in float).
    snn::Tensor eff(kOutDim, kInDim);
    std::vector<float> bias(kOutDim, 0.0f);
    for (std::size_t o = 0; o < kOutDim; ++o)
        for (std::size_t i = 0; i < kInDim; ++i)
            eff.at(o, i) = weights[o][i] > 0 ? 0.5f : -0.5f;
    snn::Tensor xf(kBatch, kInDim), hf(kBatch, kOutDim);
    for (std::size_t b = 0; b < kBatch; ++b)
        for (std::size_t i = 0; i < kInDim; ++i)
            xf.at(b, i) = act[b][i] ? 1.0f : 0.0f;
    double float_best = 1e300;
    double float_sink = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        snn::linearForward(xf, eff, bias, hf);
        const auto t1 = std::chrono::steady_clock::now();
        float_best = std::min(float_best, seconds(t0, t1));
        float_sink += hf.at(0, 0);
    }
    const double float_ops = synops / float_best;

    const double speedup = packed_ops / scalar_ops;
    const double speedup_vs_float = packed_ops / float_ops;
    const unsigned hw = std::thread::hardware_concurrency();

    std::printf("scalar oracle : %10.3g synops/sec\n", scalar_ops);
    std::printf("dense float   : %10.3g synops/sec (sink %g)\n",
                float_ops, float_sink);
    std::printf("packed (1t)   : %10.3g synops/sec\n", packed_ops);
    std::printf("packed (pool) : %10.3g synops/sec (%u hw threads)\n",
                packed_mt_ops, hw);
    std::printf("spikes %s; packed vs scalar: %.1fx (floor %.0fx), "
                "vs dense float: %.1fx\n",
                correct ? "bit-exact" : "MISMATCH", speedup,
                kSpeedupFloor, speedup_vs_float);

    std::printf("kernel ISA    : %s\n", kernelIsa());

    JsonWriter w;
    w.field("workload", "binarized_fc_forward");
    w.field("kernel_isa", kernelIsa());
    w.field("in_dim", static_cast<std::uint64_t>(kInDim));
    w.field("out_dim", static_cast<std::uint64_t>(kOutDim));
    w.field("batch", static_cast<std::uint64_t>(kBatch));
    w.field("reps", reps);
    w.field("synops_per_pass", synops);
    w.field("spikes_ok", correct);
    w.field("scalar_synops_per_sec", scalar_ops);
    w.field("float_synops_per_sec", float_ops);
    w.field("packed_synops_per_sec", packed_ops);
    w.field("packed_pool_synops_per_sec", packed_mt_ops);
    w.field("hardware_concurrency", static_cast<std::uint64_t>(hw));
    w.field("speedup_packed_vs_scalar", speedup);
    w.field("speedup_packed_vs_float", speedup_vs_float);
    w.field("speedup_floor", kSpeedupFloor);
    w.field("floor_enforced", true);
    const std::string json = w.finish();

    const char *env_path = std::getenv("SUSHI_JSON_OUT");
    const std::string path =
        env_path != nullptr && env_path[0] != '\0' ? env_path
                                                   : "BENCH_snn.json";
    if (!JsonWriter::writeFile(path, json)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf("JSON written to %s\n", path.c_str());

    return correct && speedup >= kSpeedupFloor ? 0 : 1;
}
