/**
 * @file
 * Seeded fixtures shared by the test binaries and
 * bench_frontend_throughput: small binarized nets, random binary
 * layers and input samples, the synth-digits engine workload, and the
 * FNV-1a hash the byte-identity pins record. The header includes no
 * gtest. A binary that calls digitsWorkload() links sushi_engine and
 * sushi_data.
 */

#ifndef SUSHI_TESTS_TEST_UTIL_HH
#define SUSHI_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "data/synth_digits.hh"
#include "engine/inference_engine.hh"
#include "snn/binarize.hh"
#include "snn/network.hh"

namespace sushi::testutil {

/** A stateless input-hidden-output MLP binarized from seed @p seed. */
inline snn::BinarySnn
tinyNet(std::size_t input, std::size_t hidden, std::size_t output,
        int t_steps, std::uint64_t seed)
{
    snn::SnnConfig cfg;
    cfg.input = input;
    cfg.hidden = hidden;
    cfg.output = output;
    cfg.t_steps = t_steps;
    cfg.stateless = true;
    snn::SnnMlp mlp(cfg, seed);
    return snn::BinarySnn::fromFloat(mlp);
}

/** @p n samples of @p t_steps frames of @p dim inputs, each firing
 *  with probability 0.4. */
inline std::vector<engine::Sample>
randomSamples(std::size_t n, std::size_t dim, int t_steps,
              std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<engine::Sample> samples(n);
    for (auto &s : samples) {
        for (int t = 0; t < t_steps; ++t) {
            std::vector<std::uint8_t> f(dim);
            for (auto &v : f)
                v = rng.chance(0.4) ? 1 : 0;
            s.push_back(std::move(f));
        }
    }
    return samples;
}

/** A dense binary layer: each weight is -1 with probability
 *  @p neg_fraction, each threshold uniform in [theta_lo, theta_hi]. */
inline snn::BinaryLayer
randomLayer(int in_dim, int out_dim, double neg_fraction, int theta_lo,
            int theta_hi, std::uint64_t seed)
{
    Rng rng(seed);
    snn::BinaryLayer layer;
    layer.weights.resize(static_cast<std::size_t>(out_dim));
    layer.thresholds.resize(static_cast<std::size_t>(out_dim));
    for (int o = 0; o < out_dim; ++o) {
        auto &row = layer.weights[static_cast<std::size_t>(o)];
        row.resize(static_cast<std::size_t>(in_dim));
        for (int i = 0; i < in_dim; ++i)
            row[static_cast<std::size_t>(i)] =
                rng.chance(neg_fraction) ? -1 : 1;
        layer.thresholds[static_cast<std::size_t>(o)] =
            static_cast<int>(rng.range(theta_lo, theta_hi));
    }
    return layer;
}

/** Balanced weights, thresholds in [1, theta_hi]. */
inline snn::BinaryLayer
randomLayer(int in_dim, int out_dim, int theta_hi, std::uint64_t seed)
{
    return randomLayer(in_dim, out_dim, 0.5, 1, theta_hi, seed);
}

/** A compiled model and its encoded input samples. */
struct DigitsWorkload
{
    std::shared_ptr<const engine::CompiledModel> model;
    std::vector<engine::Sample> samples;
};

/** @p n synth digits (seed 42) encoded over 5 steps (seed 99) for an
 *  untrained 784-96-10 net (seed 7) on the 16x16 chip: the engine,
 *  serving and chaos workload. */
inline DigitsWorkload
digitsWorkload(std::size_t n)
{
    compiler::ChipConfig chip;
    chip.n = 16;
    chip.sc_per_npe = 10;
    return {engine::CompiledModel::compile(tinyNet(784, 96, 10, 5, 7),
                                           chip),
            engine::encodeSamples(data::synthDigits(n, 42).images, 5,
                                  99)};
}

/** FNV-1a 64 of @p s: the hash the byte-identity pins record. */
inline std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace sushi::testutil

#endif // SUSHI_TESTS_TEST_UTIL_HH
