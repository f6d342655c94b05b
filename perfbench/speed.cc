/**
 * @file
 * Host-speed calibration kernel (see HostSpeed in bench.hh).
 */

#include <cstdint>

#include "bench.hh"

namespace perfbench {

namespace {

/** Rounds of the kernel: ~0.57 ms at the reference speed. */
constexpr int kRounds = 10;
constexpr int kVectorsPerRound = 400;

/** Keeps the kernel's result alive. */
volatile std::uint64_t g_sink = 0;

} // namespace

double
HostSpeed::sample()
{
    const auto t0 = Clock::now();
    std::vector<std::vector<std::uint32_t>> v;
    std::uint64_t x = 5, sum = 0;
    for (int r = 0; r < kRounds; ++r) {
        v.clear();
        for (int i = 0; i < kVectorsPerRound; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            v.emplace_back(16 + (x >> 58) * 8,
                           static_cast<std::uint32_t>(x >> 32));
        }
        for (const auto &a : v)
            for (const std::uint32_t b : a)
                sum += b;
    }
    g_sink = sum;
    return since(t0);
}

std::vector<double>
HostSpeed::blockScales(const std::vector<double> &samples)
{
    std::vector<double> out;
    for (std::size_t b = 0; b + 1 < samples.size(); ++b) {
        const std::size_t lo = b == 0 ? 0 : b - 1;
        const std::size_t hi = std::min(b + 3, samples.size());
        const std::vector<double> near(samples.begin() + lo,
                                       samples.begin() + hi);
        out.push_back(kReferenceKernelS / median(near));
    }
    return out;
}

} // namespace perfbench
