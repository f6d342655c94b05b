/**
 * @file
 * Private to snn/packed and its tests: the CPU-dispatched wrappers of
 * the XNOR dot's popcount loops (see common/kernel_isa.hh), one row
 * against one sample (PackedLayer::dot) and one row against a batch
 * in lanes (effectiveForward). Library callers go through those, which
 * call the wrapper this CPU runs; tests call every supported wrapper
 * directly.
 */

#ifndef SUSHI_SNN_PACKED_KERNEL_HH
#define SUSHI_SNN_PACKED_KERNEL_HH

#include <cstddef>
#include <cstdint>

namespace sushi::snn::packed::detail {

/** Sum over @p words of popcount(a[w] & b[w]). */
using AndPopcountFn = std::int32_t (*)(const std::uint64_t *a,
                                       const std::uint64_t *b,
                                       std::size_t words);

std::int32_t andPopcountPortable(const std::uint64_t *a,
                                 const std::uint64_t *b,
                                 std::size_t words);
#if defined(__x86_64__)
std::int32_t andPopcountPopcnt(const std::uint64_t *a,
                               const std::uint64_t *b,
                               std::size_t words);
std::int32_t andPopcountAvx512(const std::uint64_t *a,
                               const std::uint64_t *b,
                               std::size_t words);
#endif

/** The wrapper selectedKernelIsa() names. */
AndPopcountFn andPopcount();

/** Samples per batch lane vector: eight 64-bit words, one zmm. A
 *  word-major batch is padded with zero samples to a multiple. */
constexpr std::size_t kLanes = 8;

/**
 * counts[b] = sum over w < words of popcount(xt[w * lanes + b] &
 * sign[w]) for every b < lanes (a multiple of kLanes): one neuron's
 * sign row against a word-major batch of samples.
 */
using AndPopcountLanesFn = void (*)(const std::uint64_t *sign,
                                    const std::uint64_t *xt,
                                    std::size_t words, std::size_t lanes,
                                    std::int32_t *counts);

void andPopcountLanesPortable(const std::uint64_t *sign,
                              const std::uint64_t *xt, std::size_t words,
                              std::size_t lanes, std::int32_t *counts);
#if defined(__x86_64__)
void andPopcountLanesPopcnt(const std::uint64_t *sign,
                            const std::uint64_t *xt, std::size_t words,
                            std::size_t lanes, std::int32_t *counts);
void andPopcountLanesAvx512(const std::uint64_t *sign,
                            const std::uint64_t *xt, std::size_t words,
                            std::size_t lanes, std::int32_t *counts);
#endif

/** The lane wrapper selectedKernelIsa() names. */
AndPopcountLanesFn andPopcountLanes();

} // namespace sushi::snn::packed::detail

#endif // SUSHI_SNN_PACKED_KERNEL_HH
