/**
 * @file
 * Private to snn/packed and its tests: the CPU-dispatched wrappers of
 * the XNOR dot's popcount loop (see common/kernel_isa.hh). Library
 * callers go through PackedLayer::dot, which calls the wrapper this
 * CPU runs; tests call every supported wrapper directly.
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

} // namespace sushi::snn::packed::detail

#endif // SUSHI_SNN_PACKED_KERNEL_HH
