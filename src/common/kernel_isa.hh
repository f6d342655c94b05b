/**
 * @file
 * CPU dispatch for the popcount-bound kernels (the chip's layer
 * kernel and snn::packed's XNOR dot).
 *
 * Each kernel is compiled as thin wrappers that differ in the
 * instruction set the compiler may use: `portable` (baseline x86-64
 * or any other target, popcount in plain shifts and adds), `popcnt`
 * (x86-64 `target("popcnt")`, one instruction per 64-bit word) and
 * `avx512vpopcntdq` (x86-64 AVX-512F + VPOPCNTDQ, eight 64-bit words
 * per `vpopcntq`, plus AVX-512BW for the chip kernel's byte-mask
 * adds). The first two share one always-inlined body; the AVX-512
 * wrapper specialises it (the XNOR dot) or has its own (the chip
 * layer kernel's neuron lanes and column body). The build passes no ISA flag,
 * so the wrapper is picked at run time: once per process, from
 * `__builtin_cpu_supports`, the widest the CPU runs. Every wrapper
 * computes bit-identical results; only speed differs.
 */

#ifndef SUSHI_COMMON_KERNEL_ISA_HH
#define SUSHI_COMMON_KERNEL_ISA_HH

#include <cstdint>

namespace sushi {

/** Popcount code paths the kernels are compiled for. */
enum class KernelIsa
{
    Portable,      ///< shift-and-add popcount, runs anywhere
    Popcnt,        ///< x86-64 POPCNT instruction
    Avx512Vpopcnt, ///< x86-64 AVX-512F + VPOPCNTDQ (`vpopcntq`) + BW
};

/** True if this CPU can run @p isa's wrappers. */
bool cpuSupports(KernelIsa isa);

/** The best path this CPU supports; resolved once per process. */
KernelIsa selectedKernelIsa();

/** Stable name of @p isa: "portable", "popcnt" or
 *  "avx512vpopcntdq". */
const char *kernelIsaName(KernelIsa isa);

/** Name of the selected path (recorded in the BENCH_*.json files). */
inline const char *
kernelIsa()
{
    return kernelIsaName(selectedKernelIsa());
}

/// @name Popcount policies the kernel bodies are instantiated with.
/// Always inlined, so the builtin expands under the ISA of the
/// wrapper that calls it.
/// @{

/** Popcount in plain integer ops (never a libgcc call). */
struct PortablePopcount
{
    [[gnu::always_inline]] static inline std::uint64_t
    count(std::uint64_t x)
    {
        x -= (x >> 1) & 0x5555555555555555ULL;
        x = (x & 0x3333333333333333ULL) +
            ((x >> 2) & 0x3333333333333333ULL);
        x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
        return (x * 0x0101010101010101ULL) >> 56;
    }
};

/** The compiler's popcount builtin: one POPCNT inside a
 *  `target("popcnt")` wrapper. */
struct HardwarePopcount
{
    [[gnu::always_inline]] static inline std::uint64_t
    count(std::uint64_t x)
    {
        return static_cast<std::uint64_t>(__builtin_popcountll(x));
    }
};

/** Tag of the XNOR dot's AVX-512 wrapper: its body specialises the
 *  vector lanes on `vpopcntq`; scalar words still use the builtin. */
struct Avx512Popcount : HardwarePopcount
{};

/// @}

} // namespace sushi

#endif // SUSHI_COMMON_KERNEL_ISA_HH
