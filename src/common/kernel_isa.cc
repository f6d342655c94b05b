#include "common/kernel_isa.hh"

namespace sushi {

bool
cpuSupports(KernelIsa isa)
{
    switch (isa) {
    case KernelIsa::Portable:
        return true;
    case KernelIsa::Popcnt:
#if defined(__x86_64__)
        __builtin_cpu_init();
        return __builtin_cpu_supports("popcnt");
#else
        return false;
#endif
    case KernelIsa::Avx512Vpopcnt:
#if defined(__x86_64__)
        __builtin_cpu_init();
        return __builtin_cpu_supports("popcnt") &&
               __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512vpopcntdq") &&
               __builtin_cpu_supports("avx512bw");
#else
        return false;
#endif
    }
    return false;
}

KernelIsa
selectedKernelIsa()
{
    static const KernelIsa isa =
        cpuSupports(KernelIsa::Avx512Vpopcnt) ? KernelIsa::Avx512Vpopcnt
        : cpuSupports(KernelIsa::Popcnt)      ? KernelIsa::Popcnt
                                              : KernelIsa::Portable;
    return isa;
}

const char *
kernelIsaName(KernelIsa isa)
{
    switch (isa) {
    case KernelIsa::Portable:
        return "portable";
    case KernelIsa::Popcnt:
        return "popcnt";
    case KernelIsa::Avx512Vpopcnt:
        return "avx512vpopcntdq";
    }
    return "unknown";
}

} // namespace sushi
