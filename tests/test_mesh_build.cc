/**
 * @file
 * Pins of the 16x16 gate-level mesh build: the instance names and
 * dense ids every cell gets (fault targeting and cellId() lookups key
 * on them), and the heap-allocation budget of one build. The
 * allocation count comes from a global operator new replacement that
 * lives in this executable only; under ASan/TSan the sanitizer owns
 * operator new, so the budget test is skipped there.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string_view>

#include "chip/gate_sim.hh"
#include "compiler/compile.hh"
#include "sfq/netlist.hh"
#include "sfq/simulator.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SUSHI_SANITIZED_NEW 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SUSHI_SANITIZED_NEW 1
#endif
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

} // namespace

#ifndef SUSHI_SANITIZED_NEW

namespace {

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
        ? std::malloc(n)
        : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#endif // SUSHI_SANITIZED_NEW

namespace sushi {
namespace {

compiler::ChipConfig
mesh16()
{
    compiler::ChipConfig cfg;
    cfg.n = 16;
    cfg.sc_per_npe = 5;
    return cfg;
}

TEST(Netlist, MeshNamesAndIdsArePinned)
{
    sfq::Simulator sim;
    sfq::Netlist net(sim);
    chip::GateChip gate(net, mesh16());
    const sfq::CompiledNetlist &core = sim.core();

    ASSERT_EQ(net.numComponents(), 4544u);
    ASSERT_EQ(core.numCells(), 4544u);

    // FNV-1a over every name in id order, each closed by a NUL.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](unsigned char c) {
        h ^= c;
        h *= 0x100000001b3ull;
    };
    for (std::size_t i = 0; i < core.numCells(); ++i) {
        const std::string_view name =
            core.cellName(static_cast<std::int32_t>(i));
        for (char c : name)
            mix(static_cast<unsigned char>(c));
        mix(0);
    }
    EXPECT_EQ(h, 0x2b19800030172a7full);

    EXPECT_EQ(core.cellId("in_npe0.sc0.ndro0"), 6);
    EXPECT_EQ(core.cellId("row3.l.spl"), 3838);
    EXPECT_EQ(core.cellId("col15.pad15"), 4512);
    EXPECT_EQ(core.cellId("drv7"), 4535);
}

TEST(Netlist, MeshBuildMakesFewHeapAllocations)
{
#ifdef SUSHI_SANITIZED_NEW
    GTEST_SKIP() << "the sanitizer owns operator new";
#else
    sfq::Simulator sim;
    sfq::Netlist net(sim);
    g_allocs = 0;
    g_counting = true;
    {
        chip::GateChip gate(net, mesh16());
        g_counting = false;
    }
    const std::uint64_t allocs = g_allocs.load();
    std::printf("16x16 GateChip build: %llu heap allocations for "
                "%zu cells\n",
                static_cast<unsigned long long>(allocs),
                net.numComponents());
    EXPECT_LT(allocs, net.numComponents() / 2);
#endif
}

} // namespace
} // namespace sushi
