#include "chip/sushi_chip.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "chip/layer_kernel.hh"
#include "common/kernel_isa.hh"
#include "common/logging.hh"
#include "compiler/driver.hh"
#include "fabric/resource_model.hh"
#include "fabric/timing_model.hh"
#include "sfq/cell_params.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sushi::chip {

namespace detail {

namespace {

/** Bit j set iff x[j] != 0, for the n <= 64 values at @p x. */
std::uint64_t
nonZeroBits(const std::uint16_t *x, std::size_t n)
{
    std::uint64_t bits = 0;
    std::size_t j = 0;
#if defined(__x86_64__)
    // SSE2, 16 values per step: two compares against zero, narrowed
    // to one byte per value, then one movemask.
    const __m128i zero = _mm_setzero_si128();
    for (; j + 16 <= n; j += 16) {
        const __m128i lo = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(x + j));
        const __m128i hi = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(x + j + 8));
        const __m128i is_zero = _mm_packs_epi16(
            _mm_cmpeq_epi16(lo, zero), _mm_cmpeq_epi16(hi, zero));
        const auto zeros =
            static_cast<unsigned>(_mm_movemask_epi8(is_zero));
        bits |= std::uint64_t{~zeros & 0xffffu} << j;
    }
#endif
    for (; j < n; ++j)
        bits |= std::uint64_t{x[j] != 0} << j;
    return bits;
}

/** Set bits of the @p batch-strided words at @p bits over positions
 *  [begin, end). Runs in every wrapper's pack, so it never calls
 *  libgcc's popcount. */
std::uint64_t
windowCount(const std::uint64_t *bits, std::size_t batch,
            std::size_t begin, std::size_t end)
{
    if (begin >= end)
        return 0;
    const std::size_t w0 = begin / 64;
    const std::size_t wl = (end - 1) / 64;
    const std::uint64_t head = ~std::uint64_t{0} << (begin % 64);
    const std::uint64_t tail =
        ~std::uint64_t{0} >> (63 - (end - 1) % 64);
    if (w0 == wl)
        return PortablePopcount::count(bits[w0 * batch] & head & tail);
    std::uint64_t n = PortablePopcount::count(bits[w0 * batch] & head);
    for (std::size_t w = w0 + 1; w < wl; ++w)
        n += PortablePopcount::count(bits[w * batch]);
    return n + PortablePopcount::count(bits[wl * batch] & tail);
}

} // namespace

void
packLayerBatch(const compiler::CompiledLayer &layer,
               const PulseBatch &in, LayerBatchPack &pack)
{
    const std::size_t batch = in.batch;
    const std::size_t width = in.width;
    const auto &buckets = layer.schedule.buckets;
    const std::uint32_t *position = layer.position.data();
    pack.batch = batch;
    pack.words = (width + 63) / 64;
    pack.bits.assign(pack.words * batch, 0);
    pack.bucket_pulses.assign(buckets.size() * batch, 0);
    pack.pulses.assign(batch, 0);
    pack.active.assign(batch, 0);
    pack.extras.clear();
    pack.extra_begin.assign(batch + 1, 0);

    for (std::size_t b = 0; b < batch; ++b) {
        const std::uint16_t *act = in.row(b).data();
        const std::size_t first_extra = pack.extras.size();
        pack.extra_begin[b] = first_extra;
        // Inputs are sparse (~12 % of a Poisson frame), so scan each
        // row 64 values at a time and place only the non-zero ones.
        for (std::size_t i0 = 0; i0 < width; i0 += 64) {
            const std::size_t n = std::min<std::size_t>(64, width - i0);
            for (std::uint64_t nz = nonZeroBits(act + i0, n); nz != 0;
                 nz &= nz - 1) {
                const std::size_t i =
                    i0 + static_cast<std::size_t>(__builtin_ctzll(nz));
                const std::uint32_t pos = position[i];
                pack.bits[pos / 64 * batch + b] |= std::uint64_t{1}
                                                   << (pos % 64);
                if (act[i] > 1)
                    pack.extras.push_back(
                        {0, pos, std::uint64_t{act[i]} - 1});
            }
        }

        // Bucket membership follows from positions: each bucket's
        // window popcount, then the extras, in position order, walked
        // across the buckets. A position no bucket covers is never
        // counted.
        std::sort(pack.extras.begin() +
                      static_cast<std::ptrdiff_t>(first_extra),
                  pack.extras.end(),
                  [](const ExtraPulses &x, const ExtraPulses &y) {
                      return x.pos < y.pos;
                  });
        std::size_t e = first_extra;
        std::size_t kept = first_extra;
        std::uint64_t active = 0;
        std::uint64_t pulses = 0;
        for (std::size_t bk = 0; bk < buckets.size(); ++bk) {
            const auto begin =
                static_cast<std::uint32_t>(buckets[bk].begin);
            const auto end = static_cast<std::uint32_t>(buckets[bk].end);
            const std::uint64_t n =
                windowCount(pack.bits.data() + b, batch, begin, end);
            std::uint64_t sum = n;
            for (; e < pack.extras.size() && pack.extras[e].pos < end;
                 ++e) {
                if (pack.extras[e].pos < begin)
                    continue;
                pack.extras[e].bucket = static_cast<std::uint32_t>(bk);
                sum += pack.extras[e].extra;
                pack.extras[kept++] = pack.extras[e];
            }
            pack.bucket_pulses[bk * batch + b] = sum;
            active += n;
            pulses += sum;
        }
        pack.extras.resize(kept);
        pack.pulses[b] = pulses;
        pack.active[b] = active;
    }
    pack.extra_begin[batch] = pack.extras.size();
}

namespace {

/** Stride between one neuron's mask words in the interleaved table. */
constexpr std::size_t kStride = compiler::MaskTable::kLanes;

/** Vectors one neuron evaluates side by side (stack-resident). */
constexpr std::size_t kTile = 64;

/** Vectors whose popcount accumulators share registers. */
constexpr std::size_t kLanes = 8;

/**
 * Add the tallies that do not depend on a neuron's counter: every
 * enabled neuron sees all of a vector's pulses, and its remap status
 * does not depend on the vector.
 */
void
addNeuronTallies(const LayerKernelArgs &args, LayerStepStats *tally)
{
    const compiler::CompiledLayer &layer = *args.layer;
    std::uint64_t enabled = 0;
    std::uint64_t remapped = 0;
    for (std::size_t o = 0; o < args.out_dim; ++o) {
        if (layer.disabled[o])
            continue;
        ++enabled;
        // Degraded mode: the neuron's home slot is o mod N; if that
        // NPE failed, a healthy host NPE serves it in an extra pass.
        // The counter arithmetic is slot-independent, so results
        // stay bit-identical — only time/reload accounting changes.
        if (args.failed_slots != nullptr &&
            args.failed_slots[o % args.slots])
            ++remapped;
    }
    const LayerBatchPack &pack = *args.pack;
    for (std::size_t b = 0; b < pack.batch; ++b) {
        tally[b].synaptic_ops += pack.pulses[b] * enabled;
        tally[b].remapped_neurons += remapped;
    }
}

/** count[j] += popcount(row[j] & m) for the N vectors of a word. */
template <class Pop, std::size_t N>
[[gnu::always_inline]] inline void
addWord(std::uint64_t *count, const std::uint64_t *row, std::uint64_t m)
{
#pragma GCC unroll 8
    for (std::size_t j = 0; j < N; ++j)
        count[j] += Pop::count(row[j] & m);
}

/**
 * Inhibitory input pulses of scheduled positions [begin, end) for
 * the @p N vectors whose words start at @p bits (stride @p batch per
 * word): the neuron's mask word (stride kStride at @p nm) is loaded
 * once per word and streamed over the N vectors, whose counts stay
 * in registers.
 */
template <class Pop, std::size_t N>
[[gnu::always_inline]] inline void
negCounts(const std::uint64_t *bits, std::size_t batch,
          const std::uint64_t *nm, std::size_t begin, std::size_t end,
          std::uint64_t *neg)
{
    std::uint64_t count[N] = {};
    if (begin < end) {
        const std::size_t w0 = begin / 64;
        const std::size_t wl = (end - 1) / 64;
        const std::uint64_t head = ~std::uint64_t{0} << (begin % 64);
        const std::uint64_t tail =
            ~std::uint64_t{0} >> (63 - (end - 1) % 64);
        if (w0 == wl) {
            addWord<Pop, N>(count, bits + w0 * batch,
                            nm[w0 * kStride] & head & tail);
        } else {
            addWord<Pop, N>(count, bits + w0 * batch,
                            nm[w0 * kStride] & head);
            for (std::size_t w = w0 + 1; w < wl; ++w)
                addWord<Pop, N>(count, bits + w * batch,
                                nm[w * kStride]);
            addWord<Pop, N>(count, bits + wl * batch,
                            nm[wl * kStride] & tail);
        }
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < N; ++j)
        neg[j] = count[j];
}

/**
 * The batch-lane body of the portable and popcnt wrappers. Per tile
 * of vectors and neuron it runs the closed-form NPE counter — the
 * exact recurrence Npe::addPulses implements, carry per wrap past
 * 2^K counting up, borrow per wrap below zero counting down — in
 * shifts and masks. Any divergence from the Npe object is a bug the
 * packed-vs-oracle fuzzer catches.
 */
template <class Pop>
[[gnu::always_inline]] inline void
layerKernelBody(const LayerKernelArgs &args, LayerStepStats *tally)
{
    const compiler::CompiledLayer &layer = *args.layer;
    const LayerBatchPack &pack = *args.pack;
    const std::size_t batch = pack.batch;
    const std::size_t out_dim = args.out_dim;
    const unsigned k = args.state_bits;
    const std::uint64_t mask = (std::uint64_t{1} << k) - 1;
    const auto &buckets = layer.schedule.buckets;

    std::uint64_t value[kTile];
    std::uint64_t spikes[kTile];
    std::uint64_t neg[kTile];
    std::size_t cursor[kTile];
    // The tile's tallies, summed over neurons in registers/stack.
    std::uint64_t underflow[kTile];
    std::uint64_t multi_fires[kTile];
    for (std::size_t t0 = 0; t0 < batch; t0 += kTile) {
        const std::size_t nt = std::min(kTile, batch - t0);
        const bool extras =
            pack.extra_begin[t0] != pack.extra_begin[t0 + nt];
        const std::uint64_t *bits = pack.bits.data() + t0;
        std::fill(underflow, underflow + nt, 0);
        std::fill(multi_fires, multi_fires + nt, 0);
        for (std::size_t o = 0; o < out_dim; ++o) {
            if (layer.disabled[o])
                continue;
            const std::uint64_t *nm = layer.neg_masks.lane(o);
            // Bias pulses count up from the preload before any input.
            const std::uint64_t start =
                layer.preload[o] +
                static_cast<std::uint64_t>(layer.bias_pulses[o]);
            for (std::size_t b = 0; b < nt; ++b) {
                value[b] = start & mask;
                spikes[b] = start >> k;
            }
            if (extras)
                std::copy_n(pack.extra_begin.data() + t0, nt, cursor);
            for (std::size_t bk = 0; bk < buckets.size(); ++bk) {
                const auto begin =
                    static_cast<std::size_t>(buckets[bk].begin);
                const auto end =
                    static_cast<std::size_t>(buckets[bk].end);
                std::size_t b = 0;
                for (; b + kLanes <= nt; b += kLanes)
                    negCounts<Pop, kLanes>(bits + b, batch, nm, begin,
                                           end, neg + b);
                for (; b < nt; ++b)
                    negCounts<Pop, 1>(bits + b, batch, nm, begin, end,
                                      neg + b);
                if (extras) {
                    for (std::size_t b = 0; b < nt; ++b) {
                        const std::size_t stop =
                            pack.extra_begin[t0 + b + 1];
                        for (std::size_t &c = cursor[b];
                             c < stop && pack.extras[c].bucket == bk;
                             ++c) {
                            const std::uint32_t pos =
                                pack.extras[c].pos;
                            if (nm[pos / 64 * kStride] >> (pos % 64) & 1)
                                neg[b] += pack.extras[c].extra;
                        }
                    }
                }
                // Inhibitory pass first within every bucket
                // (Sec. 5.1), then the excitatory pass. The masks
                // partition the inputs, so the excitatory pulses are
                // the bucket's total minus the inhibitory ones.
                const std::uint64_t *total =
                    pack.bucket_pulses.data() + bk * batch + t0;
                for (std::size_t b = 0; b < nt; ++b) {
                    const std::uint64_t n = neg[b];
                    const std::uint64_t borrows =
                        (n + mask - value[b]) >> k;
                    const std::uint64_t up =
                        ((value[b] - n) & mask) + (total[b] - n);
                    spikes[b] += borrows + (up >> k);
                    underflow[b] += borrows;
                    value[b] = up & mask;
                }
            }
            // Two loops: the tally vectorises, the strided output
            // stores do not.
            for (std::size_t b = 0; b < nt; ++b)
                multi_fires[b] += spikes[b] > 1 ? 1 : 0;
            for (std::size_t b = 0; b < nt; ++b)
                args.out[(t0 + b) * out_dim + o] =
                    static_cast<std::uint16_t>(spikes[b]);
        }
        for (std::size_t b = 0; b < nt; ++b) {
            tally[t0 + b].underflow_spikes += underflow[b];
            tally[t0 + b].multi_fires += multi_fires[b];
        }
    }
    addNeuronTallies(args, tally);
}

#if defined(__x86_64__)
#define SUSHI_AVX512_TARGET                                             \
    __attribute__((target("popcnt,avx512f,avx512vpopcntdq")))

/** Vectors one neuron-lane block evaluates side by side. */
constexpr std::size_t kBlock = 8;

/** Eight unsigned 64-bit lanes, for the lane-wise shift: GCC 12's
 *  shift intrinsics seed an undefined operand it then warns about. */
using U64x8 = std::uint64_t __attribute__((vector_size(64)));

/** x >> k in every lane. */
SUSHI_AVX512_TARGET [[gnu::always_inline]] inline __m512i
shiftRight(__m512i x, unsigned k)
{
    return (__m512i)((U64x8)x >> k);
}

/** The sum of x's eight lanes. */
SUSHI_AVX512_TARGET [[gnu::always_inline]] inline std::uint64_t
laneSum(__m512i x)
{
    alignas(64) std::uint64_t lane[8];
    _mm512_store_si512(lane, x);
    std::uint64_t sum = 0;
    for (const std::uint64_t v : lane)
        sum += v;
    return sum;
}

/** neg[j] += popcount(mask line & m & bits of vector j) over word
 *  @p w for the N vectors at @p bits: one load of eight neurons'
 *  mask word (the line at @p nm), one vpopcntq per vector. */
template <std::size_t N>
SUSHI_AVX512_TARGET [[gnu::always_inline]] inline void
addLine(__m512i *neg, const std::uint64_t *nm,
        const std::uint64_t *bits, std::size_t batch, std::size_t w,
        std::uint64_t m)
{
    const __m512i masks = _mm512_and_si512(
        _mm512_load_si512(nm + w * kStride),
        _mm512_set1_epi64(static_cast<long long>(m)));
    const std::uint64_t *row = bits + w * batch;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < N; ++j)
        neg[j] = _mm512_add_epi64(
            neg[j],
            _mm512_popcnt_epi64(_mm512_and_si512(
                masks,
                _mm512_set1_epi64(static_cast<long long>(row[j])))));
}

/**
 * The neuron-lane body of the AVX-512 wrapper over vectors
 * [b0, b0 + N): per group of eight neurons it runs the closed-form
 * NPE counters of layerKernelBody in the eight 64-bit lanes of a zmm
 * register per vector, and writes the group's outputs with one
 * masked vpmovqw store per vector. Lanes past out_dim or of a
 * disabled neuron are masked out of every store and tally.
 */
template <std::size_t N>
SUSHI_AVX512_TARGET void
neuronLanes(const LayerKernelArgs &args, std::size_t b0,
            LayerStepStats *tally)
{
    const compiler::CompiledLayer &layer = *args.layer;
    const LayerBatchPack &pack = *args.pack;
    const std::size_t batch = pack.batch;
    const std::size_t out_dim = args.out_dim;
    const auto &buckets = layer.schedule.buckets;
    const unsigned k = args.state_bits;
    const __m512i mask = _mm512_set1_epi64(
        static_cast<long long>((std::uint64_t{1} << k) - 1));
    const __m512i one = _mm512_set1_epi64(1);
    const bool extras =
        pack.extra_begin[b0] != pack.extra_begin[b0 + N];
    const std::uint64_t *bits = pack.bits.data() + b0;

    // The block's tallies, summed over groups in lanes.
    __m512i underflow[N];
    __m512i multi_fires[N];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < N; ++j) {
        underflow[j] = _mm512_setzero_si512();
        multi_fires[j] = _mm512_setzero_si512();
    }
    for (std::size_t g = 0; g < out_dim; g += kStride) {
        // Bias pulses count up from the preload before any input.
        alignas(64) std::uint64_t start_lane[kStride] = {};
        unsigned lanes = 0;
        for (std::size_t l = 0; l < kStride; ++l) {
            const std::size_t o = g + l;
            if (o >= out_dim || layer.disabled[o])
                continue;
            lanes |= 1u << l;
            start_lane[l] =
                layer.preload[o] +
                static_cast<std::uint64_t>(layer.bias_pulses[o]);
        }
        if (lanes == 0)
            continue;
        const auto on = static_cast<__mmask8>(lanes);
        const std::uint64_t *nm = layer.neg_masks.lane(g);
        const __m512i start = _mm512_load_si512(start_lane);
        __m512i value[N];
        __m512i spikes[N];
        std::size_t cursor[N] = {};
#pragma GCC unroll 8
        for (std::size_t j = 0; j < N; ++j) {
            value[j] = _mm512_and_si512(start, mask);
            spikes[j] = shiftRight(start, k);
        }
        if (extras)
            std::copy_n(pack.extra_begin.data() + b0, N, cursor);
        for (std::size_t bk = 0; bk < buckets.size(); ++bk) {
            const auto begin =
                static_cast<std::size_t>(buckets[bk].begin);
            const auto end = static_cast<std::size_t>(buckets[bk].end);
            __m512i neg[N];
#pragma GCC unroll 8
            for (std::size_t j = 0; j < N; ++j)
                neg[j] = _mm512_setzero_si512();
            if (begin < end) {
                const std::size_t w0 = begin / 64;
                const std::size_t wl = (end - 1) / 64;
                const std::uint64_t head = ~std::uint64_t{0}
                                           << (begin % 64);
                const std::uint64_t tail =
                    ~std::uint64_t{0} >> (63 - (end - 1) % 64);
                if (w0 == wl) {
                    addLine<N>(neg, nm, bits, batch, w0, head & tail);
                } else {
                    addLine<N>(neg, nm, bits, batch, w0, head);
                    for (std::size_t w = w0 + 1; w < wl; ++w)
                        addLine<N>(neg, nm, bits, batch, w,
                                   ~std::uint64_t{0});
                    addLine<N>(neg, nm, bits, batch, wl, tail);
                }
            }
            if (extras) {
                for (std::size_t j = 0; j < N; ++j) {
                    const std::size_t stop =
                        pack.extra_begin[b0 + j + 1];
                    for (std::size_t &c = cursor[j];
                         c < stop && pack.extras[c].bucket == bk; ++c) {
                        const ExtraPulses &x = pack.extras[c];
                        const __mmask8 hit = _mm512_test_epi64_mask(
                            _mm512_load_si512(nm +
                                              x.pos / 64 * kStride),
                            _mm512_set1_epi64(static_cast<long long>(
                                std::uint64_t{1} << (x.pos % 64))));
                        neg[j] = _mm512_mask_add_epi64(
                            neg[j], hit, neg[j],
                            _mm512_set1_epi64(
                                static_cast<long long>(x.extra)));
                    }
                }
            }
            // Inhibitory pass first within every bucket (Sec. 5.1),
            // then the excitatory pass: the recurrence of
            // layerKernelBody, lane-wise.
            const std::uint64_t *total =
                pack.bucket_pulses.data() + bk * batch + b0;
#pragma GCC unroll 8
            for (std::size_t j = 0; j < N; ++j) {
                const __m512i n = neg[j];
                const __m512i borrows =
                    shiftRight(_mm512_add_epi64(
                                   n, _mm512_sub_epi64(mask, value[j])),
                               k);
                const __m512i up = _mm512_add_epi64(
                    _mm512_and_si512(_mm512_sub_epi64(value[j], n),
                                     mask),
                    _mm512_sub_epi64(
                        _mm512_set1_epi64(
                            static_cast<long long>(total[j])),
                        n));
                spikes[j] = _mm512_add_epi64(
                    spikes[j],
                    _mm512_add_epi64(borrows, shiftRight(up, k)));
                underflow[j] =
                    _mm512_mask_add_epi64(underflow[j], on, underflow[j],
                                          borrows);
                value[j] = _mm512_and_si512(up, mask);
            }
        }
#pragma GCC unroll 8
        for (std::size_t j = 0; j < N; ++j) {
            multi_fires[j] = _mm512_mask_add_epi64(
                multi_fires[j],
                _mm512_mask_cmpgt_epu64_mask(on, spikes[j], one),
                multi_fires[j], one);
            _mm512_mask_cvtepi64_storeu_epi16(
                args.out + (b0 + j) * out_dim + g, on, spikes[j]);
        }
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < N; ++j) {
        tally[b0 + j].underflow_spikes += laneSum(underflow[j]);
        tally[b0 + j].multi_fires += laneSum(multi_fires[j]);
    }
}
#endif

} // namespace

void
layerKernelPortable(const LayerKernelArgs &args, LayerStepStats *tally)
{
    layerKernelBody<PortablePopcount>(args, tally);
}

#if defined(__x86_64__)
__attribute__((target("popcnt"))) void
layerKernelPopcnt(const LayerKernelArgs &args, LayerStepStats *tally)
{
    layerKernelBody<HardwarePopcount>(args, tally);
}

SUSHI_AVX512_TARGET void
layerKernelAvx512(const LayerKernelArgs &args, LayerStepStats *tally)
{
    const std::size_t batch = args.pack->batch;
    for (std::size_t b0 = 0; b0 < batch; b0 += kBlock) {
        switch (std::min(kBlock, batch - b0)) {
        case 1: neuronLanes<1>(args, b0, tally); break;
        case 2: neuronLanes<2>(args, b0, tally); break;
        case 3: neuronLanes<3>(args, b0, tally); break;
        case 4: neuronLanes<4>(args, b0, tally); break;
        case 5: neuronLanes<5>(args, b0, tally); break;
        case 6: neuronLanes<6>(args, b0, tally); break;
        case 7: neuronLanes<7>(args, b0, tally); break;
        default: neuronLanes<8>(args, b0, tally); break;
        }
    }
    // Clear the upper zmm state before leaving AVX-512 code: GCC
    // omits it on the tail call below, and dirty upper state slows
    // every later SSE instruction of the process (3x on gate-level
    // builds).
    _mm256_zeroupper();
    addNeuronTallies(args, tally);
}
#undef SUSHI_AVX512_TARGET
#endif

LayerKernelFn
layerKernel()
{
#if defined(__x86_64__)
    static const LayerKernelFn fn = [] {
        switch (selectedKernelIsa()) {
        case KernelIsa::Avx512Vpopcnt:
            return layerKernelAvx512;
        case KernelIsa::Popcnt:
            return layerKernelPopcnt;
        default:
            return layerKernelPortable;
        }
    }();
    return fn;
#else
    return layerKernelPortable;
#endif
}

} // namespace detail

namespace {

/** Validate before any member is sized from the geometry. */
const compiler::ChipConfig &
validated(const compiler::ChipConfig &cfg)
{
    compiler::validateChipConfig(cfg);
    return cfg;
}

} // namespace

void
merge::AddEach::operator()(std::vector<std::uint64_t> &into,
                           const std::vector<std::uint64_t> &from) const
{
    if (into.size() < from.size())
        into.resize(from.size(), 0);
    for (std::size_t c = 0; c < from.size(); ++c)
        into[c] += from[c];
}

void
InferenceStats::accumulate(const InferenceStats &other)
{
#define SUSHI_STAT_MERGE(type, name, kind, ...)                         \
    merge::kind::sample(name, other.name);
    SUSHI_INFERENCE_STATS(SUSHI_STAT_MERGE)
#undef SUSHI_STAT_MERGE
}

void
InferenceStats::accumulatePipeline(const InferenceStats &other)
{
#define SUSHI_STAT_MERGE(type, name, kind, ...)                         \
    merge::kind::stage(name, other.name);
    SUSHI_INFERENCE_STATS(SUSHI_STAT_MERGE)
#undef SUSHI_STAT_MERGE
}

double
dynamicEnergyJ(std::uint64_t synaptic_ops)
{
    return static_cast<double>(synaptic_ops) * 30.0 * 2.0e-19;
}

void
PulseBatch::reset(std::size_t vectors, std::size_t row_width)
{
    batch = vectors;
    width = row_width;
    pulses.assign(vectors * row_width, 0);
}

void
PulseBatch::setRow(std::size_t v, std::span<const std::uint8_t> frame)
{
    if (frame.size() != width)
        throw std::invalid_argument(
            "activation width " + std::to_string(frame.size()) +
            " != layer input width " + std::to_string(width));
    std::copy(frame.begin(), frame.end(), row(v).begin());
}

SushiChip::SushiChip(const compiler::ChipConfig &cfg)
    : cfg_(validated(cfg)),
      pulse_ps_(fabric::pulseTimePs(fabric::scalingMeshConfig(cfg.n))),
      failed_npes_(static_cast<std::size_t>(cfg.n), 0),
      remap_(compiler::planNpeRemap(cfg.n, failed_npes_)),
      pack_(std::make_unique<detail::LayerBatchPack>())
{}

SushiChip::~SushiChip() = default;

void
SushiChip::markNpeFailed(int slot)
{
    if (slot < 0 || slot >= cfg_.n)
        throw std::out_of_range("NPE slot " + std::to_string(slot) +
                                " outside [0, " + std::to_string(cfg_.n) +
                                ")");
    // Plan first: a throw for the last healthy slot changes nothing.
    std::vector<std::uint8_t> failed = failed_npes_;
    failed[static_cast<std::size_t>(slot)] = 1;
    remap_ = compiler::planNpeRemap(cfg_.n, failed);
    failed_npes_ = std::move(failed);
    stats_.failed_npes = static_cast<std::uint64_t>(remap_.failed);
}

void
SushiChip::clearFailedNpes()
{
    std::fill(failed_npes_.begin(), failed_npes_.end(), 0);
    remap_ = compiler::planNpeRemap(cfg_.n, failed_npes_);
    // The gauge must not report slots that are healthy again.
    stats_.failed_npes = 0;
}

void
SushiChip::resetStats()
{
    stats_.reset();
    stats_.failed_npes = static_cast<std::uint64_t>(remap_.failed);
}

void
SushiChip::reset()
{
    clearFailedNpes();
    stats_.reset();
}

void
SushiChip::stepLayerBatch(const compiler::CompiledLayer &layer,
                          const snn::BinaryLayer &blayer,
                          const PulseBatch &in, PulseBatch &out,
                          LayerStepStats *tallies)
{
    const std::size_t in_dim = blayer.inDim();
    const std::size_t out_dim = blayer.outDim();
    if (in.width != in_dim || in.pulses.size() != in.batch * in.width)
        throw std::invalid_argument(
            "activation width " + std::to_string(in.width) +
            " != layer input width " + std::to_string(in_dim));
    sushi_assert(&in != &out);
    out.reset(in.batch, out_dim);
    std::fill(tallies, tallies + in.batch, LayerStepStats{});

    detail::packLayerBatch(layer, in, *pack_);
    for (std::size_t b = 0; b < in.batch; ++b)
        tallies[b].active_inputs = pack_->active[b];
    detail::LayerKernelArgs args;
    args.layer = &layer;
    args.pack = pack_.get();
    args.state_bits = static_cast<unsigned>(cfg_.sc_per_npe);
    args.failed_slots =
        remap_.failed > 0 ? failed_npes_.data() : nullptr;
    args.slots = static_cast<std::size_t>(cfg_.n);
    args.out = out.pulses.data();
    args.out_dim = out_dim;
    detail::layerKernel()(args, tallies);
}

void
SushiChip::chargeLayer(const compiler::CompiledLayer &layer,
                       const LayerStepStats &tally)
{
    stats_.remapped_neurons += tally.remapped_neurons;
    stats_.underflow_spikes += tally.underflow_spikes;
    stats_.synaptic_ops += tally.synaptic_ops;
    stats_.input_pulses += tally.synaptic_ops;
    stats_.multi_fires += tally.multi_fires;

    // Reload + timing accounting for this layer-step.
    stats_.reload_events +=
        static_cast<std::uint64_t>(layer.switch_reloads);
    // Synapses process in parallel across the mesh: the serialised
    // work per step is the per-output-group pulse traffic.
    const double serial_pulses =
        static_cast<double>(tally.active_inputs) *
        static_cast<double>(layer.slices.numOutBlocks());
    // Weight reloading is parallel per synapse (Sec. 4.2.2): the
    // serialised cost is one configuration batch per block
    // transition whose crosspoints actually change — reordering
    // makes many transitions configuration-free.
    const double blocks =
        static_cast<double>(layer.slices.totalBlocks());
    const double change_fraction = std::min(
        1.0, static_cast<double>(layer.switch_reloads) /
                 (blocks * static_cast<double>(cfg_.n) * cfg_.n));
    double reload_ps = blocks * change_fraction * 250.0;
    double degraded_pulses = 0.0;
    if (remap_.failed > 0) {
        // Each output group runs extra_passes more times to serve the
        // remapped neurons: the input slice is re-streamed and the
        // crosspoints are reconfigured to the remapped weights (and
        // back), one configuration batch per extra pass per block.
        const auto extra_group_passes =
            static_cast<std::uint64_t>(layer.slices.numOutBlocks()) *
            static_cast<std::uint64_t>(remap_.extra_passes);
        stats_.degraded_passes += extra_group_passes;
        stats_.failed_npes =
            static_cast<std::uint64_t>(remap_.failed);
        degraded_pulses =
            static_cast<double>(tally.active_inputs) *
            static_cast<double>(extra_group_passes);
        reload_ps += blocks *
                     static_cast<double>(remap_.extra_passes) * 250.0;
        stats_.reload_events += extra_group_passes;
    }
    stats_.reload_time_ps += reload_ps;
    stats_.est_time_ps +=
        (serial_pulses + degraded_pulses) * pulse_ps_ + reload_ps;
}

PulseVector
SushiChip::stepLayer(const compiler::CompiledLayer &layer,
                     const snn::BinaryLayer &blayer,
                     const PulseVector &act)
{
    single_in_.batch = 1;
    single_in_.width = act.size();
    single_in_.pulses.assign(act.begin(), act.end());
    LayerStepStats tally;
    stepLayerBatch(layer, blayer, single_in_, single_run_.out, &tally);
    chargeLayer(layer, tally);
    return single_run_.out.pulses;
}

void
SushiChip::stepNetworkBatch(const compiler::CompiledNetwork &net,
                            const PulseBatch &in, NetworkBatch &out)
{
    sushi_assert(net.net != nullptr);
    sushi_assert(net.layers.size() == net.net->layers().size());
    sushi_assert(!net.layers.empty());
    const std::size_t layers = net.layers.size();
    out.steps.resize(layers * in.batch);
    // Hidden activations ping-pong through chip buffers; the last
    // layer writes the caller's batch.
    const PulseBatch *src = &in;
    for (std::size_t l = 0; l < layers; ++l) {
        PulseBatch &dst = l + 1 == layers ? out.out : hidden_[l % 2];
        stepLayerBatch(net.layers[l], net.net->layers()[l], *src, dst,
                       out.steps.data() + l * in.batch);
        src = &dst;
    }
}

void
SushiChip::chargeStep(const compiler::CompiledNetwork &net,
                      const NetworkBatch &run, std::size_t v)
{
    ++stats_.time_steps;
    // Refresh the compile-plan gauges from the compiler's cached
    // diagnostics (O(1): computed once at compile time).
    stats_.disabled_neurons =
        std::max(stats_.disabled_neurons,
                 static_cast<std::uint64_t>(net.disabled_count));
    stats_.plan_reloads =
        std::max(stats_.plan_reloads,
                 static_cast<std::uint64_t>(net.plan_reloads));
    stats_.jj_utilisation = std::max(stats_.jj_utilisation,
                                     net.budget.jjUtilisation());
    stats_.area_utilisation = std::max(
        stats_.area_utilisation, net.budget.areaUtilisation());
    for (std::size_t l = 0; l < net.layers.size(); ++l)
        chargeLayer(net.layers[l], run.steps[l * run.out.batch + v]);
}

PulseVector
SushiChip::stepNetwork(const compiler::CompiledNetwork &net,
                       const PulseVector &input)
{
    single_in_.batch = 1;
    single_in_.width = input.size();
    single_in_.pulses.assign(input.begin(), input.end());
    stepNetworkBatch(net, single_in_, single_run_);
    chargeStep(net, single_run_, 0);
    return single_run_.out.pulses;
}

void
SushiChip::countOutputSpikes(std::span<const std::uint16_t> act)
{
    for (const auto pulses : act)
        stats_.output_spikes += static_cast<std::uint64_t>(pulses);
}

void
SushiChip::finishRun()
{
    stats_.dynamic_energy_j = dynamicEnergyJ(stats_.synaptic_ops);
}

std::vector<int>
SushiChip::inferCounts(
    const compiler::CompiledNetwork &net,
    const std::vector<std::vector<std::uint8_t>> &frames)
{
    sushi_assert(net.net != nullptr);
    sushi_assert(net.layers.size() == net.net->layers().size());
    const auto &layers = net.net->layers();
    const std::size_t out_dim = layers.back().outDim();
    // All T frames run as one batch: the counter is fresh per
    // neuron-step, so time steps are independent vectors.
    single_in_.reset(frames.size(), layers.front().inDim());
    for (std::size_t t = 0; t < frames.size(); ++t)
        single_in_.setRow(t, frames[t]);
    stepNetworkBatch(net, single_in_, single_run_);

    std::vector<int> counts(out_dim, 0);
    beginFrame();
    for (std::size_t t = 0; t < frames.size(); ++t) {
        chargeStep(net, single_run_, t);
        const auto act = single_run_.out.row(t);
        for (std::size_t o = 0; o < out_dim; ++o)
            counts[o] += act[o];
        countOutputSpikes(act);
    }
    finishRun();
    return counts;
}

int
SushiChip::predict(const compiler::CompiledNetwork &net,
                   const std::vector<std::vector<std::uint8_t>> &frames)
{
    const auto counts = inferCounts(net, frames);
    int best = 0;
    for (std::size_t c = 1; c < counts.size(); ++c)
        if (counts[c] > counts[static_cast<std::size_t>(best)])
            best = static_cast<int>(c);
    return best;
}

} // namespace sushi::chip
