#include "chip/sushi_chip.hh"

#include <algorithm>
#include <bit>
#include <cstring>
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

/** Bit j set iff x[j] != 0, for the n <= 64 values at @p x; sets
 *  @p multi iff some x[j] > 1. */
std::uint64_t
nonZeroBits(const std::uint16_t *x, std::size_t n, bool &multi)
{
    std::uint64_t bits = 0;
    std::size_t j = 0;
    std::uint16_t any = 0;
#if defined(__x86_64__)
    // SSE2, 16 values per step: two compares against zero, narrowed
    // to one byte per value, then one movemask. The values are also
    // OR-ed together: some value is > 1 iff their OR is.
    const __m128i zero = _mm_setzero_si128();
    __m128i seen = zero;
    for (; j + 16 <= n; j += 16) {
        const __m128i lo = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(x + j));
        const __m128i hi = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(x + j + 8));
        seen = _mm_or_si128(seen, _mm_or_si128(lo, hi));
        const __m128i is_zero = _mm_packs_epi16(
            _mm_cmpeq_epi16(lo, zero), _mm_cmpeq_epi16(hi, zero));
        const auto zeros =
            static_cast<unsigned>(_mm_movemask_epi8(is_zero));
        bits |= std::uint64_t{~zeros & 0xffffu} << j;
    }
    const __m128i above_one = _mm_subs_epu16(seen, _mm_set1_epi16(1));
    any = _mm_movemask_epi8(_mm_cmpeq_epi16(above_one, zero)) != 0xffff
              ? 2
              : 0;
#endif
    for (; j < n; ++j) {
        bits |= std::uint64_t{x[j] != 0} << j;
        any |= x[j];
    }
    multi = any > 1;
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

/** Size @p pack for @p batch vectors of @p width inputs and
 *  @p buckets buckets, every bit and tally zero. */
void
resetPack(LayerBatchPack &pack, std::size_t batch, std::size_t width,
          std::size_t buckets)
{
    pack.batch = batch;
    pack.words = (width + 63) / 64;
    pack.bits.assign(pack.words * batch, 0);
    pack.bucket_pulses.assign(buckets * batch, 0);
    pack.pulses.assign(batch, 0);
    pack.active.assign(batch, 0);
    pack.extras.clear();
    pack.extra_begin.assign(batch + 1, 0);
}

/** Set kernel position @p pos of vector @p b. */
void
placeBit(LayerBatchPack &pack, std::size_t b, std::uint32_t pos)
{
    pack.bits[pos / 64 * pack.batch + b] |= std::uint64_t{1} << (pos % 64);
}

/**
 * Vector @p b's bucket tallies, once its bits are placed and its
 * extras appended (from @p first_extra on, in any order). Bucket
 * membership follows from positions: each bucket's window popcount,
 * then the extras, in position order, walked across the buckets. A
 * position no bucket covers is never counted.
 */
void
tallyBuckets(const compiler::CompiledLayer &layer, LayerBatchPack &pack,
             std::size_t b, std::size_t first_extra)
{
    const auto &buckets = layer.schedule.buckets;
    const std::size_t batch = pack.batch;
    pack.extra_begin[b] = first_extra;
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
        const auto begin = static_cast<std::uint32_t>(buckets[bk].begin);
        const auto end = static_cast<std::uint32_t>(buckets[bk].end);
        const std::uint64_t n =
            windowCount(pack.bits.data() + b, batch, begin, end);
        std::uint64_t sum = n;
        for (; e < pack.extras.size() && pack.extras[e].pos < end; ++e) {
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

} // namespace

void
packLayerBatch(const compiler::CompiledLayer &layer,
               const PulseBatch &in, LayerBatchPack &pack)
{
    const std::size_t batch = in.batch;
    const std::size_t width = in.width;
    const std::uint32_t *position = layer.position.data();
    resetPack(pack, batch, width, layer.schedule.buckets.size());

    for (std::size_t b = 0; b < batch; ++b) {
        const std::uint16_t *act = in.row(b).data();
        const std::size_t first_extra = pack.extras.size();
        // Scan each row 64 values at a time. In the natural order a
        // word of non-zero bits is the packed word; otherwise inputs
        // are sparse (~12 % of a Poisson frame), so place only the
        // non-zero ones.
        for (std::size_t i0 = 0; i0 < width; i0 += 64) {
            const std::size_t n = std::min<std::size_t>(64, width - i0);
            bool multi;
            std::uint64_t nz = nonZeroBits(act + i0, n, multi);
            if (layer.natural_order) {
                pack.bits[i0 / 64 * batch + b] = nz;
                if (!multi)
                    continue;
            }
            for (; nz != 0; nz &= nz - 1) {
                const std::size_t i =
                    i0 + static_cast<std::size_t>(__builtin_ctzll(nz));
                const std::uint32_t pos = position[i];
                if (!layer.natural_order)
                    placeBit(pack, b, pos);
                if (act[i] > 1)
                    pack.extras.push_back(
                        {0, pos, std::uint64_t{act[i]} - 1});
            }
        }
        tallyBuckets(layer, pack, b, first_extra);
    }
    pack.extra_begin[batch] = pack.extras.size();
}

void
packLayerFrames(const compiler::CompiledLayer &layer,
                std::span<const SpikeFrames *const> samples,
                LayerBatchPack &pack)
{
    std::size_t batch = 0;
    for (const SpikeFrames *s : samples)
        batch += s->frames();
    const std::size_t words = (layer.position.size() + 63) / 64;
    const std::uint32_t *position = layer.position.data();
    resetPack(pack, batch, layer.position.size(),
              layer.schedule.buckets.size());
    // Binary frames carry no extras: extra_begin stays all zero.
    std::size_t b = 0;
    for (const SpikeFrames *s : samples) {
        for (std::size_t t = 0; t < s->frames(); ++t, ++b) {
            const std::uint64_t *src = s->frame(t);
            for (std::size_t w = 0; w < words; ++w) {
                if (layer.natural_order) {
                    pack.bits[w * batch + b] = src[w];
                    continue;
                }
                for (std::uint64_t nz = src[w]; nz != 0; nz &= nz - 1)
                    placeBit(pack, b,
                             position[w * 64 + static_cast<std::size_t>(
                                                   __builtin_ctzll(nz))]);
            }
            tallyBuckets(layer, pack, b, 0);
        }
    }
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
    const std::uint8_t *disabled = args.layer->disabled.data();
    std::uint64_t enabled = 0;
    for (std::size_t o = 0; o < args.out_dim; ++o)
        enabled += disabled[o] == 0 ? 1 : 0;
    // Degraded mode: the neuron's home slot is o mod N; if that NPE
    // failed, a healthy host NPE serves it in an extra pass. The
    // counter arithmetic is slot-independent, so results stay
    // bit-identical — only time/reload accounting changes.
    std::uint64_t remapped = 0;
    if (args.failed_slots != nullptr)
        for (std::size_t o = 0; o < args.out_dim; ++o)
            remapped += !disabled[o] && args.failed_slots[o % args.slots]
                            ? 1
                            : 0;
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
 * Inhibitory input pulses of kernel positions [begin, end) for
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
    __attribute__((target("popcnt,avx512f,avx512vpopcntdq,avx512bw")))

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

/** Sixteen unsigned 32-bit lanes (see U64x8). */
using U32x16 = std::uint32_t __attribute__((vector_size(64)));

/** 128-bit lane @p q of @p x. The maskz forms of the intrinsics here
 *  and below: GCC 12's plain forms seed an undefined operand it then
 *  warns about. */
SUSHI_AVX512_TARGET [[gnu::always_inline]] inline __m128i
quarter(__m512i x, std::size_t q)
{
    switch (q) {
    case 0: return _mm512_maskz_extracti32x4_epi32(0xf, x, 0);
    case 1: return _mm512_maskz_extracti32x4_epi32(0xf, x, 1);
    case 2: return _mm512_maskz_extracti32x4_epi32(0xf, x, 2);
    default: return _mm512_maskz_extracti32x4_epi32(0xf, x, 3);
    }
}

/**
 * The counter lanes of the column body: 16 neurons of 32 bits or 8
 * of 64 bits per zmm register. `Mask` holds one bit per lane; a
 * 64-neuron word of a column holds kPerWord lane groups.
 */
struct Lanes32
{
    using Elem = std::uint32_t;
    using Mask = __mmask16;
    static constexpr std::size_t kLanes = 16;
    static constexpr std::size_t kPerWord = 4;

    SUSHI_AVX512_TARGET static __m512i
    set1(std::uint64_t x)
    {
        return _mm512_set1_epi32(static_cast<int>(x));
    }
    SUSHI_AVX512_TARGET static __m512i
    add(__m512i a, __m512i b)
    {
        return _mm512_add_epi32(a, b);
    }
    SUSHI_AVX512_TARGET static __m512i
    sub(__m512i a, __m512i b)
    {
        return _mm512_sub_epi32(a, b);
    }
    SUSHI_AVX512_TARGET static __m512i
    shr(__m512i x, unsigned k)
    {
        return (__m512i)((U32x16)x >> k);
    }
    SUSHI_AVX512_TARGET static __m512i
    maskAdd(__m512i a, Mask m, __m512i b)
    {
        return _mm512_mask_add_epi32(a, m, a, b);
    }
    /** Bits [o, o + 16) of the bitset at @p bits (o % 16 == 0). */
    SUSHI_AVX512_TARGET static Mask
    maskAt(const std::uint64_t *bits, std::size_t o)
    {
        std::uint16_t m;
        std::memcpy(&m, reinterpret_cast<const char *>(bits) + o / 8, 2);
        return m;
    }
    /** Lanes of group @p g of a 64-lane byte vector, widened. */
    SUSHI_AVX512_TARGET static __m512i
    widen(__m512i bytes, std::size_t g)
    {
        return _mm512_maskz_cvtepu8_epi32(0xffff, quarter(bytes, g));
    }
    SUSHI_AVX512_TARGET static Mask
    aboveOne(Mask on, __m512i x)
    {
        return _mm512_mask_cmpgt_epu32_mask(on, x, _mm512_set1_epi32(1));
    }
    /** The sum of the @p on lanes of @p x, in 64 bits. */
    SUSHI_AVX512_TARGET static std::uint64_t
    sum(Mask on, __m512i x)
    {
        const __m512i y = _mm512_maskz_mov_epi32(on, x);
        return laneSum(_mm512_add_epi64(
            _mm512_maskz_cvtepu32_epi64(
                0xff, _mm512_maskz_extracti64x4_epi64(0xf, y, 0)),
            _mm512_maskz_cvtepu32_epi64(
                0xff, _mm512_maskz_extracti64x4_epi64(0xf, y, 1))));
    }
    SUSHI_AVX512_TARGET static void
    storeOutputs(std::uint16_t *out, Mask on, __m512i x)
    {
        _mm512_mask_cvtepi32_storeu_epi16(out, on, x);
    }
    static const Elem *
    starts(const compiler::ColumnTable &t)
    {
        return t.start32.data();
    }
};

/** The 64-bit counterpart of Lanes32. */
struct Lanes64
{
    using Elem = std::uint64_t;
    using Mask = __mmask8;
    static constexpr std::size_t kLanes = 8;
    static constexpr std::size_t kPerWord = 8;

    SUSHI_AVX512_TARGET static __m512i
    set1(std::uint64_t x)
    {
        return _mm512_set1_epi64(static_cast<long long>(x));
    }
    SUSHI_AVX512_TARGET static __m512i
    add(__m512i a, __m512i b)
    {
        return _mm512_add_epi64(a, b);
    }
    SUSHI_AVX512_TARGET static __m512i
    sub(__m512i a, __m512i b)
    {
        return _mm512_sub_epi64(a, b);
    }
    SUSHI_AVX512_TARGET static __m512i
    shr(__m512i x, unsigned k)
    {
        return shiftRight(x, k);
    }
    SUSHI_AVX512_TARGET static __m512i
    maskAdd(__m512i a, Mask m, __m512i b)
    {
        return _mm512_mask_add_epi64(a, m, a, b);
    }
    SUSHI_AVX512_TARGET static Mask
    maskAt(const std::uint64_t *bits, std::size_t o)
    {
        return reinterpret_cast<const std::uint8_t *>(bits)[o / 8];
    }
    SUSHI_AVX512_TARGET static __m512i
    widen(__m512i bytes, std::size_t g)
    {
        __m128i part = quarter(bytes, g / 2);
        if (g % 2)
            part = _mm_unpackhi_epi64(part, part);
        return _mm512_maskz_cvtepu8_epi64(0xff, part);
    }
    SUSHI_AVX512_TARGET static Mask
    aboveOne(Mask on, __m512i x)
    {
        return _mm512_mask_cmpgt_epu64_mask(on, x, _mm512_set1_epi64(1));
    }
    SUSHI_AVX512_TARGET static std::uint64_t
    sum(Mask on, __m512i x)
    {
        return laneSum(_mm512_maskz_mov_epi64(on, x));
    }
    SUSHI_AVX512_TARGET static void
    storeOutputs(std::uint16_t *out, Mask on, __m512i x)
    {
        _mm512_mask_cvtepi64_storeu_epi16(out, on, x);
    }
    static const Elem *
    starts(const compiler::ColumnTable &t)
    {
        return t.start64.data();
    }
};

/** Planes a column sum can need: one per bit of a count < 2^32. */
constexpr std::size_t kMaxPlanes = 32;

/** Row j holds 2^j in each of 64 bytes: plane j's weight in byte
 *  lanes. */
struct PlaneWeights
{
    alignas(64) std::uint8_t row[8][64];
};
constexpr PlaneWeights kPlaneWeights = [] {
    PlaneWeights t{};
    for (unsigned j = 0; j < 8; ++j)
        for (auto &byte : t.row[j])
            byte = static_cast<std::uint8_t>(1u << j);
    return t;
}();

/** (h, l) = the carry and sum bits of a + b + c. */
SUSHI_AVX512_TARGET [[gnu::always_inline]] inline void
csa(__m512i &h, __m512i &l, __m512i a, __m512i b, __m512i c)
{
    h = _mm512_ternarylogic_epi64(a, b, c, 0xe8); // majority
    l = _mm512_ternarylogic_epi64(a, b, c, 0x96); // a ^ b ^ c
}

/** Add @p x, weighted 2^L, into the bit planes: planes 0-3 in
 *  @p low, the rest up to @p planes in @p plane. */
template <std::size_t L>
SUSHI_AVX512_TARGET [[gnu::always_inline]] inline void
ripple(__m512i (&low)[4], std::uint64_t (*plane)[8], std::size_t planes,
       __m512i x)
{
#pragma GCC unroll 4
    for (std::size_t j = L; j < 4; ++j) {
        const __m512i carry = _mm512_and_si512(low[j], x);
        low[j] = _mm512_xor_si512(low[j], x);
        x = carry;
    }
    for (std::size_t j = 4; j < planes; ++j) {
        const __m512i p = _mm512_load_si512(plane[j]);
        _mm512_store_si512(plane[j], _mm512_xor_si512(p, x));
        x = _mm512_and_si512(p, x);
    }
}

/** Fold the 2^M columns at byte offsets off[i] from @p base into
 *  planes 0..M-1 and return the carry, weighted 2^M. */
template <std::size_t M>
SUSHI_AVX512_TARGET [[gnu::always_inline]] inline __m512i
reduce(__m512i (&low)[4], const char *base, const std::uint32_t *off)
{
    __m512i a, b;
    if constexpr (M == 1) {
        a = _mm512_load_si512(base + off[0]);
        b = _mm512_load_si512(base + off[1]);
    } else {
        a = reduce<M - 1>(low, base, off);
        b = reduce<M - 1>(low, base, off + (std::size_t{1} << (M - 1)));
    }
    __m512i carry;
    csa(carry, low[M - 1], low[M - 1], a, b);
    return carry;
}

/**
 * Sum the @p n columns at byte offsets off[i] from @p base (one
 * chunk's lines) into bit planes: bit o of plane[j] is bit j of
 * neuron o's count. The columns go 16 at a time through a Harley–Seal
 * carry-save tree whose planes 0-3 stay in registers, the rest by 8,
 * 4, 2 and 1. Returns the number of planes, the bit width of n.
 */
SUSHI_AVX512_TARGET [[gnu::always_inline]] inline std::size_t
sumColumns(const char *base, const std::uint32_t *off, std::size_t n,
           std::uint64_t (*plane)[8])
{
    const auto planes = static_cast<std::size_t>(std::bit_width(n));
    for (std::size_t j = 4; j < planes; ++j)
        _mm512_store_si512(plane[j], _mm512_setzero_si512());
    __m512i low[4];
    for (__m512i &p : low)
        p = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        ripple<4>(low, plane, planes, reduce<4>(low, base, off + i));
    if (n - i >= 8) {
        ripple<3>(low, plane, planes, reduce<3>(low, base, off + i));
        i += 8;
    }
    if (n - i >= 4) {
        ripple<2>(low, plane, planes, reduce<2>(low, base, off + i));
        i += 4;
    }
    if (n - i >= 2) {
        ripple<1>(low, plane, planes, reduce<1>(low, base, off + i));
        i += 2;
    }
    if (n - i == 1)
        ripple<0>(low, plane, planes, _mm512_load_si512(base + off[i]));
#pragma GCC unroll 4
    for (std::size_t j = 0; j < 4; ++j)
        _mm512_store_si512(plane[j], low[j]);
    return planes;
}

/**
 * The column offsets (ColumnTable::offset) of vector @p b's active
 * positions, ascending, into @p off (room for words * 64 + 16
 * entries): 16 at a time by vpcompressd. Returns their count.
 */
SUSHI_AVX512_TARGET std::size_t
activeColumns(const LayerBatchPack &pack, std::size_t b,
              std::uint32_t stride, std::uint32_t *off)
{
    const __m512i lane = _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(static_cast<int>(stride)));
    std::size_t n = 0;
    for (std::size_t w = 0; w < pack.words; ++w) {
        const std::uint64_t x = pack.bits[w * pack.batch + b];
        if (x == 0)
            continue;
#pragma GCC unroll 4
        for (unsigned q = 0; q < 4; ++q) {
            const auto m = static_cast<__mmask16>(x >> (16 * q));
            const __m512i cols = _mm512_add_epi32(
                lane, _mm512_set1_epi32(static_cast<int>(
                          (w * 64 + 16 * q) * stride)));
            _mm512_storeu_si512(off + n, _mm512_maskz_compress_epi32(m, cols));
            n += static_cast<std::size_t>(__builtin_popcount(m));
        }
    }
    return n;
}

/** One bucket's pass over one 512-neuron chunk of a vector. */
template <class L>
struct ChunkPass
{
    using Elem = typename L::Elem;

    /** The bucket's inhibitory counts as bit planes. */
    const std::uint64_t (*plane)[8] = nullptr;
    std::size_t planes = 0;
    /** The bucket's total pulses. */
    std::uint64_t total = 0;
    /** The bucket's multi-pulse inputs and the chunk's column lines. */
    const ExtraPulses *extras = nullptr;
    std::size_t extra_count = 0;
    const char *lines = nullptr;
    std::uint32_t stride = 0;
    /** The chunk's enabled bits, counter starts, counters between
     *  buckets and outputs, over its 64-neuron words. */
    const std::uint64_t *enabled = nullptr;
    const Elem *start = nullptr;
    Elem *value = nullptr;
    Elem *spikes = nullptr;
    std::uint16_t *out = nullptr;
    std::size_t words = 0;
};

/**
 * Run one bucket's counters over a chunk: per 64-neuron word, planes
 * 0-7 become one byte per neuron by masked byte adds, then per lane
 * group the higher planes and the extras are added and the
 * closed-form recurrence of layerKernelBody runs. The first bucket
 * starts from the table's starts; the last writes the outputs and
 * counts multi-fires, the others keep the counters in value/spikes.
 */
template <class L, bool kFirst, bool kLast>
SUSHI_AVX512_TARGET [[gnu::always_inline]] inline void
runPass(const ChunkPass<L> &p, unsigned k, __m512i mask,
        __m512i &multi_fires, std::uint64_t &underflow)
{
    using Mask = typename L::Mask;
    const __m512i total = L::set1(p.total);
    const __m512i one = L::set1(1);
    const std::size_t byte_planes = std::min<std::size_t>(p.planes, 8);
    for (std::size_t w = 0; w < p.words; ++w) {
        __m512i bytes = _mm512_setzero_si512();
        for (std::size_t j = 0; j < byte_planes; ++j)
            bytes = _mm512_mask_add_epi8(
                bytes, static_cast<__mmask64>(p.plane[j][w]), bytes,
                _mm512_load_si512(kPlaneWeights.row[j]));
#pragma GCC unroll 8
        for (std::size_t q = 0; q < L::kPerWord; ++q) {
            const std::size_t o = (w * L::kPerWord + q) * L::kLanes;
            const Mask on = L::maskAt(p.enabled, o);
            __m512i n = L::widen(bytes, q);
            if (p.planes > 8)
                for (std::size_t j = 8; j < p.planes; ++j)
                    n = L::maskAdd(n, L::maskAt(p.plane[j], o),
                                   L::set1(std::uint64_t{1} << j));
            for (std::size_t x = 0; x < p.extra_count; ++x) {
                const auto *col = reinterpret_cast<const std::uint64_t *>(
                    p.lines + std::size_t{p.extras[x].pos} * p.stride);
                n = L::maskAdd(n, L::maskAt(col, o),
                               L::set1(p.extras[x].extra));
            }
            // v - n and mask - v, from the start when it is the first
            // bucket: v is start mod 2^K.
            __m512i from, below, sp;
            if constexpr (kFirst) {
                from = _mm512_load_si512(p.start + o);
                // ~from & mask, as one vpternlogq (GCC 12's
                // andnot intrinsic warns like the ones above).
                below = _mm512_ternarylogic_epi64(from, mask, mask, 0x0c);
                sp = L::shr(from, k);
            } else {
                from = _mm512_load_si512(p.value + o);
                below = _mm512_xor_si512(from, mask);
                sp = _mm512_load_si512(p.spikes + o);
            }
            // Inhibitory pass first within every bucket (Sec. 5.1),
            // then the excitatory pass.
            const __m512i borrows = L::shr(L::add(n, below), k);
            const __m512i up =
                L::add(_mm512_and_si512(L::sub(from, n), mask),
                       L::sub(total, n));
            sp = L::add(sp, L::add(borrows, L::shr(up, k)));
            if (_mm512_test_epi64_mask(borrows, borrows) != 0)
                underflow += L::sum(on, borrows);
            if constexpr (kLast) {
                multi_fires = L::maskAdd(multi_fires, L::aboveOne(on, sp), one);
                L::storeOutputs(p.out + o, on, sp);
            } else {
                _mm512_store_si512(p.value + o, _mm512_and_si512(up, mask));
                _mm512_store_si512(p.spikes + o, sp);
            }
        }
    }
}

/** One bucket's active inputs in a vector's column list, and its
 *  extras. */
struct BucketSlice
{
    std::size_t bucket;
    std::size_t begin, end;             ///< into the column list
    std::size_t extra_begin, extra_end; ///< into pack.extras
};

/**
 * The column body of the AVX-512 wrapper, for layers with a
 * ColumnTable. Per vector it lists the active inputs' columns once;
 * per 512-neuron chunk and bucket it sums those columns into bit
 * planes (sumColumns) and runs the bucket's counters (runPass) in L's
 * lanes. A bucket no input reached is skipped: it leaves every
 * counter as it is. Work scales with the inputs that fired, not with
 * in_dim. Lanes of disabled neurons and past out_dim are masked out
 * of every store and tally.
 */
template <class L>
SUSHI_AVX512_TARGET void
columnBody(const LayerKernelArgs &args, LayerStepStats *tally)
{
    using Elem = typename L::Elem;
    constexpr std::size_t kChunk = compiler::ColumnTable::kChunk;
    const compiler::CompiledLayer &layer = *args.layer;
    const compiler::ColumnTable &table = layer.columns;
    const LayerBatchPack &pack = *args.pack;
    const auto &buckets = layer.schedule.buckets;
    const unsigned k = args.state_bits;
    const __m512i mask = L::set1((std::uint64_t{1} << k) - 1);
    const auto stride = static_cast<std::uint32_t>(table.stride());

    thread_local std::vector<std::uint32_t> column_list;
    thread_local std::vector<BucketSlice> slice_list;
    column_list.resize(pack.words * 64 + 16);
    std::uint32_t *const columns = column_list.data();
    std::vector<BucketSlice> &slices = slice_list;
    alignas(64) Elem value[kChunk];
    alignas(64) Elem spikes[kChunk];
    alignas(64) std::uint64_t plane[kMaxPlanes][8];

    for (std::size_t b = 0; b < pack.batch; ++b) {
        const std::size_t active = activeColumns(pack, b, stride, columns);
        // Buckets are ascending ranges over positions, as are the
        // column list and the vector's extras.
        slices.clear();
        std::size_t i = 0;
        std::size_t e = pack.extra_begin[b];
        for (std::size_t bk = 0; bk < buckets.size(); ++bk) {
            const auto begin =
                static_cast<std::uint32_t>(buckets[bk].begin) * stride;
            const auto end =
                static_cast<std::uint32_t>(buckets[bk].end) * stride;
            while (i < active && columns[i] < begin)
                ++i;
            BucketSlice s{bk, i, i, e, e};
            while (i < active && columns[i] < end)
                ++i;
            s.end = i;
            while (e < pack.extra_begin[b + 1] && pack.extras[e].bucket == bk)
                ++e;
            s.extra_end = e;
            if (s.end > s.begin)
                slices.push_back(s);
        }

        std::uint64_t underflow = 0;
        __m512i multi_fires = _mm512_setzero_si512();
        for (std::size_t c = 0; c < table.chunks; ++c) {
            ChunkPass<L> p;
            p.plane = plane;
            p.lines = reinterpret_cast<const char *>(table.line(c, 0));
            p.stride = stride;
            p.enabled = table.enabled.data() + c * 8;
            p.start = L::starts(table) + c * kChunk;
            p.value = value;
            p.spikes = spikes;
            p.out = args.out + b * args.out_dim + c * kChunk;
            p.words = (std::min(kChunk, args.out_dim - c * kChunk) + 63) / 64;
            if (slices.empty()) {
                // No input fired: the counters keep their starts.
                runPass<L, true, true>(p, k, mask, multi_fires, underflow);
                continue;
            }
            for (std::size_t si = 0; si < slices.size(); ++si) {
                const BucketSlice &s = slices[si];
                p.planes = sumColumns(p.lines, columns + s.begin,
                                      s.end - s.begin, plane);
                p.total = pack.bucket_pulses[s.bucket * pack.batch + b];
                p.extras = pack.extras.data() + s.extra_begin;
                p.extra_count = s.extra_end - s.extra_begin;
                const bool first = si == 0;
                const bool last = si + 1 == slices.size();
                if (first && last)
                    runPass<L, true, true>(p, k, mask, multi_fires, underflow);
                else if (first)
                    runPass<L, true, false>(p, k, mask, multi_fires,
                                            underflow);
                else if (last)
                    runPass<L, false, true>(p, k, mask, multi_fires,
                                            underflow);
                else
                    runPass<L, false, false>(p, k, mask, multi_fires,
                                             underflow);
            }
        }
        tally[b].underflow_spikes += underflow;
        tally[b].multi_fires += L::sum(static_cast<typename L::Mask>(~0u),
                                       multi_fires);
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
    const compiler::ColumnTable &columns = args.layer->columns;
    const std::size_t batch = args.pack->batch;
    if (columns.lanes32) {
        columnBody<Lanes32>(args, tally);
    } else if (!columns.empty()) {
        columnBody<Lanes64>(args, tally);
    } else {
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

bool
SpikeFrames::assign(std::span<const std::vector<std::uint8_t>> frames,
                    std::size_t width)
{
    width_ = width;
    words_ = (width + 63) / 64;
    bits_.resize(frames.size() * words_);
    active_.resize(frames.size());
    // Every byte OR-ed together: a value outside {0, 1} sets a bit
    // above bit 0. Until that is ruled out, a frame's byte sum stands
    // in for its set-bit count.
    std::uint8_t seen = 0;
#if defined(__x86_64__)
    const __m128i zero = _mm_setzero_si128();
    __m128i seen16 = zero;
#endif
    for (std::size_t t = 0; t < frames.size(); ++t) {
        if (frames[t].size() != width) {
            *this = SpikeFrames{};
            return false;
        }
        std::uint64_t *out = bits_.data() + t * words_;
        std::uint64_t n = 0;
#if defined(__x86_64__)
        __m128i sums = zero; // byte sums, per 8-byte half
#endif
        for (std::size_t w = 0; w < words_; ++w) {
            const std::uint8_t *x = frames[t].data() + w * 64;
            const std::size_t len = std::min<std::size_t>(64, width - w * 64);
            std::uint64_t word = 0;
            std::size_t j = 0;
#if defined(__x86_64__)
            // SSE2, 16 bytes per step: each byte's low bit shifted to
            // its top bit, then one movemask. A whole word's four steps
            // are independent, so they are written out.
            const auto step = [&](std::size_t at) {
                const __m128i v = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(x + at));
                seen16 = _mm_or_si128(seen16, v);
                sums = _mm_add_epi64(sums, _mm_sad_epu8(v, zero));
                return std::uint64_t{static_cast<std::uint16_t>(
                           _mm_movemask_epi8(_mm_slli_epi64(v, 7)))}
                       << at;
            };
            if (len == 64) {
                word = (step(0) | step(16)) | (step(32) | step(48));
                j = 64;
            }
            for (; j + 16 <= len; j += 16)
                word |= step(j);
#endif
            for (; j < len; ++j) {
                seen |= x[j];
                n += x[j];
                word |= std::uint64_t{x[j] & 1u} << j;
            }
            out[w] = word;
        }
#if defined(__x86_64__)
        n += static_cast<std::uint64_t>(
            _mm_cvtsi128_si64(sums) +
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(sums, sums)));
#endif
        active_[t] = static_cast<std::uint32_t>(n);
    }
#if defined(__x86_64__)
    const __m128i high = _mm_and_si128(seen16, _mm_set1_epi8(-2));
    if (_mm_movemask_epi8(_mm_cmpeq_epi8(high, zero)) != 0xffff)
        seen |= 2;
#endif
    if (seen > 1) {
        *this = SpikeFrames{};
        return false;
    }
    return true;
}

SpikeFrames
packFrames(std::span<const std::vector<std::uint8_t>> frames,
           std::size_t width)
{
    for (std::size_t t = 0; t < frames.size(); ++t)
        if (frames[t].size() != width)
            throw std::invalid_argument(
                "frame " + std::to_string(t) + " is " +
                std::to_string(frames[t].size()) +
                " wide, not the input width " + std::to_string(width));
    SpikeFrames out;
    if (!out.assign(frames, width))
        throw std::invalid_argument(
            "a frame holds a value outside {0, 1}");
    return out;
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
    detail::packLayerBatch(layer, in, *pack_);
    runPackedLayer(layer, out_dim, in.batch, out, tallies);
}

void
SushiChip::runPackedLayer(const compiler::CompiledLayer &layer,
                          std::size_t out_dim, std::size_t batch,
                          PulseBatch &out, LayerStepStats *tallies)
{
    out.reset(batch, out_dim);
    std::fill(tallies, tallies + batch, LayerStepStats{});
    for (std::size_t b = 0; b < batch; ++b)
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
    out.steps.resize(net.layers.size() * in.batch);
    stepLayersFrom(net, 0, in, out);
}

void
SushiChip::stepNetworkBatch(const compiler::CompiledNetwork &net,
                            std::span<const SpikeFrames *const> samples,
                            NetworkBatch &out)
{
    sushi_assert(net.net != nullptr);
    sushi_assert(net.layers.size() == net.net->layers().size());
    sushi_assert(!net.layers.empty());
    const snn::BinaryLayer &first = net.net->layers().front();
    std::size_t batch = 0;
    for (const SpikeFrames *s : samples) {
        if (s->width() != first.inDim())
            throw std::invalid_argument(
                "frame width " + std::to_string(s->width()) +
                " != layer input width " +
                std::to_string(first.inDim()));
        batch += s->frames();
    }
    const std::size_t layers = net.layers.size();
    out.steps.resize(layers * batch);
    detail::packLayerFrames(net.layers[0], samples, *pack_);
    PulseBatch &dst = layers == 1 ? out.out : hidden_[0];
    runPackedLayer(net.layers[0], first.outDim(), batch, dst,
                   out.steps.data());
    if (layers > 1)
        stepLayersFrom(net, 1, dst, out);
}

void
SushiChip::stepLayersFrom(const compiler::CompiledNetwork &net,
                          std::size_t first, const PulseBatch &src,
                          NetworkBatch &out)
{
    // Hidden activations ping-pong through chip buffers; the last
    // layer writes the caller's batch.
    const std::size_t layers = net.layers.size();
    const std::size_t batch = src.batch;
    const PulseBatch *in = &src;
    for (std::size_t l = first; l < layers; ++l) {
        PulseBatch &dst = l + 1 == layers ? out.out : hidden_[l % 2];
        stepLayerBatch(net.layers[l], net.net->layers()[l], *in, dst,
                       out.steps.data() + l * batch);
        in = &dst;
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
    const SpikeFrames packed = packFrames(frames, layers.front().inDim());
    const SpikeFrames *const sample = &packed;
    stepNetworkBatch(net, {&sample, 1}, single_run_);

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
