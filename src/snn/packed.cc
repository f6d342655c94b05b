#include "snn/packed.hh"

#include <algorithm>
#include <cmath>

#include "common/kernel_isa.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "snn/binarize.hh"
#include "snn/packed_kernel.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sushi::snn::packed {

namespace {

/** Bit k = binaryPositive(w[k]) for k < n <= 64, without a branch
 *  per weight. SSE's `0 <= w` is binaryPositive's `w >= 0`: true
 *  for -0, false for NaN. */
std::uint64_t
signWord(const float *w, std::size_t n)
{
    std::uint64_t bits = 0;
    std::size_t k = 0;
#if defined(__x86_64__)
    const __m128 zero = _mm_setzero_ps();
    for (; k + 4 <= n; k += 4)
        bits |= static_cast<std::uint64_t>(_mm_movemask_ps(
                    _mm_cmpge_ps(_mm_loadu_ps(w + k), zero)))
                << k;
#endif
    for (; k < n; ++k)
        bits |= static_cast<std::uint64_t>(binaryPositive(w[k])) << k;
    return bits;
}

/** Bit k = (x[k] == 1) for k < n <= 64; clears @p ok if an x[k] is
 *  neither 0 nor 1 (NaN is neither; -0 == 0). */
std::uint64_t
spikeWord(const float *x, std::size_t n, bool &ok)
{
    std::uint64_t bits = 0, known = 0;
    std::size_t k = 0;
#if defined(__x86_64__)
    const __m128 zero = _mm_setzero_ps();
    const __m128 one = _mm_set1_ps(1.0f);
    for (; k + 4 <= n; k += 4) {
        const __m128 v = _mm_loadu_ps(x + k);
        const __m128 is_one = _mm_cmpeq_ps(v, one);
        bits |= static_cast<std::uint64_t>(_mm_movemask_ps(is_one))
                << k;
        known |= static_cast<std::uint64_t>(_mm_movemask_ps(
                     _mm_or_ps(is_one, _mm_cmpeq_ps(v, zero))))
                 << k;
    }
#endif
    for (; k < n; ++k) {
        bits |= static_cast<std::uint64_t>(x[k] == 1.0f) << k;
        known |= static_cast<std::uint64_t>(x[k] == 1.0f ||
                                            x[k] == 0.0f)
                 << k;
    }
    const std::uint64_t all = n == 64 ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << n) - 1;
    ok = ok && known == all;
    return bits;
}

} // namespace

void
packRows(const std::uint8_t *const *rows, std::size_t batch,
         std::size_t bits, PackedActivations &out)
{
    out.batch = batch;
    out.bits = bits;
    out.words = laneWords(bits);
    out.lanes.assign(batch * out.words, 0);
    out.active.assign(batch, 0);
    for (std::size_t b = 0; b < batch; ++b) {
        const std::uint8_t *src = rows[b];
        std::uint64_t *dst = out.lanes.data() + b * out.words;
        std::int32_t count = 0;
        for (std::size_t i = 0; i < bits; ++i) {
            if (src[i] != 0) {
                dst[i / 64] |= std::uint64_t{1} << (i % 64);
                ++count;
            }
        }
        out.active[b] = count;
    }
}

void
packRow(const std::vector<std::uint8_t> &frame, PackedActivations &out)
{
    const std::uint8_t *row = frame.data();
    packRows(&row, 1, frame.size(), out);
}

bool
packFloatRows(const Tensor &x, PackedActivations &out)
{
    const std::size_t batch = x.rows();
    const std::size_t bits = x.cols();
    out.batch = batch;
    out.bits = bits;
    out.words = laneWords(bits);
    out.lanes.resize(batch * out.words);
    out.active.resize(batch);
    bool ok = true;
    for (std::size_t b = 0; b < batch && ok; ++b) {
        const float *src = x.row(b);
        std::uint64_t *dst = out.lanes.data() + b * out.words;
        std::uint64_t count = 0;
        for (std::size_t w = 0; w < out.words; ++w) {
            dst[w] = spikeWord(src + 64 * w,
                               std::min<std::size_t>(64, bits - 64 * w),
                               ok);
            count += PortablePopcount::count(dst[w]);
        }
        out.active[b] = static_cast<std::int32_t>(count);
    }
    return ok;
}

PackedLayer
PackedLayer::fromSigned(
    const std::vector<std::vector<std::int8_t>> &weights,
    const std::vector<int> &thresholds)
{
    PackedLayer layer;
    layer.out_dim_ = weights.size();
    layer.in_dim_ = weights.empty() ? 0 : weights[0].size();
    layer.words_ = laneWords(layer.in_dim_);
    layer.signs_.assign(layer.out_dim_ * layer.words_, 0);
    layer.thresholds_ = thresholds;
    sushi_assert(thresholds.size() == weights.size());
    for (std::size_t o = 0; o < layer.out_dim_; ++o) {
        const auto &row = weights[o];
        if (row.size() != layer.in_dim_)
            return layer; // ragged: not packable
        std::uint64_t *dst = layer.signs_.data() + o * layer.words_;
        for (std::size_t i = 0; i < layer.in_dim_; ++i) {
            if (row[i] == 1)
                dst[i / 64] |= std::uint64_t{1} << (i % 64);
            else if (row[i] != -1)
                return layer; // zero or junk weight: not packable
        }
    }
    layer.packable_ = true;
    return layer;
}

PackedLayer
PackedLayer::fromEffective(const Tensor &w,
                           const std::vector<float> &bias)
{
    PackedLayer layer;
    layer.out_dim_ = w.rows();
    layer.in_dim_ = w.cols();
    layer.words_ = laneWords(layer.in_dim_);
    layer.signs_.assign(layer.out_dim_ * layer.words_, 0);
    layer.alpha_.resize(layer.out_dim_);
    layer.bias_ = bias;
    if (bias.size() != layer.out_dim_ || layer.in_dim_ == 0)
        return layer;
    for (std::size_t o = 0; o < layer.out_dim_; ++o) {
        const float *row = w.row(o);
        const float alpha = std::fabs(row[0]);
        // `> 0` also rejects NaN rows (every comparison is false).
        if (!(alpha > 0.0f))
            return layer;
        std::uint64_t *dst = layer.signs_.data() + o * layer.words_;
        for (std::size_t i = 0; i < layer.in_dim_; ++i) {
            if (row[i] == alpha)
                dst[i / 64] |= std::uint64_t{1} << (i % 64);
            else if (row[i] != -alpha)
                return layer; // row is not uniform +-alpha
        }
        layer.alpha_[o] = alpha;
    }
    layer.packable_ = true;
    return layer;
}

PackedLayer
PackedLayer::fromFloat(const Tensor &w, const std::vector<float> &bias)
{
    PackedLayer layer;
    layer.out_dim_ = w.rows();
    layer.in_dim_ = w.cols();
    layer.words_ = laneWords(layer.in_dim_);
    layer.signs_.resize(layer.out_dim_ * layer.words_);
    layer.alpha_.resize(layer.out_dim_);
    layer.bias_ = bias;
    if (bias.size() != layer.out_dim_ || layer.in_dim_ == 0)
        return layer;
    const std::vector<double> alpha = rowAlphas(w);
    bool ok = true;
    for (std::size_t o = 0; o < layer.out_dim_; ++o) {
        const float *row = w.row(o);
        std::uint64_t *dst = layer.signs_.data() + o * layer.words_;
        for (std::size_t k = 0; k < layer.words_; ++k)
            dst[k] = signWord(row + 64 * k,
                              std::min<std::size_t>(
                                  64, layer.in_dim_ - 64 * k));
        // The float binaryEffectiveWeights writes; `> 0` is false for
        // a mean that rounds to zero (fromEffective's refusal).
        layer.alpha_[o] = static_cast<float>(alpha[o]);
        ok = ok && layer.alpha_[o] > 0.0f;
    }
    layer.packable_ = ok;
    return layer;
}

namespace detail {

namespace {

/** The one body every andPopcount wrapper compiles. */
template <class Pop>
[[gnu::always_inline]] inline std::int32_t
andPopcountBody(const std::uint64_t *a, const std::uint64_t *b,
                std::size_t words)
{
    std::uint64_t count = 0;
    for (std::size_t w = 0; w < words; ++w)
        count += Pop::count(a[w] & b[w]);
    return static_cast<std::int32_t>(count);
}

#if defined(__x86_64__)
/** Eight words per vpopcntq; the tail through a masked load. Plain
 *  inline: the wrapper's `flatten` inlines it. */
template <>
__attribute__((target("avx512f,avx512vpopcntdq"))) inline std::int32_t
andPopcountBody<Avx512Popcount>(const std::uint64_t *a,
                                const std::uint64_t *b,
                                std::size_t words)
{
    __m512i count = _mm512_setzero_si512();
    for (std::size_t w = 0; w < words; w += 8) {
        const auto lanes = static_cast<__mmask8>(
            words - w >= 8 ? 0xff : (1u << (words - w)) - 1);
        const __m512i x = _mm512_maskz_loadu_epi64(lanes, a + w);
        const __m512i y = _mm512_maskz_loadu_epi64(lanes, b + w);
        count = _mm512_add_epi64(
            count, _mm512_popcnt_epi64(_mm512_and_si512(x, y)));
    }
    // Lane sum by hand: GCC 12's _mm512_reduce_add_epi64 trips
    // -Wuninitialized inside its own header.
    std::uint64_t lane[8];
    _mm512_storeu_si512(lane, count);
    std::uint64_t total = 0;
    for (const std::uint64_t l : lane)
        total += l;
    return static_cast<std::int32_t>(total);
}
#endif

/** The one body every andPopcountLanes wrapper compiles. */
template <class Pop>
[[gnu::always_inline]] inline void
andPopcountLanesBody(const std::uint64_t *sign, const std::uint64_t *xt,
                     std::size_t words, std::size_t lanes,
                     std::int32_t *counts)
{
    std::fill(counts, counts + lanes, 0);
    for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t s = sign[w];
        const std::uint64_t *x = xt + w * lanes;
        for (std::size_t b = 0; b < lanes; ++b)
            counts[b] += static_cast<std::int32_t>(Pop::count(x[b] & s));
    }
}

#if defined(__x86_64__)
/** One vpopcntq per kLanes samples per word, against the neuron's
 *  sign word broadcast to every lane. */
template <>
__attribute__((target("avx512f,avx512vpopcntdq"))) inline void
andPopcountLanesBody<Avx512Popcount>(const std::uint64_t *sign,
                                     const std::uint64_t *xt,
                                     std::size_t words, std::size_t lanes,
                                     std::int32_t *counts)
{
    for (std::size_t b = 0; b < lanes; b += kLanes) {
        __m512i count = _mm512_setzero_si512();
        for (std::size_t w = 0; w < words; ++w) {
            const __m512i x = _mm512_loadu_si512(xt + w * lanes + b);
            const __m512i s =
                _mm512_set1_epi64(static_cast<long long>(sign[w]));
            count = _mm512_add_epi64(
                count, _mm512_popcnt_epi64(_mm512_and_si512(x, s)));
        }
        _mm512_mask_cvtepi64_storeu_epi32(counts + b, 0xff, count);
    }
}
#endif

} // namespace

void
andPopcountLanesPortable(const std::uint64_t *sign,
                         const std::uint64_t *xt, std::size_t words,
                         std::size_t lanes, std::int32_t *counts)
{
    andPopcountLanesBody<PortablePopcount>(sign, xt, words, lanes,
                                           counts);
}

#if defined(__x86_64__)
__attribute__((target("popcnt"))) void
andPopcountLanesPopcnt(const std::uint64_t *sign, const std::uint64_t *xt,
                       std::size_t words, std::size_t lanes,
                       std::int32_t *counts)
{
    andPopcountLanesBody<HardwarePopcount>(sign, xt, words, lanes,
                                           counts);
}

__attribute__((target("popcnt,avx512f,avx512vpopcntdq"), flatten)) void
andPopcountLanesAvx512(const std::uint64_t *sign, const std::uint64_t *xt,
                       std::size_t words, std::size_t lanes,
                       std::int32_t *counts)
{
    andPopcountLanesBody<Avx512Popcount>(sign, xt, words, lanes, counts);
}
#endif

AndPopcountLanesFn
andPopcountLanes()
{
#if defined(__x86_64__)
    static const AndPopcountLanesFn fn = [] {
        switch (selectedKernelIsa()) {
        case KernelIsa::Avx512Vpopcnt:
            return andPopcountLanesAvx512;
        case KernelIsa::Popcnt:
            return andPopcountLanesPopcnt;
        default:
            return andPopcountLanesPortable;
        }
    }();
    return fn;
#else
    return andPopcountLanesPortable;
#endif
}

std::int32_t
andPopcountPortable(const std::uint64_t *a, const std::uint64_t *b,
                    std::size_t words)
{
    return andPopcountBody<PortablePopcount>(a, b, words);
}

#if defined(__x86_64__)
__attribute__((target("popcnt"))) std::int32_t
andPopcountPopcnt(const std::uint64_t *a, const std::uint64_t *b,
                  std::size_t words)
{
    return andPopcountBody<HardwarePopcount>(a, b, words);
}

__attribute__((target("popcnt,avx512f,avx512vpopcntdq"), flatten))
std::int32_t
andPopcountAvx512(const std::uint64_t *a, const std::uint64_t *b,
                  std::size_t words)
{
    return andPopcountBody<Avx512Popcount>(a, b, words);
}
#endif

AndPopcountFn
andPopcount()
{
#if defined(__x86_64__)
    static const AndPopcountFn fn = [] {
        switch (selectedKernelIsa()) {
        case KernelIsa::Avx512Vpopcnt:
            return andPopcountAvx512;
        case KernelIsa::Popcnt:
            return andPopcountPopcnt;
        default:
            return andPopcountPortable;
        }
    }();
    return fn;
#else
    return andPopcountPortable;
#endif
}

} // namespace detail

int
PackedLayer::dot(std::size_t o, const std::uint64_t *x,
                 std::int32_t active) const
{
    return 2 * detail::andPopcount()(x, signRow(o), words_) - active;
}

namespace {

/** Integer dot of neuron @p o the slow way: one sign bit at a time,
 *  accumulating +-1 per active input — the element-by-element oracle
 *  the packed backend must match bit for bit. */
int
scalarDot(const PackedLayer &layer, std::size_t o,
          const std::uint64_t *x, std::size_t bits)
{
    const std::uint64_t *s = layer.signRow(o);
    int acc = 0;
    for (std::size_t i = 0; i < bits; ++i) {
        if (x[i / 64] >> (i % 64) & 1)
            acc += (s[i / 64] >> (i % 64) & 1) ? 1 : -1;
    }
    return acc;
}

/** Shared batch-major driver: fn(o, b, dot) for every (neuron,
 *  sample) pair, neurons split across the pool. */
template <typename Fn>
void
forEachDot(const PackedLayer &layer, const PackedActivations &x,
           Backend backend, int threads, Fn &&fn)
{
    sushi_assert(layer.packable());
    sushi_assert(x.bits == layer.inDim());
    const std::size_t batch = x.batch;
    ParallelOptions opts;
    opts.grain = 16;
    opts.max_workers =
        threads <= 0 ? 0 : static_cast<unsigned>(threads);
    parallelFor(
        layer.outDim(),
        [&](std::size_t o0, std::size_t o1) {
            for (std::size_t o = o0; o < o1; ++o) {
                for (std::size_t b = 0; b < batch; ++b) {
                    const std::uint64_t *xb = x.row(b);
                    const int d =
                        backend == Backend::Packed
                            ? layer.dot(o, xb, x.active[b])
                            : scalarDot(layer, o, xb, x.bits);
                    fn(o, b, d);
                }
            }
        },
        opts);
}

} // namespace

void
spikeForward(const PackedLayer &layer, const PackedActivations &x,
             std::uint8_t *spikes, Backend backend, int threads)
{
    sushi_assert(!layer.thresholds().empty() ||
                 layer.outDim() == 0);
    const std::size_t out_dim = layer.outDim();
    const auto &thr = layer.thresholds();
    forEachDot(layer, x, backend, threads,
               [&](std::size_t o, std::size_t b, int d) {
                   spikes[b * out_dim + o] = d >= thr[o] ? 1 : 0;
               });
}

void
effectiveForward(const PackedLayer &layer, const PackedActivations &x,
                 Tensor &out, Backend backend, int threads)
{
    sushi_assert(out.rows() == x.batch &&
                 out.cols() == layer.outDim());
    const auto &alpha = layer.alpha();
    const auto &bias = layer.bias();
    sushi_assert(alpha.size() == layer.outDim());
    // One shared epilogue: both backends produce the identical
    // float, so packed == scalar bitwise.
    const auto charge = [&](std::size_t o, int d) {
        return bias[o] + alpha[o] * static_cast<float>(d);
    };
    if (backend == Backend::Scalar) {
        forEachDot(layer, x, backend, threads,
                   [&](std::size_t o, std::size_t b, int d) {
                       out.at(b, o) = charge(o, d);
                   });
        return;
    }
    sushi_assert(layer.packable());
    sushi_assert(x.bits == layer.inDim());

    // Batch lanes: the samples word-major, padded with zero samples
    // to whole lane vectors, so each word of a neuron's signs meets
    // kLanes samples per popcount.
    using detail::kLanes;
    const std::size_t words = layer.words();
    const std::size_t lanes = (x.batch + kLanes - 1) / kLanes * kLanes;
    std::vector<std::uint64_t> xt(words * lanes, 0);
    for (std::size_t b = 0; b < x.batch; ++b)
        for (std::size_t w = 0; w < words; ++w)
            xt[w * lanes + b] = x.row(b)[w];
    const detail::AndPopcountLanesFn lanes_fn = detail::andPopcountLanes();
    ParallelOptions opts;
    opts.grain = 16;
    opts.max_workers =
        threads <= 0 ? 0 : static_cast<unsigned>(threads);
    parallelFor(
        layer.outDim(),
        [&](std::size_t o0, std::size_t o1) {
            std::vector<std::int32_t> counts(lanes);
            for (std::size_t o = o0; o < o1; ++o) {
                lanes_fn(layer.signRow(o), xt.data(), words, lanes,
                         counts.data());
                for (std::size_t b = 0; b < x.batch; ++b)
                    out.at(b, o) = charge(o, 2 * counts[b] - x.active[b]);
            }
        },
        opts);
}

} // namespace sushi::snn::packed
