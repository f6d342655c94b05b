#include "snn/tensor.hh"

#include <cmath>
#include <cstdint>

#include "common/kernel_isa.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "snn/tensor_kernel.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sushi::snn {

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
{
}

void
Tensor::zero()
{
    std::fill(data_.begin(), data_.end(), 0.0f);
}

void
Tensor::heInit(Rng &rng, std::size_t fan_in)
{
    const double std = std::sqrt(2.0 / static_cast<double>(fan_in));
    for (auto &v : data_)
        v = static_cast<float>(rng.gaussian(0.0, std));
}

void
linearForward(const Tensor &x, const Tensor &w,
              const std::vector<float> &bias, Tensor &out)
{
    const std::size_t batch = x.rows();
    const std::size_t in_dim = x.cols();
    const std::size_t out_dim = w.rows();
    sushi_assert(w.cols() == in_dim);
    sushi_assert(bias.size() == out_dim);
    sushi_assert(out.rows() == batch && out.cols() == out_dim);

    if (batch >= 256) {
        // Large batches: parallelise over rows.
        parallelFor(batch, [&](std::size_t b0, std::size_t b1) {
            for (std::size_t b = b0; b < b1; ++b) {
                const float *xb = x.row(b);
                float *ob = out.row(b);
                for (std::size_t o = 0; o < out_dim; ++o) {
                    const float *wo = w.row(o);
                    float acc = bias[o];
                    for (std::size_t i = 0; i < in_dim; ++i)
                        acc += wo[i] * xb[i];
                    ob[o] = acc;
                }
            }
        });
        return;
    }
    // Training-size batches: parallelise over output neurons, which
    // is the wide dimension (e.g. 800 hidden units at batch 64).
    parallelFor(out_dim, [&](std::size_t o0, std::size_t o1) {
        for (std::size_t o = o0; o < o1; ++o) {
            const float *wo = w.row(o);
            for (std::size_t b = 0; b < batch; ++b) {
                const float *xb = x.row(b);
                float acc = bias[o];
                for (std::size_t i = 0; i < in_dim; ++i)
                    acc += wo[i] * xb[i];
                out.at(b, o) = acc;
            }
        }
    });
}

void
linearInputGrad(const Tensor &w, const Tensor &dout, Tensor &dx)
{
    const std::size_t batch = dx.rows();
    const std::size_t in_dim = dx.cols();
    const std::size_t out_dim = w.rows();
    sushi_assert(w.cols() == in_dim);
    sushi_assert(dout.rows() == batch && dout.cols() == out_dim);

    parallelFor(batch, [&](std::size_t b0, std::size_t b1) {
        for (std::size_t b = b0; b < b1; ++b) {
            const float *dob = dout.row(b);
            float *dxb = dx.row(b);
            std::fill(dxb, dxb + in_dim, 0.0f);
            for (std::size_t o = 0; o < out_dim; ++o) {
                const float g = dob[o];
                if (g == 0.0f)
                    continue;
                const float *wo = w.row(o);
                for (std::size_t i = 0; i < in_dim; ++i)
                    dxb[i] += g * wo[i];
            }
        }
    });
}

namespace {

/**
 * Non-zero inputs of a batch, listed by input column: column i owns
 * entries [first[i], first[i + 1]) of row/value, in ascending row
 * order.
 */
struct ActiveColumns
{
    std::vector<std::size_t> first;
    std::vector<std::uint32_t> row;
    std::vector<float> value;

    explicit ActiveColumns(const Tensor &x) : first(x.cols() + 1, 0)
    {
        // Count each column's non-zero inputs, then place them row by
        // row; a row's non-zero inputs are listed first, without a
        // branch per input.
        for (std::size_t b = 0; b < x.rows(); ++b) {
            const float *xb = x.row(b);
            for (std::size_t i = 0; i < x.cols(); ++i)
                first[i + 1] += xb[i] != 0.0f ? 1 : 0;
        }
        for (std::size_t i = 0; i < x.cols(); ++i)
            first[i + 1] += first[i];
        row.resize(first.back());
        value.resize(first.back());
        std::vector<std::size_t> next(first.begin(), first.end() - 1);
        std::vector<std::uint32_t> listed(x.cols());
        for (std::size_t b = 0; b < x.rows(); ++b) {
            const float *xb = x.row(b);
            std::size_t n = 0;
            for (std::size_t i = 0; i < x.cols(); ++i) {
                listed[n] = static_cast<std::uint32_t>(i);
                n += xb[i] != 0.0f ? 1 : 0;
            }
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t i = listed[k];
                row[next[i]] = static_cast<std::uint32_t>(b);
                value[next[i]++] = xb[i];
            }
        }
    }
};

/**
 * dw_t[i, o .. o + W) += x[b, i] * dout[b, o .. o + W) for every
 * active input, one input column at a time: the W accumulators stay
 * in registers while the column's rows are added in ascending order.
 */
template <std::size_t W>
void
addColumns(const ActiveColumns &act, const Tensor &dout, Tensor &dw_t,
           std::size_t o)
{
    for (std::size_t i = 0; i + 1 < act.first.size(); ++i) {
        if (act.first[i] == act.first[i + 1])
            continue;
        float *dwi = dw_t.row(i) + o;
        float acc[W];
        for (std::size_t k = 0; k < W; ++k)
            acc[k] = dwi[k];
        for (std::size_t p = act.first[i]; p < act.first[i + 1]; ++p) {
            const float *g = dout.row(act.row[p]) + o;
            const float xv = act.value[p];
            for (std::size_t k = 0; k < W; ++k)
                acc[k] += g[k] * xv;
        }
        for (std::size_t k = 0; k < W; ++k)
            dwi[k] = acc[k];
    }
}

/** Output columns per portable register block: four SSE vectors. */
constexpr std::size_t kColumnBlock = 16;

/**
 * The body every wrapper shares: db, the active-input lists, then
 * jobs over disjoint runs of kColumnBlock-column blocks of dw_t (at
 * least 4 blocks each), which @p add_blocks(act, k0, k1) accumulates;
 * the last out_dim % kColumnBlock columns run one at a time.
 */
template <class AddBlocks>
void
weightGradBody(const Tensor &x, const Tensor &dout, Tensor &dw_t,
               std::vector<float> &db, AddBlocks &&add_blocks)
{
    const std::size_t batch = x.rows();
    const std::size_t in_dim = x.cols();
    const std::size_t out_dim = dout.cols();
    sushi_assert(dout.rows() == batch);
    sushi_assert(dw_t.rows() == in_dim && dw_t.cols() == out_dim);
    sushi_assert(db.size() == out_dim);

    // db += colsum(dout), summed over rows in ascending order first.
    std::vector<float> dbsum(out_dim, 0.0f);
    for (std::size_t b = 0; b < batch; ++b) {
        const float *dob = dout.row(b);
        for (std::size_t o = 0; o < out_dim; ++o)
            dbsum[o] += dob[o];
    }
    for (std::size_t o = 0; o < out_dim; ++o)
        db[o] += dbsum[o];

    const ActiveColumns act(x);
    const std::size_t blocks = out_dim / kColumnBlock;
    ParallelOptions opts;
    opts.grain = 4;
    parallelFor(
        blocks,
        [&](std::size_t k0, std::size_t k1) { add_blocks(act, k0, k1); },
        opts);
    for (std::size_t o = blocks * kColumnBlock; o < out_dim; ++o)
        addColumns<1>(act, dout, dw_t, o);
}

#if defined(__x86_64__)
/** addColumns<64> in four zmm accumulators. A multiply then an add,
 *  never an FMA: the library is built -ffp-contract=off, so the
 *  products round exactly as the portable blocks' do. */
__attribute__((target("avx512f"))) void
addColumns64(const ActiveColumns &act, const Tensor &dout, Tensor &dw_t,
             std::size_t o)
{
    for (std::size_t i = 0; i + 1 < act.first.size(); ++i) {
        if (act.first[i] == act.first[i + 1])
            continue;
        float *dwi = dw_t.row(i) + o;
        __m512 a0 = _mm512_loadu_ps(dwi);
        __m512 a1 = _mm512_loadu_ps(dwi + 16);
        __m512 a2 = _mm512_loadu_ps(dwi + 32);
        __m512 a3 = _mm512_loadu_ps(dwi + 48);
        for (std::size_t p = act.first[i]; p < act.first[i + 1]; ++p) {
            const float *g = dout.row(act.row[p]) + o;
            const __m512 xv = _mm512_set1_ps(act.value[p]);
            a0 = _mm512_add_ps(a0, _mm512_mul_ps(_mm512_loadu_ps(g), xv));
            a1 = _mm512_add_ps(
                a1, _mm512_mul_ps(_mm512_loadu_ps(g + 16), xv));
            a2 = _mm512_add_ps(
                a2, _mm512_mul_ps(_mm512_loadu_ps(g + 32), xv));
            a3 = _mm512_add_ps(
                a3, _mm512_mul_ps(_mm512_loadu_ps(g + 48), xv));
        }
        _mm512_storeu_ps(dwi, a0);
        _mm512_storeu_ps(dwi + 16, a1);
        _mm512_storeu_ps(dwi + 32, a2);
        _mm512_storeu_ps(dwi + 48, a3);
    }
}
#endif

} // namespace

namespace detail {

void
linearWeightGradPortable(const Tensor &x, const Tensor &dout,
                         Tensor &dw_t, std::vector<float> &db)
{
    weightGradBody(x, dout, dw_t, db,
                   [&](const ActiveColumns &act, std::size_t k0,
                       std::size_t k1) {
                       for (std::size_t k = k0; k < k1; ++k)
                           addColumns<kColumnBlock>(act, dout, dw_t,
                                                    k * kColumnBlock);
                   });
}

#if defined(__x86_64__)
void
linearWeightGradAvx512(const Tensor &x, const Tensor &dout, Tensor &dw_t,
                       std::vector<float> &db)
{
    // A job's run of 16-column blocks goes four at a time, 64 columns
    // per register block, and its last few 16 at a time.
    weightGradBody(x, dout, dw_t, db,
                   [&](const ActiveColumns &act, std::size_t k0,
                       std::size_t k1) {
                       std::size_t k = k0;
                       for (; k + 4 <= k1; k += 4)
                           addColumns64(act, dout, dw_t,
                                        k * kColumnBlock);
                       for (; k < k1; ++k)
                           addColumns<kColumnBlock>(act, dout, dw_t,
                                                    k * kColumnBlock);
                   });
}
#endif

WeightGradFn
weightGrad()
{
#if defined(__x86_64__)
    static const WeightGradFn fn =
        selectedKernelIsa() == KernelIsa::Avx512Vpopcnt
            ? linearWeightGradAvx512
            : linearWeightGradPortable;
    return fn;
#else
    return linearWeightGradPortable;
#endif
}

} // namespace detail

void
linearWeightGrad(const Tensor &x, const Tensor &dout, Tensor &dw_t,
                 std::vector<float> &db)
{
    detail::weightGrad()(x, dout, dw_t, db);
}

} // namespace sushi::snn
