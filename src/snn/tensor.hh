/**
 * @file
 * A minimal dense 2-D float tensor for the SNN framework.
 *
 * Row-major storage, with the handful of BLAS-like kernels the
 * surrogate-gradient trainer needs. Deliberately small: the SNN
 * stack is a substrate for reproducing SUSHI's Table 3, not a
 * general ML library.
 */

#ifndef SUSHI_SNN_TENSOR_HH
#define SUSHI_SNN_TENSOR_HH

#include <cstddef>
#include <vector>

#include "common/rng.hh"

namespace sushi::snn {

/** Dense row-major matrix of floats. */
class Tensor
{
  public:
    Tensor() = default;

    /** Zero-filled rows x cols matrix. */
    Tensor(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    float &at(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    float at(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    float *row(std::size_t r) { return data_.data() + r * cols_; }
    const float *row(std::size_t r) const
    {
        return data_.data() + r * cols_;
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Set every element to zero. */
    void zero();

    /** Fill with He-style Gaussian init, std = sqrt(2 / fan_in). */
    void heInit(Rng &rng, std::size_t fan_in);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/**
 * out[b,:] = x[b,:] * W^T + bias, i.e. a linear layer applied to a
 * batch of row vectors; W is [out_dim x in_dim]. Parallel over batch
 * rows.
 */
void linearForward(const Tensor &x, const Tensor &w,
                   const std::vector<float> &bias, Tensor &out);

/**
 * Input gradient of a linear layer: dx = dout * W, for upstream
 * dL/dout [B x out_dim] and W [out_dim x in_dim]. Overwrites dx
 * [B x in_dim]. Parallel over batch rows.
 */
void linearInputGrad(const Tensor &w, const Tensor &dout, Tensor &dx);

/**
 * Weight and bias gradients of a linear layer with inputs x
 * [B x in_dim] and upstream dL/dout [B x out_dim]: accumulates
 * db += colsum(dout) and dW += dout^T * x, the latter *transposed*
 * into dw_t [in_dim x out_dim], so that each non-zero input x[b, i]
 * adds one contiguous row x[b, i] * dout[b, :] to dw_t[i, :].
 *
 * Only the non-zero inputs of each row are walked (the trainer's
 * inputs are 0/1 spikes). Every weight receives its terms in
 * ascending batch order, and the result equals the dense loop over
 * every input bit for bit: a skipped term is +-0, and adding +-0
 * changes no accumulator that is not -0. So dout must be finite and
 * dw_t must hold no -0 (a zero-filled dw_t never becomes -0 in
 * round-to-nearest). Parallel over output columns.
 */
void linearWeightGrad(const Tensor &x, const Tensor &dout,
                      Tensor &dw_t, std::vector<float> &db);

} // namespace sushi::snn

#endif // SUSHI_SNN_TENSOR_HH
