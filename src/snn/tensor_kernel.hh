/**
 * @file
 * Private to snn/tensor and its tests: the CPU-dispatched wrappers of
 * linearWeightGrad (see common/kernel_isa.hh). linearWeightGrad calls
 * the wrapper selectedKernelIsa() picks; tests call every supported
 * wrapper directly. Every wrapper does the same float operations in
 * the same order, so their results are bit-identical.
 */

#ifndef SUSHI_SNN_TENSOR_KERNEL_HH
#define SUSHI_SNN_TENSOR_KERNEL_HH

#include <vector>

#include "snn/tensor.hh"

namespace sushi::snn::detail {

/** linearWeightGrad's signature and contract. */
using WeightGradFn = void (*)(const Tensor &x, const Tensor &dout,
                              Tensor &dw_t, std::vector<float> &db);

/** 16-column SSE register blocks, then single columns. */
void linearWeightGradPortable(const Tensor &x, const Tensor &dout,
                              Tensor &dw_t, std::vector<float> &db);
#if defined(__x86_64__)
/** 64-column AVX-512 register blocks, then the portable blocks. */
void linearWeightGradAvx512(const Tensor &x, const Tensor &dout,
                            Tensor &dw_t, std::vector<float> &db);
#endif

/** The wrapper selectedKernelIsa() names (the popcnt ISA runs the
 *  portable one: it has no wider float vectors). */
WeightGradFn weightGrad();

} // namespace sushi::snn::detail

#endif // SUSHI_SNN_TENSOR_KERNEL_HH
