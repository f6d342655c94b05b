/**
 * @file
 * Private to chip/sushi_chip and its tests: the batch-major layer
 * kernel behind SushiChip::stepLayerBatch.
 *
 * A batch of B activation vectors is packed once per layer step into
 * a word-major bitset over the layer's kernel input order (word w of
 * vector b at bits[w * B + b]; see CompiledLayer::position), from
 * PulseBatch rows (hidden layers) or, for layer 0, from the words of
 * packed SpikeFrames. In the natural order of an unbucketed layer
 * each 64-input word of non-zero bits is stored as it is; otherwise
 * the pack places each non-zero input through position. Bucket
 * totals then come from popcounts of each bucket's window. The body
 * is compiled once per KernelIsa (see common/kernel_isa.hh);
 * layerKernel() returns the wrapper this CPU runs, and tests call
 * each supported wrapper directly. There is no other kernel: the
 * Npe-object reference it must match lives in
 * tests/test_packed_snn.cc.
 *
 * The AVX-512 wrapper picks its body from the layer's shape. A wide
 * layer (one with a compiler::ColumnTable) runs the column body: per
 * vector it compresses the active positions into a list, sums their
 * inhibitory neuron columns bucket by bucket in a Harley–Seal
 * carry-save tree, turns the bit planes into per-neuron counts and
 * runs the closed-form counters 16 neurons to a zmm register (8 when
 * the compiler could not prove they fit 32 bits). A narrow layer runs
 * neuron lanes: per block of up to eight vectors and group of eight
 * neurons it loads each word of the group's interleaved mask line
 * once, meets it with a broadcast of each vector's word in one
 * vpopcntq, and runs the counters of the eight neurons side by side.
 * The portable and popcnt wrappers run batch lanes over the mask
 * table for every layer: per neuron they stream each mask word over a
 * tile of vectors.
 */

#ifndef SUSHI_CHIP_LAYER_KERNEL_HH
#define SUSHI_CHIP_LAYER_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "chip/sushi_chip.hh"

namespace sushi::chip::detail {

/** Pulses beyond the first at one kernel position of a vector
 *  (upstream wrap artefacts; rare). */
struct ExtraPulses
{
    std::uint32_t bucket; ///< index into schedule.buckets
    std::uint32_t pos;    ///< kernel position
    std::uint64_t extra;  ///< pulses beyond the first
};

/** A batch of activation vectors packed for one layer's schedule. */
struct LayerBatchPack
{
    std::size_t batch = 0;
    std::size_t words = 0;
    /** Active-input bits, word-major: [words x batch]. */
    std::vector<std::uint64_t> bits;
    /** Total pulses per (bucket, vector): [buckets x batch]. */
    std::vector<std::uint64_t> bucket_pulses;
    /** Total pulses per vector over every bucket. */
    std::vector<std::uint64_t> pulses;
    /** Inputs with at least one pulse, per vector. */
    std::vector<std::uint64_t> active;
    /** Multi-pulse entries, grouped by vector in bucket order;
     *  vector b owns [extra_begin[b], extra_begin[b + 1]). */
    std::vector<ExtraPulses> extras;
    std::vector<std::size_t> extra_begin;
};

/** Pack @p in for @p layer's schedule (in.width == in_dim). */
void packLayerBatch(const compiler::CompiledLayer &layer,
                    const PulseBatch &in, LayerBatchPack &pack);

/** Pack every frame of @p samples, sample after sample, for @p
 *  layer's schedule (each sample's width() == in_dim). The natural
 *  order stores each frame's words as they are. */
void packLayerFrames(const compiler::CompiledLayer &layer,
                     std::span<const SpikeFrames *const> samples,
                     LayerBatchPack &pack);

/** Everything a kernel call reads and writes besides its tallies. */
struct LayerKernelArgs
{
    const compiler::CompiledLayer *layer = nullptr;
    const LayerBatchPack *pack = nullptr;
    unsigned state_bits = 0; ///< K: the counter has 2^K states
    /** Failed output-NPE slots (size slots), or nullptr when the
     *  chip runs healthy. */
    const std::uint8_t *failed_slots = nullptr;
    std::size_t slots = 1;
    std::uint16_t *out = nullptr; ///< [batch x out_dim], vector-major
    std::size_t out_dim = 0;
};

/**
 * Evaluate every neuron for every vector of the pack: writes their
 * outputs and adds their tallies into @p tally (one per vector;
 * active_inputs is left to the caller). Outputs of disabled neurons
 * are left untouched (callers zero @p out).
 */
using LayerKernelFn = void (*)(const LayerKernelArgs &args,
                               LayerStepStats *tally);

void layerKernelPortable(const LayerKernelArgs &args,
                         LayerStepStats *tally);
#if defined(__x86_64__)
void layerKernelPopcnt(const LayerKernelArgs &args, LayerStepStats *tally);
void layerKernelAvx512(const LayerKernelArgs &args, LayerStepStats *tally);
#endif

/** The wrapper selectedKernelIsa() names. */
LayerKernelFn layerKernel();

} // namespace sushi::chip::detail

#endif // SUSHI_CHIP_LAYER_KERNEL_HH
