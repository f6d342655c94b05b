/**
 * @file
 * The SSNN-to-chip compiler: turns a binarized network into the
 * per-layer execution plan of Fig. 12 (slices, schedules, preloads,
 * reload counts) consumed by the SUSHI chip model.
 */

#ifndef SUSHI_COMPILER_COMPILE_HH
#define SUSHI_COMPILER_COMPILE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "compiler/bitslice.hh"
#include "compiler/bucketing.hh"
#include "compiler/budget.hh"
#include "snn/binarize.hh"

namespace sushi::compiler {

/** The target chip geometry. */
struct ChipConfig
{
    /** Mesh dimension: N x N crosspoints, 2N NPEs. */
    int n = 16;
    /** SCs per NPE. */
    int sc_per_npe = 10;
    /** Bucketing/reordering configuration. */
    BucketingConfig bucketing;
};

/** Allocator of 64-byte-aligned (cache-line) storage. */
template <class T>
struct CacheLineAllocator
{
    using value_type = T;

    CacheLineAllocator() = default;
    template <class U>
    CacheLineAllocator(const CacheLineAllocator<U> &)
    {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t{64}));
    }
    void
    deallocate(T *p, std::size_t)
    {
        ::operator delete(p, std::align_val_t{64});
    }
    friend bool
    operator==(const CacheLineAllocator &, const CacheLineAllocator &)
    {
        return true;
    }
};

/** 64-byte-aligned vector. */
template <class T>
using AlignedVector = std::vector<T, CacheLineAllocator<T>>;

/**
 * One bitmask per neuron over the kernel input order, 64 inputs
 * per word, interleaved eight neurons to a 64-byte line: word w of
 * neuron o sits at [((o / 8) * words + w) * 8 + o % 8]. One aligned
 * 64-byte load holds word w of eight neighbouring neurons (the
 * AVX-512 layer kernel's neuron lanes); a scalar reader walks one
 * neuron's words with stride kLanes. Lanes past the last neuron are
 * zero.
 */
class MaskTable
{
  public:
    /** Neurons per 64-byte line. */
    static constexpr std::size_t kLanes = 8;

    MaskTable() = default;
    MaskTable(std::size_t neurons, std::size_t words)
        : words_(words),
          data_((neurons + kLanes - 1) / kLanes * words * kLanes, 0)
    {}

    std::size_t words() const { return words_; }

    /** Word 0 of neuron @p o; its word w is at [w * kLanes]. For
     *  o % kLanes == 0 this is the 64-byte-aligned base of o's lane
     *  group. */
    const std::uint64_t *
    lane(std::size_t o) const
    {
        return data_.data() + (o / kLanes * words_) * kLanes +
               o % kLanes;
    }

    /** Set kernel position @p k of neuron @p o. */
    void
    set(std::size_t o, std::size_t k)
    {
        data_[(o / kLanes * words_ + k / 64) * kLanes + o % kLanes] |=
            std::uint64_t{1} << (k % 64);
    }

    bool operator==(const MaskTable &) const = default;

  private:
    std::size_t words_ = 0;
    AlignedVector<std::uint64_t> data_;
};

/**
 * The inhibitory neuron column of every kernel-order position of a
 * wide layer: bit o of position p's column is set iff input p's
 * synapse onto neuron o is inhibitory. A column is out_dim bits in
 * 512-bit chunks, position after position: chunk c of position p is
 * the 64-byte line at line(c, p), stride() bytes after position
 * p - 1's. Next to the columns, chunked the same way: each neuron's
 * counter start (preload + bias pulses) and an enabled bit (zero for
 * disabled neurons and lanes past out_dim). The AVX-512 column body
 * sums the columns of a vector's active positions; it reads nothing
 * else of the layer but the buckets.
 */
struct ColumnTable
{
    /** Neurons per column chunk (one 64-byte line). */
    static constexpr std::size_t kChunk = 512;
    /** Layers with at least this many neurons get a table: the
     *  column body's cost is mostly per active input, the neuron
     *  lanes' per neuron, and at the flagship's input density they
     *  break even near 192 (EXPERIMENTS.md). */
    static constexpr std::size_t kMinNeurons = 192;

    std::size_t chunks = 0;
    AlignedVector<std::uint64_t> lines;
    /** Enabled bit per neuron: [chunks x 8] words. */
    AlignedVector<std::uint64_t> enabled;
    /**
     * The compiler proved that every counter quantity of the layer
     * fits 32 bits: max(preload + bias) + in_dim * 65,535 + 2^K <
     * 2^32. Then the starts are in start32, else in start64, both
     * [chunks x kChunk] (zero where disabled or past out_dim).
     */
    bool lanes32 = false;
    AlignedVector<std::uint32_t> start32;
    AlignedVector<std::uint64_t> start64;

    bool empty() const { return chunks == 0; }

    /** Bytes from one position's column to the next. */
    std::size_t stride() const { return chunks * 64; }

    /** Chunk @p c of position @p p's column. */
    const std::uint64_t *
    line(std::size_t c, std::size_t p) const
    {
        return lines.data() + (p * chunks + c) * 8;
    }

    bool operator==(const ColumnTable &) const = default;
};

/** One compiled layer. */
struct CompiledLayer
{
    LayerSlices slices;
    LayerSchedule schedule;
    StateRangeReport range;
    long switch_reloads; ///< cross-structure reload events per step

    /**
     * Per-output-neuron counter preload: 2^K - theta', where theta'
     * is the effective positive threshold after bias pulses.
     */
    std::vector<std::uint64_t> preload;
    /** Excitatory bias pulses delivered at step start (handles
     *  thresholds <= 0, which must always be able to fire). */
    std::vector<int> bias_pulses;
    /** Neurons whose thresholds exceed the state budget: they can
     *  never fire and are skipped (counted for diagnostics). */
    std::vector<std::uint8_t> disabled;

    /**
     * position[i]: input i's position in the *kernel order*: each
     * bucket's inputs (schedule.order over the bucket's range) in
     * ascending input index, bucket after bucket, so every bucket
     * keeps its range. The order of pulses within a bucket's
     * inhibitory or excitatory pass cannot change a count, so the
     * kernels may read a bucket in any order; schedule.order itself
     * stays the reload-accounting and gate-level order. An unbucketed
     * layer's kernel order is the input order.
     */
    std::vector<std::uint32_t> position;
    /** position[i] == i for every input (the pack stores each row's
     *  bits as they are). */
    bool natural_order = false;
    /** Bitmask of inhibitory synapses per neuron over the kernel
     *  order (see MaskTable). */
    MaskTable neg_masks;
    /** The same masks by input column, for layers of at least
     *  ColumnTable::kMinNeurons neurons; empty otherwise. */
    ColumnTable columns;
};

/**
 * Rebuild @p out's tables — position, natural_order, neg_masks and
 * columns — from @p layer, out.schedule and the place pass's
 * preload, bias_pulses, disabled and range. The compiler calls it
 * once per layer; code that edits any of those afterwards (the order,
 * the buckets, a neuron's start or enabled flag) calls it again.
 */
void buildLayerTables(const snn::BinaryLayer &layer, CompiledLayer &out);

/** A fully compiled network. */
struct CompiledNetwork
{
    ChipConfig chip;
    const snn::BinarySnn *net = nullptr;
    std::vector<CompiledLayer> layers;

    /** Budget analysis from the driver's cost model: fabric +
     *  resident model cost against the per-chip caps. Always
     *  computed; only enforced by budget-enforcing presets. */
    BudgetReport budget;
    /** Cached diagnostics (== disabledNeurons()/totalReloads()),
     *  filled at compile so the chip can surface them per step in
     *  O(1). */
    long disabled_count = 0;
    long plan_reloads = 0;

    /** Total cross-structure reload events per time step. */
    long totalReloads() const;

    /** Number of disabled (untrainable-threshold) neurons. */
    long disabledNeurons() const;
};

/**
 * Compile a binarized network for a chip — the *legacy preset* of
 * the pass-based `CompilerDriver` (driver.hh): single chip, budget
 * reported but not enforced, paper-rule schedule selection.
 * Bit-identical to the historical single-shot compiler. Throws
 * CompileError{BadChipConfig} on an invalid geometry.
 */
CompiledNetwork compileNetwork(const snn::BinarySnn &net,
                               const ChipConfig &chip);

/**
 * Degraded-mode plan for a mesh with failed output-NPE slots.
 *
 * Output neurons are assigned round-robin to the N output NPEs of a
 * group (neuron o sits on slot o mod N). When a slot's NPE has
 * failed (flux trap, dead junction), its neurons are time-multiplexed
 * onto the healthy slots in extra serialized passes per output group:
 * each extra pass re-streams the input slice and needs its own
 * crosspoint configuration batch (the reload-awareness the chip's
 * timing model charges for).
 */
struct NpeRemap
{
    /** Host slot per output slot; host[s] == s for healthy slots. */
    std::vector<int> host;
    /** Number of failed output slots. */
    int failed = 0;
    /** Extra serialized passes needed per output group,
     *  ceil(failed / healthy). */
    int extra_passes = 0;
};

/**
 * Plan the remap for an @p n wide mesh given @p failed_slots
 * (size n, nonzero = failed). Throws CompileError (AllNpesFailed)
 * if every slot has failed — a fully dead mesh cannot be degraded
 * around.
 */
NpeRemap planNpeRemap(int n,
                      const std::vector<std::uint8_t> &failed_slots);

} // namespace sushi::compiler

#endif // SUSHI_COMPILER_COMPILE_HH
