/**
 * @file
 * The behavioural SUSHI chip model: executes a compiled SSNN on the
 * NPE mesh exactly as the hardware would — per time step, per output
 * group, per bucket, inhibitory pass then excitatory pass — using
 * the bit-exact NPE counter semantics (including wrap-around borrow
 * and carry pulses, the physical failure mode bucketing exists to
 * control).
 *
 * Each neuron-step runs as closed-form counter arithmetic (the exact
 * recurrence npe::Npe::addPulses implements) in the CPU-dispatched
 * batch kernel of chip/layer_kernel.hh; tests/test_packed_snn.cc
 * fuzzes it against a reference that steps an Npe object per neuron.
 *
 * The gate-level counterpart for small configurations lives in
 * chip/gate_sim; tests assert pulse-level agreement between the two,
 * mirroring the paper's chip-vs-simulation validation (Sec. 6.2).
 */

#ifndef SUSHI_CHIP_SUSHI_CHIP_HH
#define SUSHI_CHIP_SUSHI_CHIP_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "compiler/compile.hh"

namespace sushi::chip {

/**
 * Every InferenceStats field, declared once, in engine::statsJson key
 * order: X(type, name, kind[, noc]). @p kind names the merge rule in
 * chip::merge; @p noc, on transport fields only, names the
 * noc::NocSampleStats member the engine folds into the field once
 * per sample (chip code never sets those). The members, accumulate(),
 * accumulatePipeline(), statsJson and the engine's transport fold are
 * all expanded from this list, so adding a statistic is one line.
 */
#define SUSHI_INFERENCE_STATS(X)                                        \
    X(std::uint64_t, frames, Frames)           /* images processed */   \
    X(std::uint64_t, time_steps, Frames)       /* SNN steps executed */ \
    X(std::uint64_t, input_pulses, Counter)    /* pulses fed to NPEs */ \
    X(std::uint64_t, synaptic_ops, Counter)    /* through synapses */   \
    X(std::uint64_t, output_spikes, Counter)   /* final-layer pulses */ \
    X(std::uint64_t, underflow_spikes, Counter) /* borrow pulses */     \
    X(std::uint64_t, multi_fires, Counter)     /* >1 spike per step */  \
    X(std::uint64_t, reload_events, Counter)   /* cross-structure */    \
    /* Degraded mode: failed output slots, neuron-steps served by a  */ \
    /* remap host NPE, extra group passes run.                       */ \
    X(std::uint64_t, failed_npes, Gauge)                                \
    X(std::uint64_t, remapped_neurons, Counter)                         \
    X(std::uint64_t, degraded_passes, Counter)                          \
    /* Compile-plan diagnostics of the executed plan, set by the     */ \
    /* chip from CompiledNetwork::budget each network step: disabled */ \
    /* neurons and compiled reloads per step of each chip, and the   */ \
    /* worst chip's JJ / area cap fractions (Table 2 headroom).      */ \
    X(std::uint64_t, disabled_neurons, PlanSum)                         \
    X(std::uint64_t, plan_reloads, PlanSum)                             \
    X(double, est_time_ps, Counter)            /* modelled wall time */ \
    X(double, reload_time_ps, Counter)         /* serialised reloads */ \
    X(double, dynamic_energy_j, Counter)       /* switching energy */   \
    X(double, jj_utilisation, Gauge)                                    \
    X(double, area_utilisation, Gauge)                                  \
    /* NoC transport (EngineConfig::noc multi-chip runs only; all    */ \
    /* zero under the ideal transport). Cut flits index = plan cut.  */ \
    X(std::uint64_t, noc_packets, Counter, packets)                     \
    X(std::uint64_t, noc_flits, Counter, flits)                         \
    X(std::uint64_t, noc_flit_hops, Counter, flit_hops)                 \
    X(std::uint64_t, noc_hol_stall_cycles, Counter, hol_stall_cycles)   \
    X(std::uint64_t, noc_backpressure_stalls, Counter,                  \
      backpressure_stalls)                                              \
    X(std::uint64_t, noc_latency_cycles, Counter, latency_cycles)       \
    X(std::uint64_t, noc_max_step_link_flits, Gauge,                    \
      max_step_link_flits)                                              \
    X(double, noc_latency_ps, Counter, latency_ps)                      \
    X(double, noc_max_link_utilisation, Gauge, max_link_utilisation)    \
    X(std::vector<std::uint64_t>, noc_cut_flits, Cuts, cut_flits)

/** Merge kinds of the InferenceStats fields. */
namespace merge {

struct Add
{
    template <typename T>
    void operator()(T &into, const T &from) const { into += from; }
};

struct Max
{
    template <typename T>
    void operator()(T &into, const T &from) const
    {
        into = std::max(into, from);
    }
};

/** Element-wise Add, ragged-safe (per-cut counters). */
struct AddEach
{
    void operator()(std::vector<std::uint64_t> &into,
                    const std::vector<std::uint64_t> &from) const;
};

/** A kind: how a field folds another sample's record (accumulate)
 *  and another pipeline stage of the same sample
 *  (accumulatePipeline). */
template <typename OnSample, typename OnStage>
struct Kind
{
    static constexpr OnSample sample{};
    static constexpr OnStage stage{};
};

using Counter = Kind<Add, Add>; ///< work done
using Frames = Kind<Add, Max>;  ///< every stage saw the same frames
using Gauge = Kind<Max, Max>;   ///< current state: worst value
using PlanSum = Kind<Max, Add>; ///< per-chip plan shape
using Cuts = Kind<AddEach, AddEach>;

} // namespace merge

/** Aggregate statistics of one inference run (fields: see
 *  SUSHI_INFERENCE_STATS). */
struct InferenceStats
{
#define SUSHI_STAT_MEMBER(type, name, ...) type name{};
    SUSHI_INFERENCE_STATS(SUSHI_STAT_MEMBER)
#undef SUSHI_STAT_MEMBER

    void reset() { *this = InferenceStats{}; }

    /**
     * Fold another sample's record into this one (each field's
     * merge::kind::sample). Addition order matters for the
     * floating-point fields: merging per-sample records in sample
     * order gives byte-identical totals regardless of how the
     * samples were sharded across replicas or threads.
     */
    void accumulate(const InferenceStats &other);

    /**
     * Fold the stats of another *pipeline stage of the same sample*
     * into this one (multi-chip plans: one record per stage chip;
     * each field's merge::kind::stage). Stages run sequentially
     * within a time step, so modelled time adds. Energy is
     * recomputed from the merged synaptic_ops by the caller's
     * dynamicEnergyJ so stage merge order cannot perturb it.
     */
    void accumulatePipeline(const InferenceStats &stage);

    /** True if any inference ran with failed NPEs remapped. */
    bool degraded() const { return remapped_neurons > 0; }
};

/** Switching-energy model shared by chip and engine: every synaptic
 *  op flips ~30 JJs along the synapse->NPE path at ~2e-19 J each. */
double dynamicEnergyJ(std::uint64_t synaptic_ops);

/** Per-step activation pulses flowing between layers. */
using PulseVector = std::vector<std::uint16_t>;

/**
 * Pulse counts of a batch of independent activation vectors (one per
 * (sample, time step)), vector-major: entry i of vector v sits at
 * pulses[v * width + i]. The inter-layer form: a hidden or output
 * entry can carry more than one pulse (wrap artefacts). Binary input
 * frames travel as SpikeFrames instead.
 */
struct PulseBatch
{
    std::size_t batch = 0;
    std::size_t width = 0;
    std::vector<std::uint16_t> pulses;

    /** Resize to @p vectors rows of @p row_width (zeroed). */
    void reset(std::size_t vectors, std::size_t row_width);

    std::span<const std::uint16_t> row(std::size_t v) const
    {
        return {pulses.data() + v * width, width};
    }
    std::span<std::uint16_t> row(std::size_t v)
    {
        return {pulses.data() + v * width, width};
    }
};

/**
 * One sample's binary input frames packed to bits, in one block:
 * frame t is words() 64-bit words, input i at bit i % 64 of word
 * i / 64, the bits past width() zero, and active(t) is its set-bit
 * count. A served request's input takes this form once, at
 * admission; layer 0's pack takes the words as they are (natural
 * order) or places their set bits through CompiledLayer::position,
 * and the NoC ingress counts its packet entries from active().
 */
class SpikeFrames
{
  public:
    /**
     * Pack @p frames, each @p width values of 0 or 1. Returns false,
     * leaving this empty, on a frame of another width or a value
     * outside {0, 1}.
     */
    bool assign(std::span<const std::vector<std::uint8_t>> frames,
                std::size_t width);

    std::size_t frames() const { return active_.size(); }
    std::size_t width() const { return width_; }
    std::size_t words() const { return words_; }

    /** The words of frame @p t. */
    const std::uint64_t *frame(std::size_t t) const
    {
        return bits_.data() + t * words_;
    }

    /** Inputs that spike in frame @p t. */
    std::uint32_t active(std::size_t t) const { return active_[t]; }

  private:
    std::size_t width_ = 0;
    std::size_t words_ = 0;
    std::vector<std::uint64_t> bits_;   ///< [frames x words]
    std::vector<std::uint32_t> active_; ///< per frame
};

/** SpikeFrames::assign that throws std::invalid_argument, naming the
 *  frame, where assign refuses. */
SpikeFrames packFrames(std::span<const std::vector<std::uint8_t>> frames,
                       std::size_t width);

/**
 * Tallies of one vector's layer step (SushiChip::stepLayerBatch).
 * Integer sums, so they are exact at any batch size; the modelled
 * time is a pure function of active_inputs and is charged when the
 * step is folded into InferenceStats.
 */
struct LayerStepStats
{
    std::uint64_t synaptic_ops = 0;     ///< also counts input_pulses
    std::uint64_t underflow_spikes = 0; ///< spurious borrow pulses
    std::uint64_t multi_fires = 0;      ///< neurons with >1 spike
    std::uint64_t remapped_neurons = 0; ///< served by a remap host
    std::uint64_t active_inputs = 0;    ///< inputs with >= 1 pulse
};

/** A batch run through every layer of a network (stepNetworkBatch). */
struct NetworkBatch
{
    PulseBatch out; ///< final-layer pulses per vector
    /** Per-layer, per-vector tallies: layer l of vector v at
     *  steps[l * out.batch + v]. */
    std::vector<LayerStepStats> steps;
};

namespace detail {
struct LayerBatchPack;
}

/** The behavioural chip. */
class SushiChip
{
  public:
    /** Throws compiler::CompileError{BadChipConfig} on an invalid
     *  geometry (compiler::validateChipConfig). */
    explicit SushiChip(const compiler::ChipConfig &cfg);
    ~SushiChip();

    const compiler::ChipConfig &config() const { return cfg_; }

    /**
     * Execute one layer for one time step.
     * @param layer    compiled layer
     * @param blayer   the binarized weights it was compiled from
     * @param act      input pulse counts (original index space)
     * @return output pulse counts per neuron (0, 1, or more — extra
     *         pulses are physical wrap artefacts, counted in stats)
     * The batch-of-one stepLayerBatch, charged to stats(). Throws
     * std::invalid_argument unless act.size() == in_dim.
     */
    PulseVector stepLayer(const compiler::CompiledLayer &layer,
                          const snn::BinaryLayer &blayer,
                          const PulseVector &act);

    /**
     * Execute one layer for a batch of independent activation
     * vectors. The chip counter is fresh per neuron-step, so every
     * vector's result equals its own stepLayer; each neuron's masks
     * are loaded once and streamed over the whole batch. Leaves
     * stats() alone: per-vector tallies go to @p tallies (size
     * in.batch) for the caller to charge in its own order.
     * Throws std::invalid_argument unless in.width == in_dim.
     */
    void stepLayerBatch(const compiler::CompiledLayer &layer,
                        const snn::BinaryLayer &blayer,
                        const PulseBatch &in, PulseBatch &out,
                        LayerStepStats *tallies);

    /**
     * Full rate-coded inference of a compiled network over binary
     * input frames (one per time step). The T frames run as one
     * stepNetworkBatch; beginFrame / chargeStep / countOutputSpikes /
     * finishRun below then account them in frame order, so a
     * multi-chip engine can chain several chips per time step with
     * the same arithmetic.
     * @return output pulse counts summed over time steps
     * Throws std::invalid_argument on a frame of the wrong width or a
     * value outside {0, 1} (the frames are packed once, packFrames).
     */
    std::vector<int>
    inferCounts(const compiler::CompiledNetwork &net,
                const std::vector<std::vector<std::uint8_t>> &frames);

    /// @name Staged execution (multi-chip plans).
    /// One sample = beginFrame once, then per time step a stepNetwork
    /// per stage chip (chained through the activation vector), then
    /// finishRun on every chip. Batched callers run stepNetworkBatch
    /// per stage instead and charge each step with chargeStep in the
    /// same order; inferCounts is exactly this on a single chip.
    /// @{

    /** Account the start of one input sample. */
    void beginFrame() { ++stats_.frames; }

    /**
     * Run every layer of @p net for one time step: the full chip
     * pass of one stage. Also refreshes the compile-plan gauges in
     * stats() from the network's budget report.
     */
    PulseVector stepNetwork(const compiler::CompiledNetwork &net,
                            const PulseVector &act);

    /**
     * Run every layer of @p net over a batch of vectors (see
     * stepLayerBatch). Leaves stats() alone; chargeStep folds one
     * vector's step in afterwards.
     */
    void stepNetworkBatch(const compiler::CompiledNetwork &net,
                          const PulseBatch &in, NetworkBatch &out);

    /**
     * The same over packed binary inputs: the vectors are every frame
     * of @p samples, sample after sample, and layer 0 packs their
     * words directly. Throws std::invalid_argument unless every
     * sample is as wide as layer 0's input.
     */
    void stepNetworkBatch(const compiler::CompiledNetwork &net,
                          std::span<const SpikeFrames *const> samples,
                          NetworkBatch &out);

    /**
     * Charge vector @p v of a stepNetworkBatch run to stats(),
     * with exactly the arithmetic (and floating-point order) of the
     * stepNetwork call that would have computed it.
     */
    void chargeStep(const compiler::CompiledNetwork &net,
                    const NetworkBatch &run, std::size_t v);

    /** Account final-layer output pulses. */
    void countOutputSpikes(std::span<const std::uint16_t> act);

    /** Recompute the cumulative dynamic energy from synaptic_ops. */
    void finishRun();

    /// @}

    /** Argmax label from inferCounts. */
    int predict(const compiler::CompiledNetwork &net,
                const std::vector<std::vector<std::uint8_t>> &frames);

    /** Statistics accumulated since the last reset. */
    const InferenceStats &stats() const { return stats_; }

    /** Clear accumulated statistics; the failed_npes gauge keeps
     *  tracking the chip's current failure state. */
    void resetStats();

    /**
     * Return the chip to its just-constructed state: statistics
     * cleared and every NPE slot healthy. Replica pools call this
     * between batches so a reused chip is indistinguishable from a
     * fresh one.
     */
    void reset();

    /// @name Degraded mode (Sec. 6.2 failure tolerance).
    /// Marking an output-NPE slot failed remaps its neurons onto the
    /// healthy slots (compiler::planNpeRemap): inference results are
    /// bit-identical, but extra serialized passes and configuration
    /// reloads are charged and reported in InferenceStats.
    /// @{

    /** Mark output-NPE slot @p slot (0..n-1) as failed; throws
     *  std::out_of_range outside [0, n) and compiler::CompileError
     *  (AllNpesFailed) for the last healthy slot, changing nothing
     *  either way. */
    void markNpeFailed(int slot);

    /** Restore every slot to healthy. */
    void clearFailedNpes();

    /** Per-slot failure flags (size n). */
    const std::vector<std::uint8_t> &failedNpes() const
    {
        return failed_npes_;
    }

    /** The active remap plan (identity when nothing failed). */
    const compiler::NpeRemap &remapPlan() const { return remap_; }

    /// @}

  private:
    /** Run the kernel of @p layer over the @p batch vectors in
     *  pack_ into @p out and @p tallies. */
    void runPackedLayer(const compiler::CompiledLayer &layer,
                        std::size_t out_dim, std::size_t batch,
                        PulseBatch &out, LayerStepStats *tallies);

    /** Layers [first, end) of @p net over @p src (layer first's
     *  input) into @p out (stepNetworkBatch). */
    void stepLayersFrom(const compiler::CompiledNetwork &net,
                        std::size_t first, const PulseBatch &src,
                        NetworkBatch &out);

    /** Fold one vector's layer step into stats(). */
    void chargeLayer(const compiler::CompiledLayer &layer,
                     const LayerStepStats &tally);

    compiler::ChipConfig cfg_;
    double pulse_ps_ = 0.0; ///< modelled time of one serial pulse
    InferenceStats stats_;
    std::vector<std::uint8_t> failed_npes_;
    compiler::NpeRemap remap_;

    /// @name Buffers reused across calls (a chip is not reentrant).
    /// @{
    std::unique_ptr<detail::LayerBatchPack> pack_;
    PulseBatch single_in_;    ///< stepLayer/stepNetwork input
    PulseBatch hidden_[2];    ///< inter-layer activations
    NetworkBatch single_run_; ///< their outputs and tallies
    /// @}
};

} // namespace sushi::chip

#endif // SUSHI_CHIP_SUSHI_CHIP_HH
