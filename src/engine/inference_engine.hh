/**
 * @file
 * Batched multi-chip inference: a pool of SushiChip replicas serving
 * a sharded dataset.
 *
 * The engine models the production deployment the ROADMAP aims at —
 * many chips behind one dispatcher — while staying bit-faithful to
 * the single-chip semantics: every sample's result is identical to
 * running it alone on one chip, and the merged statistics are
 * byte-identical regardless of worker-thread count.
 *
 * Determinism contract:
 *  - The shard plan is a pure function of (sample count, active
 *    replica set, shard_block); worker threads only execute it.
 *  - Each replica resets its statistics before every sample, so a
 *    sample's stats delta is independent of its position in the
 *    shard, and the merge (in sample-index order) is byte-identical
 *    across thread counts AND across replica counts.
 *  - Degraded replicas (failed NPEs, SushiChip's degraded mode) are
 *    drained by default: they receive no shard and their work is
 *    redistributed across healthy replicas. Behavioural results are
 *    bit-identical either way; draining avoids the degraded-mode
 *    time and reload surcharges.
 *
 * Host parallelism is across replicas only (max_threads): each
 * replica runs its whole batch on one thread through the chip's
 * batched layer kernel.
 */

#ifndef SUSHI_ENGINE_INFERENCE_ENGINE_HH
#define SUSHI_ENGINE_INFERENCE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chip/sushi_chip.hh"
#include "engine/compiled_model.hh"
#include "noc/transport.hh"
#include "snn/tensor.hh"

namespace sushi::engine {

/**
 * One inference request as the caller builds it: binary input
 * frames, one byte per input per time step. Every entry point packs
 * it once into chip::SpikeFrames (T x ceil(in/64) words in one block)
 * and runs that; serving admission does so on the submitting thread.
 */
using Sample = std::vector<std::vector<std::uint8_t>>;

/** Engine knobs. */
struct EngineConfig
{
    /** Chip replicas in the pool; 0 selects parallelWorkers(). */
    int replicas = 0;

    /** Samples per round-robin shard block (>= 1): sample i goes to
     *  active replica (i / shard_block) mod active_count. */
    std::size_t shard_block = 8;

    /** Cap on worker threads driving the replicas (0 = pool size).
     *  Results are byte-identical for every value; used by the
     *  determinism tests and bench. */
    unsigned max_threads = 0;

    /** Exclude degraded replicas from the shard plan. */
    bool drain_degraded = true;

    /** Modelled NoC transport for multi-chip plan cuts (noc.enabled;
     *  off by default — the ideal zero-cost transport stays
     *  bit-identical to the historical path). With it on, spike
     *  results are still bit-identical to the ideal transport (the
     *  fabric never touches the payload); only latency and the
     *  noc_* counters in InferenceStats change. Ignored by
     *  single-stage plans. A host modelling knob, not part of the
     *  model fingerprint. */
    noc::NocConfig noc;
};

/** Per-sample inference outcome. */
struct SampleResult
{
    std::vector<int> counts; ///< output pulse counts per label
    int prediction = -1;     ///< argmax label (first on ties)
};

/** Result of a partial batch run on one replica (the serving
 *  layer's entry point). */
struct ReplicaRun
{
    std::vector<SampleResult> results;        ///< one per sample
    std::vector<chip::InferenceStats> per_sample; ///< stats deltas
};

/** One completed batch. */
struct EngineRun
{
    std::vector<SampleResult> samples;

    /** Deterministic merge of per-sample stats in sample order. */
    chip::InferenceStats merged;

    /** Per-replica totals (index = replica id; drained replicas stay
     *  zero). */
    std::vector<chip::InferenceStats> per_replica;

    /** Replica that served each sample. */
    std::vector<int> shard_of;

    /** Replicas that actually received work. */
    int active_replicas = 0;

    /** Host wall-clock seconds spent in run(). */
    double wall_seconds = 0.0;

    /**
     * Modelled hardware makespan: the replicas run concurrently as
     * physical chips, so batch latency is the slowest replica's
     * modelled chip time.
     */
    double modeledMakespanPs() const;
};

/**
 * The batched multi-chip inference service.
 *
 * Each *replica* is a group of stageCount() chips: one chip per
 * stage of the model's (multi-chip) plan, chained per time step
 * through the inter-chip activation cut. A single-chip model is the
 * one-stage case of the same pipeline.
 *
 * Every call that names a replica throws std::out_of_range for an id
 * outside [0, replicas()).
 */
class InferenceEngine
{
  public:
    /** Throws std::invalid_argument on a null @p model, and naming
     *  the field for EngineConfig::replicas < 0 or shard_block 0. */
    explicit InferenceEngine(
        std::shared_ptr<const CompiledModel> model,
        const EngineConfig &cfg = {});

    const EngineConfig &config() const { return cfg_; }
    const CompiledModel &model() const { return *model_; }
    int replicas() const
    {
        return static_cast<int>(chips_.size()) / stages_;
    }

    /** True when multi-chip cut traffic rides the modelled NoC
     *  fabric instead of the ideal transport. */
    bool nocEnabled() const { return !noc_.empty(); }

    /** The NoC transport of replica @p replica (placement, topology
     *  and fabric counters for tests/benches); throws
     *  std::logic_error unless nocEnabled(). */
    const noc::NocTransport &nocTransport(int replica) const;

    /** Mark output-NPE @p slot of replica @p replica failed (the
     *  degraded mode); throws std::out_of_range for a slot outside
     *  [0, npeSlots()) and compiler::CompileError (AllNpesFailed)
     *  for the group's last healthy slot, leaving every stage chip
     *  unchanged. Serialized against any batch running on the
     *  same replica: the mark waits for the batch to finish, so a
     *  concurrent degrade lands on a batch boundary and never races
     *  the chip's remap plan mid-inference. */
    void markReplicaDegraded(int replica, int slot);

    /** Restore replica @p replica to full health (same batch-
     *  boundary serialization as markReplicaDegraded). */
    void healReplica(int replica);

    /** True if the replica currently has failed NPE slots. */
    bool replicaDegraded(int replica) const;

    /** Current failed output-NPE slots of @p replica (the gauge the
     *  serving layer surfaces per replica in ServerMetrics). */
    int failedNpeSlots(int replica) const;

    /** Output-NPE slots per replica (valid chaos degrade targets). */
    int npeSlots() const;

    /** Run one batch. Deterministic per the contract above. */
    EngineRun run(const std::vector<Sample> &samples);

    /**
     * Run @p count samples on replica @p replica — the batch-of-one /
     * partial-batch entry point the serving layer's dynamic batcher
     * schedules through (run() shards onto it too). Every (sample,
     * time step) frame of the batch goes through each stage chip in
     * one SushiChip::stepNetworkBatch; stats are then charged per
     * sample from a reset chip in the serial (time step, stage,
     * layer) order, so every result and stats delta is bit-identical
     * to running that sample alone through a fresh SushiChip. Stage
     * 0's first layer packs the samples' words directly, and the NoC
     * ingress counts each frame's entries from its active().
     * Throws std::invalid_argument on samples of the wrong width.
     * Thread-safe for concurrent calls on *distinct* replicas; a
     * replica is not reentrant.
     */
    ReplicaRun runOnReplica(int replica,
                            const chip::SpikeFrames *const *samples,
                            std::size_t count);

    /** The same over byte samples, each packed once (chip::packFrames:
     *  throws std::invalid_argument on a frame of the wrong width or
     *  a value outside {0, 1}). */
    ReplicaRun runOnReplica(int replica, const Sample *const *samples,
                            std::size_t count);

    /** Convenience overload over a contiguous vector. */
    ReplicaRun runOnReplica(int replica,
                            const std::vector<Sample> &samples);

  private:
    /** Throw std::out_of_range unless 0 <= replica < replicas(). */
    void checkReplica(int replica) const;

    /** Chip @p stage of replica group @p replica. */
    chip::SushiChip &chipAt(int replica, int stage) const
    {
        return *chips_[static_cast<std::size_t>(replica * stages_ +
                                                stage)];
    }

    std::shared_ptr<const CompiledModel> model_;
    EngineConfig cfg_;
    int stages_ = 1;
    /** Replica-major: chip s of group r at index r * stages_ + s. */
    std::vector<std::unique_ptr<chip::SushiChip>> chips_;

    /** Per-replica NoC transport (empty when the ideal transport is
     *  active); guarded by the same replica lock as the chips. */
    std::vector<std::unique_ptr<noc::NocTransport>> noc_;

    /** One lock per replica group: held for the whole of
     *  runOnReplica and by the degrade/heal mutators, so health
     *  mutations land on batch boundaries. */
    mutable std::vector<std::unique_ptr<std::mutex>> chip_mu_;
};

/**
 * Poisson-encode a batch of images into engine samples. Each sample
 * is encoded from an independent RNG stream derived from (seed,
 * sample index), so the encoding of sample i never depends on batch
 * size or order.
 */
std::vector<Sample> encodeSamples(const snn::Tensor &images,
                                  int t_steps, std::uint64_t seed);

/**
 * Byte-deterministic JSON rendering of an InferenceStats record
 * (doubles at full precision): equal stats give equal strings, so
 * determinism tests compare bytes.
 */
std::string statsJson(const chip::InferenceStats &stats);

} // namespace sushi::engine

#endif // SUSHI_ENGINE_INFERENCE_ENGINE_HH
