/**
 * @file
 * Request-level serving frontend over the batched inference engine,
 * with self-healing replica management (PR 6) and a sharded,
 * allocation-light admission path (PR 10).
 *
 * The engine (PR 2/3) answers closed offline batches; this layer is
 * what faces traffic. A "replica" here is the engine's replica
 * *group*: for a multi-chip compiled plan (compiler PR 8) each
 * scheduling slot owns one chip per plan stage, dispatched as a
 * unit — quarantine, spares, probes and chaos degrades all operate
 * on whole groups, never on an individual stage chip. A Server accepts single inference requests
 * (submit() returns a future), coalesces them with a dynamic batcher
 * (flush at max_batch requests or once the oldest waits max_delay_ns),
 * schedules each batch onto a dedicated SushiChip replica through
 * InferenceEngine::runOnReplica, and sheds load with typed
 * rejections once the admission bound on queue depth is hit or a
 * request's deadline has passed. drain()/shutdown() finish all
 * admitted work before stopping; every future is always resolved —
 * including under injected replica crashes.
 *
 * Sharded front-end (PR 10): admission no longer funnels through the
 * scheduler mutex. The pending queue is split over
 * ServerConfig::admission_shards independent shards (default: one
 * per replica), each owning its own mutex, a slab-allocated
 * RequestPool with per-priority FIFO lanes (request_pool.hh), and its
 * own ServerMetrics record (metrics.hh). submit() routes by
 * request id (request_id % shards) and touches ONLY that shard:
 * admission control, typed rejections and the submitted/accepted
 * counters all happen under the shard lock, with the global queue
 * bound enforced by one atomic depth counter. Every copy of a
 * request — primary, retry, hedge — routes to the same shard (copies
 * share the request_id), so first-resolution-wins cancellation stays
 * a single-shard operation. Batch formation k-way-merges the shard
 * lanes under all shard locks (taken in ascending index order) and
 * pops exactly max_batch entries in (priority desc, arrival asc)
 * order — O(batch), not O(queue log queue). metrics() folds the shard
 * records, in ascending shard order, into the scheduler's by each
 * field's declared merge rule; every rule commutes (counters add,
 * min/max watermarks, histogram merges), so the snapshot — and
 * therefore virtual-mode replay — is byte-identical for ANY shard
 * count.
 *
 * Lock order (strict): scheduler mutex mu_ -> shard mutexes in
 * ascending index (only batch formation holds more than one) ->
 * metrics_mu_. The submit() fast path takes only the owning shard's
 * mutex; mu_ is taken first only when the circuit breaker is
 * enabled (breaker state is central). ReqState fields are guarded
 * by the owning shard's mutex.
 *
 * Resilience layer (all policies default OFF; see resilience.hh):
 *
 *  - Replica health: batch outcomes feed the server's per-replica
 *    health record; crashes and consecutive-bad-batch streaks
 *    quarantine a replica (it leaves the scheduling rotation), hot
 *    spares are promoted to keep the effective pool size, and
 *    quarantined replicas are probed on an exponential-backoff
 *    schedule and readmitted on probe success.
 *  - Retries: a failed dispatch re-queues the request after an
 *    exponential backoff with *keyed* jitter — the delay before
 *    attempt k of request r is a pure function of (seed, r, k) — up
 *    to the retry budget, then rejects Reject::ReplicaFailure.
 *  - Hedging: requests at deadline-critical priorities get a
 *    duplicate dispatch once their primary batch has been in flight
 *    hedge.delay_ns; the first completion wins and the loser is
 *    cancelled (still queued) or discarded (already running).
 *  - Circuit breaker: consecutive batch failures trip the per-model
 *    breaker Open and admissions fast-fail with Reject::BreakerOpen
 *    (a retry storm becomes typed rejections); after open_ns a
 *    HalfOpen phase lets a few trial batches decide open vs closed.
 *  - Chaos: a seed-deterministic ChaosEngine (chaos.hh) is consulted
 *    at every dispatch and can crash/stall/slow/fault a batch or
 *    fail an NPE (SushiChip::markNpeFailed). Under the virtual clock
 *    an entire chaos campaign replays byte-identically at any
 *    worker-thread count.
 *
 * One scheduler, two time sources. Every scheduling decision —
 * chaos-script and breaker advances, completions, hedge fires,
 * health probes, deadline shedding, retry re-admission, timed
 * arrivals and batch formation — is made by one step, stepLocked(t),
 * under mu_ and in that fixed order. The clock modes differ only in where
 * t comes from and in who executes the batches the step forms:
 *
 *  - ClockMode::Virtual — deterministic discrete-event serving for
 *    tests and the open-loop benches. Requests carry logical arrival
 *    times (submitAt); runVirtual() jumps t to the next event time
 *    (nextEventNsLocked), steps, runs the newly formed batches over
 *    the worker pool and charges each its *modelled chip time*
 *    (one nanosecond per modelled est_time_ps picosecond, scaled by
 *    the chaos service scale). Same seed + config => byte-identical
 *    ServerMetrics::toJson() for ANY worker-thread count AND any
 *    admission-shard count.
 *
 *  - ClockMode::Real — wall-clock serving. One thread per replica
 *    steps at steady_clock nanoseconds since construction, forms its
 *    own replica's batch first, and executes only the batches formed
 *    for its own replica. Otherwise it waits for its next event time
 *    (at most 1 s): when the process may run on more CPUs than there
 *    are replicas and the server is not draining, it first spins off
 *    mu_ on the queue depth for up to 50 us and steps again; only
 *    after a spin that ran out does it sleep (admits and newly formed
 *    batches notify sleepers). Any thread may form any free replica's
 *    batch. Throughput is whatever the host delivers; no
 *    byte-determinism is promised (chaos service-time scaling is
 *    virtual-only; crashes/faults/degrades apply in both modes).
 *
 * Batcher state machine (part of the step):
 *
 *        +--------- submit/submitAt ----------+
 *        v                                    |
 *   [Accumulating] --size >= max_batch--> [Flush(size)]
 *        | oldest wait >= max_delay_ns -> [Flush(delay)]
 *        | draining && nonempty -------> [Flush(drain)]
 *        | deadline passed ------------> reject(DeadlineExceeded)
 *        | depth == max_queue at admit -> reject(QueueFull)
 *        | breaker open at admit ------> reject(BreakerOpen)
 *
 * A flush pops up to max_batch requests in (priority desc, arrival
 * asc) order onto the first free *active* replica; expired requests
 * are shed at pop time, never executed.
 */

#ifndef SUSHI_SERVE_SERVER_HH
#define SUSHI_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "engine/inference_engine.hh"
#include "serve/chaos.hh"
#include "serve/metrics.hh"
#include "serve/request.hh"
#include "serve/request_pool.hh"
#include "serve/resilience.hh"

namespace sushi::serve {

/** Serving knobs. */
struct ServerConfig
{
    /** Replica pool configuration (EngineConfig::replicas sizes the
     *  *active* pool; 0 selects parallelWorkers(); hot_spares are
     *  added on top). */
    engine::EngineConfig engine;

    /** Extra replicas instantiated but held out of rotation; one is
     *  promoted whenever an active replica is quarantined. */
    int hot_spares = 0;

    /** Flush a batch once this many requests have coalesced. */
    std::size_t max_batch = 8;

    /** Flush a partial batch once its oldest request has waited this
     *  long (the queue-delay knob of the dynamic batcher). */
    std::int64_t max_delay_ns = 200'000;

    /** Admission bound: submissions beyond this many queued requests
     *  are rejected with Reject::QueueFull. (Retry and hedge
     *  re-queues bypass the bound — they recover already-admitted
     *  work.) */
    std::size_t max_queue = 1024;

    /**
     * Independent admission shards of the front-end (0 = one per
     * replica in the pool). Each shard has its own lock, pending
     * lanes and metrics record; submit() contends only on the shard
     * that owns the request id. Purely a throughput knob: virtual
     * replay and the metrics rollup are byte-identical for every
     * value.
     */
    int admission_shards = 0;

    ClockMode clock = ClockMode::Real;

    /** Virtual mode: cap on worker threads executing simultaneous
     *  batches (0 = pool size). Metrics are byte-identical for every
     *  value — the determinism knob. */
    unsigned max_threads = 0;

    /// @name Resilience policies (all default off / no-op).
    /// @{
    RetryPolicy retry;
    HedgePolicy hedge;
    BreakerPolicy breaker;
    HealthPolicy health;
    ChaosPolicy chaos;

    /** Seed of the keyed retry-jitter draws. */
    std::uint64_t resilience_seed = 1;
    /// @}
};

/** The request-level inference server. */
class Server
{
  public:
    /** Throws std::invalid_argument naming the ServerConfig field
     *  it cannot run with. */
    Server(std::shared_ptr<const engine::CompiledModel> model,
           const ServerConfig &cfg = {});
    ~Server(); ///< shutdown(): resolves every outstanding future

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    const ServerConfig &config() const { return cfg_; }

    /** Total replica pool (active target + hot spares). */
    int replicas() const { return engine_.replicas(); }

    /** Admission shards the front-end was built with. */
    int admissionShards() const
    {
        return static_cast<int>(shards_.size());
    }

    /** The engine (chips, NoC transports, failed-NPE gauges). */
    const engine::InferenceEngine &engine() const { return engine_; }

    /** Current time in the server's clock domain (ns). */
    std::int64_t now() const;

    /**
     * Submit one request; never blocks. The future always resolves —
     * with a result, or with a typed rejection. @p sample is packed
     * into chip::SpikeFrames once, here, on the calling thread, and
     * its bytes are freed; a malformed one resolves InvalidRequest.
     * In virtual mode this is submitAt(now()); in real mode the fast
     * path locks only the owning admission shard.
     */
    std::future<Response> submit(engine::Sample sample,
                                 const RequestOptions &opts = {});

    /**
     * Virtual mode: enqueue a request arriving at @p arrival_ns.
     * Admission control runs when the arrival fires inside
     * runVirtual(), against the queue state at that logical instant.
     * Throws std::logic_error on a real-clock server.
     */
    std::future<Response> submitAt(std::int64_t arrival_ns,
                                   engine::Sample sample,
                                   const RequestOptions &opts = {});

    /**
     * Virtual mode: play the timeline until every enqueued arrival
     * has been served or shed. Single driver thread; batch execution
     * fans out over the worker pool (cfg.max_threads wide). Throws
     * std::logic_error on a real-clock server.
     */
    void runVirtual();

    /**
     * Stop admitting (later submissions resolve ShuttingDown) and
     * wait until every queued, retrying and in-flight request has
     * resolved. Partial batches flush immediately. Idempotent.
     */
    void drain();

    /** drain(), then stop and join the worker threads. Idempotent;
     *  the destructor calls it. */
    void shutdown();

    /** Coherent snapshot of the serving metrics: the shard records
     *  folded, in ascending shard order, into the scheduler's. */
    ServerMetrics metrics() const;

    /** Current lifecycle state of replica @p r (std::out_of_range
     *  outside [0, replicas())). */
    ReplicaState replicaState(int r) const;

    /** Current circuit-breaker state. */
    BreakerState breakerState() const;

  private:
    /** Why a batch flushed. */
    enum class FlushCause : std::uint8_t { Size, Delay, Drain };

    /**
     * One admission shard: its lock, its slice of the pending queue,
     * and its metrics accumulator. All copies of request r live in
     * shard (r.request_id % shards). ReqState fields of those
     * requests are guarded by this mutex.
     */
    struct Shard
    {
        mutable std::mutex mu;
        RequestPool pool;   ///< queued copies owned by this shard
        ServerMetrics metrics; ///< admission + per-request counts
    };

    struct Batch
    {
        int replica = -1;
        std::int64_t dispatch_ns = 0;
        FlushCause cause = FlushCause::Size;
        bool half_open_trial = false;
        ChaosEngine::BatchFate fate;
        std::vector<PendingReq> reqs;
    };

    /** Result of executing (or failing to execute) one batch. */
    struct Outcome
    {
        bool ok = true;
        engine::ReplicaRun run; ///< empty when !ok
    };

    /** A formed batch on its replica: complete_ns is INT64_MAX
     *  while it executes, then the completion time whose outcome the
     *  next step processes. */
    struct Running
    {
        Batch batch;
        Outcome outcome;
        std::int64_t complete_ns = 0;
    };

    /** A virtual-mode arrival waiting for its logical instant. */
    struct Arrival
    {
        std::int64_t arrival_ns = 0;
        PendingReq req;
    };

    /** A failed request waiting out its retry backoff. */
    struct RetryEntry
    {
        std::int64_t ready_ns = 0;
        PendingReq req;
    };

    /** An armed hedge: fires a duplicate dispatch of the request
     *  unless it resolved first. */
    struct HedgeTimer
    {
        std::int64_t fire_ns = 0;
        int attempt = 0; ///< state->failures when armed; a mismatch
                         ///< at fire time means the dispatch failed
                         ///< and the timer is void
        PendingReq proto; ///< copy inserted on fire (id assigned then)
    };

    struct RepHealth
    {
        ReplicaState state = ReplicaState::Active;
        int consecutive_bad = 0; ///< failures + slow batches
        std::int64_t probe_at = 0;
        std::int64_t probe_delay = 0;
    };

    struct Breaker
    {
        BreakerState state = BreakerState::Closed;
        int consecutive_failures = 0;
        std::int64_t open_until = 0;
        int half_open_inflight = 0;
        int half_open_successes = 0;
    };

    /** Shard owning every copy of request @p request_id. */
    Shard &shardOf(std::uint64_t request_id) const
    {
        return *shards_[static_cast<std::size_t>(
            request_id % shards_.size())];
    }

    // ---- Admission path (owning shard's lock held unless noted).
    std::future<Response> submitAtLocked(std::int64_t arrival_ns,
                                         engine::Sample sample,
                                         const RequestOptions &opts);
    /** A fresh request whose frames are @p sample packed, or null
     *  unless it has the model's tSteps() frames, each as wide as its
     *  input layer and holding only 0/1 spikes. @p sample is freed
     *  here, on the submitting thread. */
    PendingReq makeRequest(engine::Sample &&sample,
                           const RequestOptions &opts,
                           std::int64_t t);
    /** Claim one queue slot against max_queue (exact global bound;
     *  no lock needed — the depth counter is atomic). */
    bool tryReserveQueueSlot();
    /** The admission chain: valid shape, deadline, breaker, queue
     *  slot, then admit; otherwise a typed rejection. True iff
     *  admitted. */
    bool admitOrRejectLocked(Shard &sh, PendingReq &req,
                             std::int64_t t);
    void admitShardLocked(Shard &sh, PendingReq &&req,
                          std::int64_t t);
    /** A resolution deferred past the batch's central metrics
     *  section: "my future completed" must imply a subsequent
     *  metrics() snapshot already shows the whole batch (flush
     *  cause, batch counters) — so outcome processing records
     *  first and resolves last. */
    struct Resolution
    {
        std::shared_ptr<ReqState> state;
        Response resp;
    };

    /** Record the typed rejection in the shard metrics and resolve
     *  the promise (or stash it on @p defer when non-null). Does
     *  NOT purge sibling copies. */
    void fulfillRejectLocked(Shard &sh, PendingReq &req,
                             Reject reason, std::int64_t event_ns,
                             std::vector<Resolution> *defer =
                                 nullptr);
    /** fulfillRejectLocked + purge of still-queued sibling copies in
     *  the owning shard. */
    void rejectQueuedLocked(Shard &sh, PendingReq &req, Reject reason,
                            std::int64_t event_ns);
    void purgeShardCopiesLocked(
        Shard &sh, const std::shared_ptr<ReqState> &state);
    /** Drop retry entries / hedge timers of a resolved request.
     *  Requires mu_ AND the owning shard's lock. */
    void reapTimersLocked(const std::shared_ptr<ReqState> &state);
    /** Shed expired entries of one shard (shard lock held). @p reap
     *  additionally drops the resolved requests' central timers and
     *  requires mu_. */
    void shedShardLocked(Shard &sh, std::int64_t t, bool reap);
    void shedExpiredAllLocked(std::int64_t t);
    /** Notify sleeping workers — called lock-free after an admit. */
    void wakeWorkers();

    // ---- Batcher (mu_ held; these take shard locks internally).
    bool flushReadyLocked(std::int64_t t, FlushCause *cause) const;
    bool replicaEligibleLocked(int replica) const;
    /** K-way merge over the shard lanes under ALL shard locks
     *  (ascending); pops up to max_batch in (priority desc, id asc)
     *  order. May return an empty batch if a concurrent shed raced
     *  the flush decision. */
    Batch takeBatchLocked(int replica, std::int64_t t,
                          FlushCause cause);
    std::int64_t oldestQueuedAnyLocked() const;

    // ---- Resilience machinery (mu_ held).
    void breakerAdvanceLocked(std::int64_t t);
    void breakerOnOutcomeLocked(bool ok, bool trial, std::int64_t t);
    void applyChaosAtDispatchLocked(Batch &batch);
    void quarantineLocked(int replica, std::int64_t t);
    void runProbeLocked(int replica, std::int64_t t);
    void fireRetriesLocked(std::int64_t t);
    void fireHedgesLocked(std::int64_t t);
    void scheduleHedgeLocked(const Batch &batch);
    std::int64_t backoffNs(std::uint64_t request_id, int attempt)
        const;
    int activeCountLocked() const;
    bool workPendingLocked() const;

    // ---- Execution + outcome (mu_ NOT held for executeBatch).
    Outcome executeBatch(Batch &batch);
    std::int64_t virtualServiceNs(const Batch &batch,
                                  const Outcome &outcome) const;
    void processOutcomeLocked(Batch &batch, Outcome &outcome,
                              std::int64_t complete_ns);

    // ---- The scheduler (mu_ held).
    /** Make every decision due at @p t, in order: chaos script and
     *  breaker advance, completions in (complete_ns, replica) order,
     *  hedge fires, probes in replica order, deadline shedding,
     *  retries, timed arrivals, then a batch on each eligible free
     *  replica (left executing in running_), starting at @p self and
     *  wrapping around — ascending order when @p self is -1, as
     *  virtual mode passes. True iff it formed a batch. */
    bool stepLocked(std::int64_t t, int self);
    /** Earliest instant at which stepLocked has something to do
     *  (@p now when a batch can flush at once; INT64_MAX if never). */
    std::int64_t nextEventNsLocked(std::int64_t now) const;

    void workerMain(int replica);
    void runVirtualLocked(std::unique_lock<std::mutex> &lock);
    std::int64_t realNow() const;

    std::shared_ptr<const engine::CompiledModel> model_;
    ServerConfig cfg_;
    engine::InferenceEngine engine_;
    ChaosEngine chaos_;
    int target_active_ = 0; ///< active-pool size the server defends
    /** Real mode: idle workers spin before parking (the process may
     *  run on more CPUs than there are replicas). */
    bool spin_ = false;

    /** Admission shards (fixed at construction; unique_ptr keeps
     *  the mutexes pinned). */
    std::vector<std::unique_ptr<Shard>> shards_;

    /// @name Lock-free admission state.
    /// @{
    std::atomic<std::uint64_t> next_id_{0};
    std::atomic<std::size_t> queued_{0}; ///< live entries, all shards
    std::atomic<bool> draining_{false};
    std::atomic<bool> stop_{false};
    std::atomic<int> sleepers_{0}; ///< workers parked on work_cv_
    /// @}

    mutable std::mutex mu_; ///< scheduler state below
    std::condition_variable work_cv_;  ///< workers: queue activity
    std::condition_variable drain_cv_; ///< drain(): progress
    std::vector<Arrival> arrivals_;    ///< virtual mode only
    std::size_t arrival_next_ = 0;     ///< first un-fired arrival
    std::vector<RetryEntry> retries_;  ///< backing off
    std::vector<HedgeTimer> hedges_;   ///< armed hedge timers
    std::vector<RepHealth> health_;    ///< per-replica state
    std::vector<std::optional<Running>> running_; ///< per replica
    Breaker breaker_;
    std::int64_t virtual_now_ = 0;

    mutable std::mutex metrics_mu_;
    ServerMetrics metrics_; ///< scheduler-side counts and state

    std::chrono::steady_clock::time_point epoch_;
    std::vector<std::thread> workers_; ///< real mode only
};

} // namespace sushi::serve

#endif // SUSHI_SERVE_SERVER_HH
