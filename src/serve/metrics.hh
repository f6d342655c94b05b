/**
 * @file
 * Observability snapshot of the serving layer.
 *
 * ServerMetrics is a value type: Server::metrics() copies the live
 * counters/histograms under the metrics lock and the caller owns the
 * snapshot. Every aggregate is integer-valued or derived from
 * integers at render time, so in virtual-clock mode toJson() is
 * byte-identical across worker-thread counts and across repeated
 * runs of the same seeded workload (the serve determinism property
 * in tests/test_serve.cc, extended to whole chaos campaigns in
 * tests/test_chaos.cc).
 *
 * PR 6 adds the resilience counters: retries, hedge outcomes,
 * circuit-breaker transitions, quarantine/probe/readmission
 * accounting, chaos injection totals, and per-replica health state
 * including the failed-NPE gauge surfaced from the chip layer — so
 * a degraded-but-alive replica is distinguishable from a healthy
 * one in the same snapshot that shows a quarantined one.
 */

#ifndef SUSHI_SERVE_METRICS_HH
#define SUSHI_SERVE_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "chip/sushi_chip.hh"
#include "common/histogram.hh"
#include "serve/resilience.hh"

namespace sushi::serve {

/** Per-replica serving totals and health state. */
struct ReplicaMetrics
{
    std::uint64_t batches = 0;  ///< batches executed
    std::uint64_t samples = 0;  ///< requests served
    std::int64_t busy_ns = 0;   ///< time spent executing batches

    /// @name Health accounting (PR 6).
    /// @{
    std::uint64_t failures = 0;     ///< failed batches
    std::uint64_t quarantines = 0;  ///< times quarantined
    std::uint64_t probes = 0;       ///< health probes run
    std::uint64_t readmissions = 0; ///< probe-success readmits
    std::uint64_t failed_npes = 0;  ///< current failed-NPE gauge
    ReplicaState state = ReplicaState::Active; ///< at snapshot time
    /// @}

    /** Degraded-but-alive: serving with remapped NPEs. */
    bool degraded() const { return failed_npes > 0; }
};

/** One coherent snapshot of the server's counters and latency
 *  distributions. */
struct ServerMetrics
{
    /// @name Request accounting.
    /// @{
    std::uint64_t submitted = 0; ///< submit()/submitAt() calls seen
    std::uint64_t accepted = 0;  ///< admitted to the queue
    std::uint64_t completed = 0; ///< executed and answered
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t rejected_deadline = 0; ///< shed before execution
    std::uint64_t rejected_shutdown = 0;
    std::uint64_t rejected_breaker = 0;  ///< breaker fast-fails
    std::uint64_t rejected_replica_failure = 0; ///< retries exhausted
    std::uint64_t rejected_invalid = 0;  ///< malformed input shape
    std::uint64_t deadline_missed = 0; ///< completed after deadline
    /// @}

    /// @name Batcher accounting.
    /// @{
    std::uint64_t batches = 0;
    std::uint64_t flush_size = 0;  ///< flushed at max_batch
    std::uint64_t flush_delay = 0; ///< flushed at max_delay_ns
    std::uint64_t flush_drain = 0; ///< flushed by drain/shutdown
    std::uint64_t batch_failures = 0; ///< dispatches that failed
    /// @}

    /// @name Recovery accounting (PR 6).
    /// @{
    std::uint64_t retries = 0;          ///< retry dispatches queued
    std::uint64_t hedges_launched = 0;  ///< hedge copies enqueued
    std::uint64_t hedges_won = 0;       ///< hedge resolved first
    std::uint64_t hedges_lost = 0;      ///< primary resolved first
    std::uint64_t hedges_cancelled = 0; ///< copy cancelled unqueued
    std::uint64_t breaker_opens = 0;
    std::uint64_t breaker_half_opens = 0;
    std::uint64_t breaker_closes = 0;
    std::uint64_t quarantines = 0;      ///< replicas failed out
    std::uint64_t probes = 0;           ///< health probes run
    std::uint64_t probe_failures = 0;
    std::uint64_t readmits = 0;         ///< probe-success readmits
    std::uint64_t spares_promoted = 0;  ///< hot spares activated
    BreakerState breaker = BreakerState::Closed; ///< at snapshot
    /// @}

    /// @name Chaos injection totals (PR 6).
    /// @{
    std::uint64_t chaos_crashes = 0;
    std::uint64_t chaos_stalls = 0;
    std::uint64_t chaos_slow_degrades = 0;
    std::uint64_t chaos_faults = 0;
    std::uint64_t chaos_degrades = 0; ///< injected NPE failures
    /// @}

    /// @name Latency and batch-size distributions (nanoseconds in
    /// the server's clock domain).
    /// @{
    Histogram queue_ns{Histogram::exponential()};
    Histogram service_ns{Histogram::exponential()};
    Histogram total_ns{Histogram::exponential()};
    Histogram batch_size{Histogram::linear(1, 64, 1)};
    /// @}

    /** Per-replica totals (index = replica id). */
    std::vector<ReplicaMetrics> replicas;

    /** Engine stats folded at batch completion, in completion order
     *  (deterministic under the virtual clock). Includes the
     *  compiler-diagnostic gauges (disabled_neurons, plan_reloads,
     *  jj/area utilisation of the worst plan stage) surfaced through
     *  engine::statsJson. */
    chip::InferenceStats merged;

    std::int64_t first_submit_ns = -1; ///< first admission (-1: none)
    std::int64_t last_event_ns = 0;    ///< latest completion/reject

    /** Observed serving span (first submit to last event). */
    std::int64_t spanNs() const
    {
        return first_submit_ns < 0 ? 0
                                   : last_event_ns - first_submit_ns;
    }

    /** busy_ns of replica @p r as a fraction of spanNs(). */
    double utilisation(std::size_t r) const;

    /** Requests answered on time per second of span. */
    double goodputRps() const;

    /**
     * Availability: fraction of submitted requests that were served
     * AND met their deadline (non-shed, deadline-met fraction — the
     * metric the chaos availability sweep records). 1.0 when nothing
     * was submitted.
     */
    double availability() const;

    /** Replicas currently serving with failed NPEs remapped. */
    std::uint64_t degradedReplicas() const;

    /**
     * Byte-deterministic JSON rendering (common/stats::JsonWriter
     * formatting rules; histograms via Histogram::json()). Equal
     * snapshots give equal bytes.
     */
    std::string toJson() const;
};

/**
 * The shard-delta counters, declared once: X(name) for each
 * ServerMetrics counter of the same name that MetricsDelta adds into
 * it. Admission-side counters first, then completion-side (per-batch)
 * ones. The members, empty() and foldInto() expand from this list.
 */
#define SUSHI_METRICS_DELTA_COUNTERS(X)                                 \
    X(submitted)                                                        \
    X(accepted)                                                         \
    X(rejected_queue_full)                                              \
    X(rejected_deadline)                                                \
    X(rejected_shutdown)                                                \
    X(rejected_breaker)                                                 \
    X(rejected_replica_failure)                                         \
    X(rejected_invalid)                                                 \
    X(hedges_launched)                                                  \
    X(hedges_cancelled)                                                 \
    X(retries)                                                          \
    X(completed)                                                        \
    X(deadline_missed)                                                  \
    X(hedges_won)                                                       \
    X(hedges_lost)

/**
 * Shard-local metrics accumulator of the sharded front-end (PR 10).
 *
 * Admission-path events (submissions, acceptances, typed rejections)
 * are recorded here under the owning shard's lock instead of taking
 * the global metrics lock per request; completion processing records
 * one delta per batch the same way. Deltas are folded into the
 * ServerMetrics rollup at snapshot/drain time in ascending shard
 * order — every field is an integer counter, a min/max watermark, or
 * a fixed-bucket histogram (Histogram::merge), so the fold commutes
 * and the rollup is byte-identical for any shard count and any fold
 * schedule.
 */
struct MetricsDelta
{
#define SUSHI_DELTA_MEMBER(name) std::uint64_t name = 0;
    SUSHI_METRICS_DELTA_COUNTERS(SUSHI_DELTA_MEMBER)
#undef SUSHI_DELTA_MEMBER

    /// @name Watermarks (min / max merge).
    /// @{
    std::int64_t first_submit_ns = -1; ///< min (-1 = none)
    std::int64_t last_event_ns = 0;    ///< max
    /// @}

    /// @name Latency histogram deltas (Histogram::merge path).
    /// @{
    Histogram queue_ns{Histogram::exponential()};
    Histogram service_ns{Histogram::exponential()};
    Histogram total_ns{Histogram::exponential()};
    /// @}

    /** True when nothing has been recorded since the last fold —
     *  the steady-state early-out of the snapshot path. */
    bool empty() const;

    /** Add every field into @p into, then reset this delta in place
     *  (histograms keep their bucket allocation). */
    void foldInto(ServerMetrics &into);
};

} // namespace sushi::serve

#endif // SUSHI_SERVE_METRICS_HH
