/**
 * @file
 * Observability snapshot of the serving layer.
 *
 * ServerMetrics is a value type: Server::metrics() folds the
 * scheduler's record and each admission shard's partial record into
 * one snapshot, and the caller owns it. Every field is declared once
 * in SUSHI_SERVER_METRICS with its merge rule — counters add,
 * histograms merge bucket-wise, the span watermarks take min / max,
 * and the scheduler-held state (breaker, per-replica rows, merged
 * engine stats) is not folded. Every aggregate is integer-valued or
 * derived from integers at render time, so in virtual-clock mode
 * toJson() is byte-identical across worker-thread counts, across
 * admission-shard counts and across repeated runs of the same seeded
 * workload (the determinism properties in tests/test_serve.cc,
 * tests/test_frontend.cc and tests/test_chaos.cc).
 *
 * The per-replica rows carry the health state, including the
 * failed-NPE gauge surfaced from the chip layer, so a
 * degraded-but-alive replica is distinguishable from a healthy one
 * in the same snapshot that shows a quarantined one.
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

/**
 * Every ServerMetrics field and toJson() key, declared once, in key
 * order. Three kinds of row:
 *
 *  - F(type, name, rule[, init]): a field that ServerMetrics::fold
 *    merges by @p rule (serve::merge), rendered under its own name.
 *  - S(type, name): a field only the scheduler sets; fold
 *    keeps the receiving snapshot's value, and a D row renders it.
 *  - D(key, expr): a key rendered from the fields at toJson() time.
 *
 * The members, fold() and toJson() expand from this list, so adding
 * a counter is one line.
 */
#define SUSHI_SERVER_METRICS(F, S, D)                                   \
    /* Request accounting. */                                           \
    F(std::uint64_t, submitted, Add)   /* submit()/submitAt() calls */  \
    F(std::uint64_t, accepted, Add)    /* admitted to the queue */      \
    F(std::uint64_t, completed, Add)   /* executed and answered */      \
    F(std::uint64_t, rejected_queue_full, Add)                          \
    F(std::uint64_t, rejected_deadline, Add) /* shed before running */  \
    F(std::uint64_t, rejected_shutdown, Add)                            \
    F(std::uint64_t, rejected_breaker, Add) /* breaker fast-fails */    \
    F(std::uint64_t, rejected_replica_failure, Add) /* retries out */   \
    F(std::uint64_t, rejected_invalid, Add) /* malformed input shape */ \
    F(std::uint64_t, deadline_missed, Add) /* completed after it */     \
    /* Batcher accounting. */                                           \
    F(std::uint64_t, batches, Add)                                      \
    F(std::uint64_t, flush_size, Add)      /* flushed at max_batch */   \
    F(std::uint64_t, flush_delay, Add)     /* at max_delay_ns */        \
    F(std::uint64_t, flush_drain, Add)     /* by drain/shutdown */      \
    F(std::uint64_t, batch_failures, Add)  /* dispatches that failed */ \
    /* Recovery accounting. */                                          \
    F(std::uint64_t, retries, Add)         /* retries queued */         \
    F(std::uint64_t, hedges_launched, Add) /* hedge copies enqueued */  \
    F(std::uint64_t, hedges_won, Add)      /* hedge resolved first */   \
    F(std::uint64_t, hedges_lost, Add)     /* primary resolved first */ \
    F(std::uint64_t, hedges_cancelled, Add) /* cancelled unqueued */    \
    F(std::uint64_t, breaker_opens, Add)                                \
    F(std::uint64_t, breaker_half_opens, Add)                           \
    F(std::uint64_t, breaker_closes, Add)                               \
    S(BreakerState, breaker)               /* at snapshot */            \
    D(breaker_state, breakerStateName(breaker))                         \
    F(std::uint64_t, quarantines, Add)     /* replicas failed out */    \
    F(std::uint64_t, probes, Add)          /* health probes run */      \
    F(std::uint64_t, probe_failures, Add)                               \
    F(std::uint64_t, readmits, Add)        /* probe-success readmits */ \
    F(std::uint64_t, spares_promoted, Add) /* hot spares activated */   \
    /* Chaos injection totals. */                                       \
    F(std::uint64_t, chaos_crashes, Add)                                \
    F(std::uint64_t, chaos_stalls, Add)                                 \
    F(std::uint64_t, chaos_slow_degrades, Add)                          \
    F(std::uint64_t, chaos_faults, Add)                                 \
    F(std::uint64_t, chaos_degrades, Add)  /* injected NPE failures */  \
    D(degraded_replicas, degradedReplicas())                            \
    /* Serving span watermarks. */                                      \
    F(std::int64_t, first_submit_ns, Min, -1) /* first admit; -1 none */\
    F(std::int64_t, last_event_ns, Max)    /* latest completion */      \
    D(span_ns, spanNs())                                                \
    D(goodput_rps, goodputRps())                                        \
    D(availability, availability())                                     \
    /* Latency and batch-size distributions (nanoseconds in the      */ \
    /* server's clock domain).                                       */ \
    F(Histogram, queue_ns, Buckets, Histogram::exponential())           \
    F(Histogram, service_ns, Buckets, Histogram::exponential())         \
    F(Histogram, total_ns, Buckets, Histogram::exponential())           \
    F(Histogram, batch_size, Buckets, Histogram::linear(1, 64, 1))      \
    S(std::vector<ReplicaMetrics>, replicas) /* index = replica id */   \
    D(replicas, replicas)                                               \
    /* Engine stats folded at batch completion, in completion order  */ \
    /* (deterministic under the virtual clock), with the compiler    */ \
    /* diagnostic gauges of engine::statsJson.                       */ \
    S(chip::InferenceStats, merged)                                     \
    D(merged_stats, merged)

/** Merge rules of the ServerMetrics fields. */
namespace merge {

using chip::merge::Add; ///< counters
using chip::merge::Max; ///< latest-event watermark

/** Earliest-event watermark; -1 on either side means none. */
struct Min
{
    void operator()(std::int64_t &into, std::int64_t from) const
    {
        if (from >= 0 && (into < 0 || from < into))
            into = from;
    }
};

/** Histograms: Histogram::merge (bounds must match). */
struct Buckets
{
    void operator()(Histogram &into, const Histogram &from) const
    {
        into.merge(from);
    }
};

} // namespace merge

/** One coherent snapshot of the server's counters and latency
 *  distributions (fields: see SUSHI_SERVER_METRICS). */
struct ServerMetrics
{
#define SUSHI_METRIC_FIELD(type, name, rule, ...) type name{__VA_ARGS__};
#define SUSHI_METRIC_HELD(type, name) type name{};
#define SUSHI_METRIC_DERIVED(key, expr)
    SUSHI_SERVER_METRICS(SUSHI_METRIC_FIELD, SUSHI_METRIC_HELD,
                         SUSHI_METRIC_DERIVED)
#undef SUSHI_METRIC_FIELD
#undef SUSHI_METRIC_HELD
#undef SUSHI_METRIC_DERIVED

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
     * Merge @p from's F fields into this snapshot by their rules.
     * Every rule commutes, so folding any number of partial
     * snapshots in any order gives the same bytes; S fields keep
     * this snapshot's values.
     */
    void fold(const ServerMetrics &from);

    /**
     * Byte-deterministic JSON rendering (common/stats::JsonWriter
     * formatting rules; histograms via Histogram::json()). Equal
     * snapshots give equal bytes.
     */
    std::string toJson() const;
};

} // namespace sushi::serve

#endif // SUSHI_SERVE_METRICS_HH
