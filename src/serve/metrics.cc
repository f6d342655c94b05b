#include "serve/metrics.hh"

#include <algorithm>

#include "common/stats.hh"
#include "engine/inference_engine.hh"

namespace sushi::serve {

double
ServerMetrics::utilisation(std::size_t r) const
{
    const std::int64_t span = spanNs();
    if (r >= replicas.size() || span <= 0)
        return 0.0;
    return static_cast<double>(replicas[r].busy_ns) /
           static_cast<double>(span);
}

double
ServerMetrics::goodputRps() const
{
    const std::int64_t span = spanNs();
    if (span <= 0)
        return 0.0;
    const std::uint64_t on_time = completed - deadline_missed;
    return static_cast<double>(on_time) * 1e9 /
           static_cast<double>(span);
}

double
ServerMetrics::availability() const
{
    if (submitted == 0)
        return 1.0;
    const std::uint64_t on_time = completed - deadline_missed;
    return static_cast<double>(on_time) /
           static_cast<double>(submitted);
}

std::uint64_t
ServerMetrics::degradedReplicas() const
{
    std::uint64_t n = 0;
    for (const ReplicaMetrics &r : replicas)
        n += r.degraded() ? 1 : 0;
    return n;
}

bool
MetricsDelta::empty() const
{
#define SUSHI_DELTA_ZERO(name) name == 0 &&
    return SUSHI_METRICS_DELTA_COUNTERS(SUSHI_DELTA_ZERO)
#undef SUSHI_DELTA_ZERO
           first_submit_ns < 0 && last_event_ns == 0 &&
           queue_ns.count() == 0 && service_ns.count() == 0 &&
           total_ns.count() == 0;
}

void
MetricsDelta::foldInto(ServerMetrics &into)
{
#define SUSHI_DELTA_FOLD(name)                                           \
    into.name += name;                                                  \
    name = 0;
    SUSHI_METRICS_DELTA_COUNTERS(SUSHI_DELTA_FOLD)
#undef SUSHI_DELTA_FOLD
    if (first_submit_ns >= 0 &&
        (into.first_submit_ns < 0 ||
         first_submit_ns < into.first_submit_ns))
        into.first_submit_ns = first_submit_ns;
    into.last_event_ns = std::max(into.last_event_ns, last_event_ns);
    into.queue_ns.merge(queue_ns);
    into.service_ns.merge(service_ns);
    into.total_ns.merge(total_ns);
    first_submit_ns = -1;
    last_event_ns = 0;
    queue_ns.reset();
    service_ns.reset();
    total_ns.reset();
}

std::string
ServerMetrics::toJson() const
{
    JsonWriter w;
    w.field("submitted", submitted);
    w.field("accepted", accepted);
    w.field("completed", completed);
    w.field("rejected_queue_full", rejected_queue_full);
    w.field("rejected_deadline", rejected_deadline);
    w.field("rejected_shutdown", rejected_shutdown);
    w.field("rejected_breaker", rejected_breaker);
    w.field("rejected_replica_failure", rejected_replica_failure);
    w.field("rejected_invalid", rejected_invalid);
    w.field("deadline_missed", deadline_missed);
    w.field("batches", batches);
    w.field("flush_size", flush_size);
    w.field("flush_delay", flush_delay);
    w.field("flush_drain", flush_drain);
    w.field("batch_failures", batch_failures);
    w.field("retries", retries);
    w.field("hedges_launched", hedges_launched);
    w.field("hedges_won", hedges_won);
    w.field("hedges_lost", hedges_lost);
    w.field("hedges_cancelled", hedges_cancelled);
    w.field("breaker_opens", breaker_opens);
    w.field("breaker_half_opens", breaker_half_opens);
    w.field("breaker_closes", breaker_closes);
    w.field("breaker_state", breakerStateName(breaker));
    w.field("quarantines", quarantines);
    w.field("probes", probes);
    w.field("probe_failures", probe_failures);
    w.field("readmits", readmits);
    w.field("spares_promoted", spares_promoted);
    w.field("chaos_crashes", chaos_crashes);
    w.field("chaos_stalls", chaos_stalls);
    w.field("chaos_slow_degrades", chaos_slow_degrades);
    w.field("chaos_faults", chaos_faults);
    w.field("chaos_degrades", chaos_degrades);
    w.field("degraded_replicas", degradedReplicas());
    w.field("first_submit_ns", first_submit_ns);
    w.field("last_event_ns", last_event_ns);
    w.field("span_ns", spanNs());
    w.field("goodput_rps", goodputRps());
    w.field("availability", availability());
    w.rawField("queue_ns", queue_ns.json());
    w.rawField("service_ns", service_ns.json());
    w.rawField("total_ns", total_ns.json());
    w.rawField("batch_size", batch_size.json());
    w.beginArray("replicas");
    for (std::size_t r = 0; r < replicas.size(); ++r) {
        w.beginObject();
        w.field("replica", static_cast<int>(r));
        w.field("state", replicaStateName(replicas[r].state));
        w.field("batches", replicas[r].batches);
        w.field("samples", replicas[r].samples);
        w.field("busy_ns", replicas[r].busy_ns);
        w.field("failures", replicas[r].failures);
        w.field("quarantines", replicas[r].quarantines);
        w.field("probes", replicas[r].probes);
        w.field("readmissions", replicas[r].readmissions);
        w.field("failed_npes", replicas[r].failed_npes);
        w.field("degraded", replicas[r].degraded());
        w.field("utilisation", utilisation(r));
        w.endObject();
    }
    w.endArray();
    w.rawField("merged_stats", engine::statsJson(merged));
    return w.finish();
}

} // namespace sushi::serve
