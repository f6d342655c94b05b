#include "serve/metrics.hh"

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

void
ServerMetrics::fold(const ServerMetrics &from)
{
#define SUSHI_METRIC_FOLD(type, name, rule, ...)                         \
    merge::rule{}(name, from.name);
#define SUSHI_METRIC_SKIP(...)
    SUSHI_SERVER_METRICS(SUSHI_METRIC_FOLD, SUSHI_METRIC_SKIP,
                         SUSHI_METRIC_SKIP)
#undef SUSHI_METRIC_FOLD
#undef SUSHI_METRIC_SKIP
}

namespace {

/** Writes one toJson() value by its type. */
struct JsonValue
{
    const ServerMetrics &m;
    JsonWriter &w;

    template <typename Scalar>
    void operator()(const char *key, const Scalar &v) const
    {
        w.field(key, v);
    }

    void operator()(const char *key, const Histogram &h) const
    {
        w.rawField(key, h.json());
    }

    void operator()(const char *key,
                    const chip::InferenceStats &stats) const
    {
        w.rawField(key, engine::statsJson(stats));
    }

    void operator()(const char *key,
                    const std::vector<ReplicaMetrics> &rows) const
    {
        w.beginArray(key);
        for (std::size_t r = 0; r < rows.size(); ++r) {
            w.beginObject();
            w.field("replica", static_cast<int>(r));
            w.field("state", replicaStateName(rows[r].state));
            w.field("batches", rows[r].batches);
            w.field("samples", rows[r].samples);
            w.field("busy_ns", rows[r].busy_ns);
            w.field("failures", rows[r].failures);
            w.field("quarantines", rows[r].quarantines);
            w.field("probes", rows[r].probes);
            w.field("readmissions", rows[r].readmissions);
            w.field("failed_npes", rows[r].failed_npes);
            w.field("degraded", rows[r].degraded());
            w.field("utilisation", m.utilisation(r));
            w.endObject();
        }
        w.endArray();
    }
};

} // namespace

std::string
ServerMetrics::toJson() const
{
    JsonWriter w;
    const JsonValue put{*this, w};
#define SUSHI_METRIC_JSON(type, name, ...) put(#name, name);
#define SUSHI_METRIC_HELD(...)
#define SUSHI_METRIC_DERIVED(key, expr) put(#key, expr);
    SUSHI_SERVER_METRICS(SUSHI_METRIC_JSON, SUSHI_METRIC_HELD,
                         SUSHI_METRIC_DERIVED)
#undef SUSHI_METRIC_JSON
#undef SUSHI_METRIC_HELD
#undef SUSHI_METRIC_DERIVED
    return w.finish();
}

} // namespace sushi::serve
