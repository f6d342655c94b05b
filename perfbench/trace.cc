/**
 * @file
 * Span tracer and process-resource helpers of the benchmark.
 */

#include <sys/resource.h>

#include <cstdio>
#include <functional>
#include <thread>

#include "bench.hh"

namespace perfbench {

namespace {

/** Spans kept in memory; later ones are counted as dropped. */
constexpr std::size_t kMaxSpans = 400'000;

thread_local std::int64_t t_current_span = -1;

} // namespace

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

Tracer::Tracer(bool on) : on_(on), epoch_(Clock::now())
{
    if (on_)
        spans_.reserve(1 << 14);
}

std::int64_t
Tracer::reserveId()
{
    return next_id_++;
}

std::int64_t
Tracer::current()
{
    return t_current_span;
}

void
Tracer::push(const char *name, Clock::time_point start,
             Clock::time_point end, std::int64_t id,
             std::int64_t parent, std::int64_t request)
{
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return;
    }
    const auto ns = [this](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - epoch_)
            .count();
    };
    const auto tid = static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        0xffff);
    spans_.push_back({name, ns(start), ns(end), id, parent, request, tid});
}

std::int64_t
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, std::int64_t parent,
               std::int64_t request)
{
    if (!on_)
        return -1;
    const std::int64_t id = reserveId();
    push(name, start, end, id, parent, request);
    return id;
}

Tracer::Scope::Scope(Tracer &tracer, const char *name,
                     std::int64_t request)
    : tracer_(tracer), name_(name), request_(request),
      id_(tracer.on() ? tracer.reserveId() : -1),
      parent_(t_current_span), start_(Clock::now())
{
    if (id_ >= 0)
        t_current_span = id_;
}

Tracer::Scope::~Scope()
{
    if (id_ < 0)
        return;
    t_current_span = parent_;
    tracer_.push(name_, start_, Clock::now(), id_, parent_, request_);
}

bool
Tracer::write(const std::string &path,
              const std::string &metadata_json) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(
            f,
            "{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
            "\"args\":{\"id\":%lld,\"parent\":%lld,\"request\":%lld}}"
            "%s\n",
            s.name, static_cast<double>(s.start_ns) / 1e3,
            static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
            static_cast<long long>(s.id),
            static_cast<long long>(s.parent),
            static_cast<long long>(s.request),
            i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "],\"otherData\":%s}\n", metadata_json.c_str());
    return std::fclose(f) == 0;
}

} // namespace perfbench
