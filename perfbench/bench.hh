/**
 * @file
 * Shared pieces of the repository benchmark: run options, the metric
 * report a workload fills in, order statistics, and the span tracer.
 *
 * Everything here sits outside the sushi libraries. Spans and
 * per-layer timings are taken around calls into each module's public
 * functions, from the benchmark's own code, so the benchmark measures
 * the program exactly as a caller sees it.
 */

#ifndef SUSHI_PERFBENCH_BENCH_HH
#define SUSHI_PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace-event output path (trace runs only). */
    std::string trace_out;
    /** Worker-pool width the run pinned (SUSHI_WORKERS). */
    unsigned pool_width = 1;
};

/** One reported number. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main(). */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Correctness gates that did not hold (empty = correct). */
    std::vector<std::string> violations;
    /** End-to-end metrics (untraced measurement). */
    std::map<std::string, Metric> end_to_end;
    /** Per-layer metrics (traced run). */
    std::map<std::string, Metric> per_layer;

    void e2e(const std::string &name, double v, const char *unit)
    {
        end_to_end[name] = {v, unit};
    }
    void layer(const std::string &name, double v, const char *unit)
    {
        per_layer[name] = {v, unit};
    }
    /** Record a correctness gate; false adds @p what to violations. */
    bool gate(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(what);
        return ok;
    }
};

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Linear-interpolated quantile (q in [0, 1]) of @p v; 0 if empty. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/**
 * In-memory span recorder, written out as Chrome trace-event JSON.
 *
 * A span carries its name, start and end, the span that was open on
 * the same thread when it began (its parent), and the request it
 * belongs to (-1 for none). Disabled tracers record nothing; Scope
 * still measures its own duration, so per-layer timings cost the same
 * two clock reads with tracing on or off. Spans are recorded from the
 * benchmark's driving thread only; the tracer is not thread-safe.
 */
class Tracer
{
  public:
    explicit Tracer(bool on);

    bool on() const { return on_; }

    /** Record a finished span; returns its id (-1 when disabled). */
    std::int64_t record(const char *name, Clock::time_point start,
                        Clock::time_point end, std::int64_t parent,
                        std::int64_t request);

    /** Id of the innermost Scope open on this thread (-1 if none). */
    static std::int64_t current();

    /** Times a region and, when tracing, records it as a span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name,
              std::int64_t request = -1);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Seconds since the scope opened. */
        double elapsed() const { return since(start_); }

      private:
        Tracer &tracer_;
        const char *name_;
        std::int64_t request_;
        std::int64_t id_;
        std::int64_t parent_;
        Clock::time_point start_;
    };

    std::size_t spans() const { return spans_.size(); }

    /** Spans dropped once the in-memory cap was reached. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Write every span as Chrome trace-event JSON ("X" events, times
     * in microseconds) with @p metadata_json spliced in as
     * "otherData". False on any I/O error.
     */
    bool write(const std::string &path,
               const std::string &metadata_json) const;

  private:
    struct Span
    {
        const char *name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::int64_t id;
        std::int64_t parent;
        std::int64_t request;
        std::uint32_t tid;
    };

    std::int64_t reserveId();
    void push(const char *name, Clock::time_point start,
              Clock::time_point end, std::int64_t id,
              std::int64_t parent, std::int64_t request);

    bool on_;
    Clock::time_point epoch_;
    std::int64_t next_id_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<Span> spans_;
};

/**
 * Host-speed calibration. The host is shared, and its speed drifts
 * with its other tenants' load by up to ~1.7x, over spans from a
 * fraction of a second to minutes: longer than a whole run. So every
 * host time is also *normalised*: the driving thread runs a fixed
 * calibration kernel (sample()) between work blocks, and a block's
 * host time is scaled by kReferenceKernelS over the kernel's time
 * around it (blockScales()). The normalised time is the time the block
 * would take at the reference host's unloaded speed.
 *
 * The kernel is the benchmark's own code, not the program's, so a
 * change to the program moves the normalised times exactly as it moves
 * the raw ones. It churns allocations of small vectors and sweeps
 * them, the access pattern the host slowdowns hit hardest; in a probe
 * on the reference host its time tracked a cosim net's within 3% while
 * the net's own time varied 1.7x. It must run on the thread that does
 * the timed work, with that core busy: a separate sampling thread that
 * sleeps between samples tracks the work's speed poorly.
 */
class HostSpeed
{
  public:
    /** Kernel time at the reference host's unloaded speed (4-vCPU
     *  Xeon KVM guest, GCC 12 -O3). */
    static constexpr double kReferenceKernelS = 0.57e-3;

    /** Run the kernel once on this thread; returns its seconds. */
    static double sample();

    /**
     * Scale of each of samples.size() - 1 blocks, where samples[b] was
     * taken just before block b and samples[b + 1] just after it: the
     * reference time over the median of the four samples nearest the
     * block (b - 1 .. b + 2), which shrugs off one disturbed sample.
     */
    static std::vector<double> blockScales(const std::vector<double> &samples);
};

/**
 * The timed phase of every workload. Besides its drift (see HostSpeed),
 * the host's speed flips between a fast and a slow mode. So a run
 * replays one list of short work blocks (milliseconds to ~0.1 s) in
 * kPasses passes and keeps, for each block, the pass in which its
 * normalised time was lowest, and host figures are taken over the kept
 * blocks.
 *
 * @p pass(budget_s, blocks, tracer) runs one pass and returns its
 * blocks in order; each has a `host_s` field, its normalised host
 * time. Pass 0 gets budget_s =
 * seconds / kPasses and blocks = 0: it runs whole blocks (at least
 * kMinBlocks) until its budget is spent, which fixes the block count
 * that every later pass runs (budget_s = 0). In a traced run the odd
 * passes are traced and the even ones are not; each group keeps its
 * own fastest blocks, and comparing the two gives the tracing overhead.
 */
constexpr int kPasses = 16;
constexpr std::size_t kMinBlocks = 2;

template <class Block>
struct BestBlocks
{
    std::vector<Block> untraced;
    std::vector<Block> traced; ///< empty in an untraced run

    static double rate(const std::vector<Block> &blocks)
    {
        double ops = 0.0, s = 0.0;
        for (const Block &b : blocks) {
            ops += static_cast<double>(b.ops);
            s += b.host_s;
        }
        return ops / s;
    }
};

template <class Block, class Pass>
BestBlocks<Block>
bestOfPasses(double seconds, bool trace, Tracer &tracer, Pass &&pass)
{
    Tracer quiet(false);
    BestBlocks<Block> best;
    std::size_t blocks = 0;
    for (int p = 0; p < kPasses; ++p) {
        const bool traced = trace && p % 2 == 1;
        auto &keep = traced ? best.traced : best.untraced;
        std::vector<Block> got =
            pass(p == 0 ? seconds / kPasses : 0.0, blocks,
                 traced ? tracer : quiet);
        if (p == 0)
            blocks = got.size();
        if (keep.empty()) {
            keep = std::move(got);
            continue;
        }
        for (std::size_t b = 0; b < blocks; ++b)
            if (got[b].host_s < keep[b].host_s)
                keep[b] = std::move(got[b]);
    }
    return best;
}

/** Whether pass loop index @p b should run: see bestOfPasses. */
inline bool
moreBlocks(std::size_t b, double budget_s, std::size_t blocks,
           Clock::time_point t0)
{
    return budget_s > 0.0 ? b < kMinBlocks || since(t0) < budget_s
                          : b < blocks;
}

/// @name Workloads (each fills @p report; see README.md).
/// @{
void runServeRealBatched(const Options &opt, Tracer &tracer,
                         Report &report);
void runServeVirtualSparse(const Options &opt, Tracer &tracer,
                           Report &report);
void runGateCosim(const Options &opt, Tracer &tracer, Report &report);
/// @}

} // namespace perfbench

#endif // SUSHI_PERFBENCH_BENCH_HH
