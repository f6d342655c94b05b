#include "serve/load_gen.hh"

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "common/rng.hh"

namespace sushi::serve {

namespace {

/** Exponential variate with the given mean; 1 - uniform() is in
 *  (0, 1] so the log argument never hits zero. */
double
expGap(Rng &rng, double mean)
{
    return -std::log(1.0 - rng.uniform()) * mean;
}

/** Fill the per-request fields shared by every arrival process. */
GeneratedArrival
makeArrival(const LoadGenConfig &cfg, Rng &rng, double t)
{
    GeneratedArrival a;
    a.arrival_ns = static_cast<std::int64_t>(t);
    a.sample_index = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(cfg.sample_pool)));
    if (cfg.priorities > 1)
        a.opts.priority = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(cfg.priorities)));
    if (cfg.deadline_ns != kNoDeadline)
        a.opts.deadline_ns = a.arrival_ns + cfg.deadline_ns;
    return a;
}

/** Throw std::invalid_argument, naming @p what, unless @p ok. */
void
require(bool ok, const char *what)
{
    if (!ok)
        throw std::invalid_argument(what);
}

void
checkCommon(const LoadGenConfig &cfg)
{
    require(cfg.rate_rps > 0.0, "LoadGenConfig::rate_rps must be > 0");
    require(cfg.sample_pool >= 1,
            "LoadGenConfig::sample_pool must be >= 1");
    require(cfg.priorities >= 1, "LoadGenConfig::priorities must be >= 1");
}

} // namespace

std::vector<GeneratedArrival>
poissonArrivals(const LoadGenConfig &cfg)
{
    checkCommon(cfg);
    Rng rng(cfg.seed);
    std::vector<GeneratedArrival> out;
    out.reserve(cfg.requests);
    const double mean_gap_ns = 1e9 / cfg.rate_rps;
    double t = 0.0;
    for (std::size_t i = 0; i < cfg.requests; ++i) {
        t += expGap(rng, mean_gap_ns);
        out.push_back(makeArrival(cfg, rng, t));
    }
    return out;
}

std::vector<GeneratedArrival>
burstyArrivals(const LoadGenConfig &cfg)
{
    checkCommon(cfg);
    require(cfg.burst_on_ns > 0, "LoadGenConfig::burst_on_ns must be > 0");
    require(cfg.burst_off_ns > 0,
            "LoadGenConfig::burst_off_ns must be > 0");
    const double on_rate = cfg.burst_rate_rps > 0.0
                               ? cfg.burst_rate_rps
                               : 4.0 * cfg.rate_rps;
    const double mean_gap_ns = 1e9 / on_rate;
    Rng rng(cfg.seed);
    std::vector<GeneratedArrival> out;
    out.reserve(cfg.requests);
    // Alternate exponentially-long ON/OFF phases; arrivals are a
    // Poisson stream confined to the ON phases. Phase boundaries and
    // gaps come from the same sequential seeded stream, so the whole
    // trace is one pure function of (config, seed).
    double t = 0.0;
    double phase_end =
        expGap(rng, static_cast<double>(cfg.burst_on_ns));
    bool on = true;
    while (out.size() < cfg.requests) {
        if (!on) {
            t = phase_end;
            phase_end =
                t + expGap(rng,
                           static_cast<double>(cfg.burst_on_ns));
            on = true;
            continue;
        }
        const double gap = expGap(rng, mean_gap_ns);
        if (t + gap >= phase_end) {
            // The burst ended before the next arrival; jump to the
            // start of the next OFF phase.
            t = phase_end;
            phase_end =
                t + expGap(rng,
                           static_cast<double>(cfg.burst_off_ns));
            on = false;
            continue;
        }
        t += gap;
        out.push_back(makeArrival(cfg, rng, t));
    }
    return out;
}

std::vector<GeneratedArrival>
diurnalArrivals(const LoadGenConfig &cfg)
{
    checkCommon(cfg);
    require(cfg.diurnal_period_ns > 0,
            "LoadGenConfig::diurnal_period_ns must be > 0");
    require(cfg.diurnal_amplitude >= 0.0 && cfg.diurnal_amplitude <= 1.0,
            "LoadGenConfig::diurnal_amplitude must be in [0, 1]");
    Rng rng(cfg.seed);
    std::vector<GeneratedArrival> out;
    out.reserve(cfg.requests);
    // Thinning (Lewis-Shedler): draw candidates at the peak rate and
    // accept with probability rate(t)/peak. Exact for any bounded
    // rate profile, and deterministic because both the candidate
    // stream and the accept draws come from the one seeded Rng.
    const double peak_rps =
        cfg.rate_rps * (1.0 + cfg.diurnal_amplitude);
    const double mean_gap_ns = 1e9 / peak_rps;
    const double two_pi = 2.0 * 3.14159265358979323846;
    double t = 0.0;
    while (out.size() < cfg.requests) {
        t += expGap(rng, mean_gap_ns);
        const double phase =
            two_pi * t / static_cast<double>(cfg.diurnal_period_ns);
        double rate = cfg.rate_rps *
                      (1.0 + cfg.diurnal_amplitude * std::sin(phase));
        if (rate < 0.0)
            rate = 0.0;
        if (rng.uniform() * peak_rps < rate)
            out.push_back(makeArrival(cfg, rng, t));
    }
    return out;
}

ClosedLoopReport
runClosedLoop(Server &server,
              const std::vector<engine::Sample> &samples,
              const ClosedLoopConfig &cfg)
{
    require(server.config().clock == ClockMode::Real,
            "runClosedLoop needs a ClockMode::Real server");
    require(cfg.concurrency >= 1,
            "ClosedLoopConfig::concurrency must be >= 1");
    require(cfg.priorities >= 1,
            "ClosedLoopConfig::priorities must be >= 1");
    require(!samples.empty(), "runClosedLoop needs samples");
    require(cfg.sample_pool >= 1,
            "ClosedLoopConfig::sample_pool must be >= 1");
    require(cfg.sample_pool <= samples.size(),
            "ClosedLoopConfig::sample_pool exceeds the samples given");

    const auto slots = static_cast<std::size_t>(cfg.concurrency);
    std::vector<std::uint64_t> served(slots, 0);
    std::vector<std::uint64_t> rejected(slots, 0);
    std::atomic<std::uint64_t> issued{0};

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> drivers;
    drivers.reserve(slots);
    for (std::size_t slot = 0; slot < slots; ++slot) {
        drivers.emplace_back([&, slot] {
            // Each slot's draw stream is keyed by (seed, slot, k):
            // request contents replay for a given seed regardless of
            // how the threads interleave on the wall clock.
            for (std::uint64_t k = 0;; ++k) {
                if (issued.fetch_add(1) >= cfg.requests)
                    return;
                const std::uint64_t pick =
                    keyedBits(cfg.seed, slot, 2 * k);
                const std::size_t idx = static_cast<std::size_t>(
                    pick % cfg.sample_pool);
                RequestOptions opts;
                if (cfg.priorities > 1)
                    opts.priority = static_cast<int>(
                        keyedBits(cfg.seed, slot, 2 * k + 1) %
                        static_cast<std::uint64_t>(cfg.priorities));
                if (cfg.deadline_ns != kNoDeadline)
                    opts.deadline_ns =
                        server.now() + cfg.deadline_ns;
                auto fut = server.submit(samples[idx], opts);
                const Response resp = fut.get();
                if (resp.ok())
                    ++served[slot];
                else
                    ++rejected[slot];
            }
        });
    }
    for (std::thread &t : drivers)
        t.join();
    const auto t1 = std::chrono::steady_clock::now();

    ClosedLoopReport report;
    report.submitted = cfg.requests;
    for (std::size_t slot = 0; slot < slots; ++slot) {
        report.served += served[slot];
        report.rejected += rejected[slot];
    }
    report.wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    return report;
}

} // namespace sushi::serve
