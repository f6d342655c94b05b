#include "serve/load_gen.hh"

#include <cmath>
#include <stdexcept>

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

} // namespace sushi::serve
