/**
 * @file
 * Seeded open-loop arrival-process generator for the serving layer.
 *
 * Produces deterministic arrival schedules that tests and the serve
 * benches feed into a virtual-clock Server via submitAt(). Equal
 * (config, seed) give byte-equal schedules, which is half of the
 * serve determinism contract — the other half is the Server's
 * virtual event loop.
 *
 * Two arrival processes:
 *  - poissonArrivals  — homogeneous Poisson (exponential gaps).
 *  - burstyArrivals   — on/off Markov-modulated Poisson: the source
 *    alternates between exponentially-distributed ON bursts (at
 *    burst_rate_rps) and OFF silences; the retry/hedge/breaker paths
 *    see realistic clumped load instead of a smooth stream.
 */

#ifndef SUSHI_SERVE_LOAD_GEN_HH
#define SUSHI_SERVE_LOAD_GEN_HH

#include <cstdint>
#include <vector>

#include "serve/server.hh"

namespace sushi::serve {

/** Arrival-process knobs. */
struct LoadGenConfig
{
    /** Mean arrival rate, requests per (virtual) second. */
    double rate_rps = 1000.0;

    /** Number of requests to generate. */
    std::size_t requests = 1000;

    /** Size of the sample pool indices are drawn from. */
    std::size_t sample_pool = 1;

    /** RNG seed; equal seeds give equal schedules. */
    std::uint64_t seed = 1;

    /** Relative deadline added to each arrival instant
     *  (kNoDeadline = none). */
    std::int64_t deadline_ns = kNoDeadline;

    /** Priorities are drawn uniformly from [0, priorities). */
    int priorities = 1;

    /// @name Bursty (on/off Markov) trace knobs — burstyArrivals.
    /// @{
    /** Arrival rate while the source is ON (0 = 4 x rate_rps). */
    double burst_rate_rps = 0.0;

    /** Mean ON-phase duration (exponentially distributed). */
    std::int64_t burst_on_ns = 2'000'000;

    /** Mean OFF-phase duration (exponentially distributed). */
    std::int64_t burst_off_ns = 6'000'000;
    /// @}
};

/** One generated request arrival. */
struct GeneratedArrival
{
    std::int64_t arrival_ns = 0;
    std::size_t sample_index = 0; ///< in [0, sample_pool)
    RequestOptions opts;
};

/** Deterministic Poisson arrival schedule (sorted by arrival_ns).
 *  Each generator throws std::invalid_argument naming the field,
 *  before any draw, on rate_rps <= 0 (or NaN), sample_pool 0 or
 *  priorities < 1, and on its own knobs out of range below. */
std::vector<GeneratedArrival>
poissonArrivals(const LoadGenConfig &cfg);

/** Deterministic on/off Markov-modulated Poisson schedule: ON
 *  phases emit at burst_rate_rps, OFF phases are silent. Sorted by
 *  arrival_ns. Throws on burst_on_ns or burst_off_ns <= 0. */
std::vector<GeneratedArrival>
burstyArrivals(const LoadGenConfig &cfg);

} // namespace sushi::serve

#endif // SUSHI_SERVE_LOAD_GEN_HH
