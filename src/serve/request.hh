/**
 * @file
 * Request-facing value types of the serving layer: scheduling
 * options, typed rejection causes, the response a request's future
 * resolves to, and the clock-domain selector.
 *
 * Split out of server.hh (PR 10) so the sharded pending-queue
 * storage (request_pool.hh) can hold a std::promise<Response>
 * without pulling in the Server itself — std::promise requires its
 * result type to be complete.
 */

#ifndef SUSHI_SERVE_REQUEST_HH
#define SUSHI_SERVE_REQUEST_HH

#include <cstdint>

#include "engine/inference_engine.hh"

namespace sushi::serve {

/** "No deadline" sentinel for RequestOptions::deadline_ns. */
constexpr std::int64_t kNoDeadline = INT64_MAX;

/** Clock domain the server schedules in. */
enum class ClockMode { Real, Virtual };

/** Why a request was rejected instead of served. */
enum class Reject : std::uint8_t {
    None = 0,         ///< served
    QueueFull,        ///< admission bound hit
    DeadlineExceeded, ///< deadline passed before execution
    ShuttingDown,     ///< submitted after drain()/shutdown()
    BreakerOpen,      ///< circuit breaker fast-fail
    ReplicaFailure,   ///< dispatch failed and retry budget exhausted
    InvalidRequest,   ///< wrong frame count or width, or a non-0/1 value
};

/** Stable lowercase name for a rejection cause. */
const char *rejectName(Reject r);

/** Per-request scheduling options. */
struct RequestOptions
{
    /** Absolute deadline in the server's clock domain; the request
     *  is shed (never executed) once this instant passes. */
    std::int64_t deadline_ns = kNoDeadline;

    /** Higher priorities are dequeued first; ties serve in arrival
     *  order. */
    int priority = 0;
};

/** What a request's future resolves to. */
struct Response
{
    engine::SampleResult result; ///< empty when rejected
    Reject rejected = Reject::None;

    bool ok() const { return rejected == Reject::None; }

    std::uint64_t id = 0;        ///< admission sequence number
    std::int64_t submit_ns = 0;  ///< admission instant
    std::int64_t dispatch_ns = 0; ///< batch formation instant
    std::int64_t complete_ns = 0; ///< completion / rejection instant
    bool deadline_missed = false; ///< served, but past its deadline
    int replica = -1;            ///< replica that served it
    int batch_size = 0;          ///< size of its batch
    int retries = 0;             ///< failed dispatches beforehand
    bool hedged = false;         ///< a hedge copy was launched

    std::int64_t queueNs() const { return dispatch_ns - submit_ns; }
    std::int64_t serviceNs() const
    {
        return complete_ns - dispatch_ns;
    }
    std::int64_t totalNs() const { return complete_ns - submit_ns; }
};

} // namespace sushi::serve

#endif // SUSHI_SERVE_REQUEST_HH
