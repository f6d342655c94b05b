#include "serve/server.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "compiler/budget.hh"
#include "sfq/simulator.hh"

namespace sushi::serve {

namespace {

/** Cap real-mode condition waits: a periodic wake is harmless and
 *  keeps kNoDeadline arithmetic away from time_point overflow. */
constexpr std::int64_t kMaxWaitNs = 1'000'000'000;

/** How long an idle real-clock worker polls the queue before it
 *  parks. It covers the ~15-20 us from a batch's completion to the
 *  closed-loop caller's first refill admit, so that admit finds the
 *  worker on-core and pays no futex wake. 100 us measured no better,
 *  and a shorter spin burns less of an idle server's CPU. */
constexpr std::int64_t kSpinNs = 50'000;

/** "No candidate" sentinel for event-time minima. */
constexpr std::int64_t kNever = INT64_MAX;

/** Domain separator of the retry-jitter keyed draws. */
constexpr std::uint64_t kRetryJitterKey = 0x52e7b1a9f36d04c5ULL;

/** One spin-wait step: a pause hint where the ISA has one. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#endif
}

/** The engine pool is the active target plus the hot spares. */
engine::EngineConfig
poolConfig(const ServerConfig &cfg)
{
    engine::EngineConfig ec = cfg.engine;
    int active = ec.replicas;
    if (active <= 0)
        active = static_cast<int>(parallelWorkers());
    ec.replicas = active + cfg.hot_spares;
    return ec;
}

/** Throw std::invalid_argument naming the first field a Server
 *  cannot run with; runs before the engines see @p cfg. */
const ServerConfig &
validated(const ServerConfig &cfg)
{
    const auto require = [](bool ok, const char *what) {
        if (!ok)
            throw std::invalid_argument(std::string("ServerConfig.") +
                                        what);
    };
    require(cfg.engine.replicas >= 0, "engine.replicas must be >= 0");
    require(cfg.max_batch >= 1, "max_batch must be >= 1");
    require(cfg.max_queue >= 1, "max_queue must be >= 1");
    require(cfg.max_delay_ns >= 0, "max_delay_ns must be >= 0");
    require(cfg.hot_spares >= 0, "hot_spares must be >= 0");
    // HalfOpen would admit no trial batch, stranding its admits.
    require(!cfg.breaker.enabled() || cfg.breaker.half_open_probes >= 1,
            "breaker.half_open_probes must be >= 1 when the breaker "
            "is enabled");
    const int pool = poolConfig(cfg).replicas;
    for (const ChaosScript &ev : cfg.chaos.script)
        require(ev.replica >= 0 && ev.replica < pool,
                "chaos.script replica must be inside the pool");
    return cfg;
}

} // namespace

const char *
rejectName(Reject r)
{
    switch (r) {
      case Reject::None: return "none";
      case Reject::QueueFull: return "queue_full";
      case Reject::DeadlineExceeded: return "deadline_exceeded";
      case Reject::ShuttingDown: return "shutting_down";
      case Reject::BreakerOpen: return "breaker_open";
      case Reject::ReplicaFailure: return "replica_failure";
      case Reject::InvalidRequest: return "invalid_request";
    }
    return "?";
}

Server::Server(std::shared_ptr<const engine::CompiledModel> model,
               const ServerConfig &cfg)
    : model_(std::move(model)),
      cfg_(validated(cfg)),
      engine_(model_, poolConfig(cfg_)),
      chaos_(cfg_.chaos, engine_.replicas()),
      epoch_(std::chrono::steady_clock::now())
{
    target_active_ = engine_.replicas() - cfg_.hot_spares;
    const int nshards = cfg_.admission_shards > 0
                            ? cfg_.admission_shards
                            : engine_.replicas();
    shards_.reserve(static_cast<std::size_t>(nshards));
    for (int s = 0; s < nshards; ++s)
        shards_.push_back(std::make_unique<Shard>());
    health_.resize(static_cast<std::size_t>(engine_.replicas()));
    running_.resize(health_.size());
    metrics_.replicas.resize(
        static_cast<std::size_t>(engine_.replicas()));
    for (int r = target_active_; r < engine_.replicas(); ++r) {
        health_[static_cast<std::size_t>(r)].state =
            ReplicaState::Spare;
        metrics_.replicas[static_cast<std::size_t>(r)].state =
            ReplicaState::Spare;
    }
    if (cfg_.clock == ClockMode::Real) {
        // A spinning worker holds a CPU; leave one for the callers.
        spin_ = usableCpus() > static_cast<unsigned>(engine_.replicas());
        workers_.reserve(metrics_.replicas.size());
        for (int r = 0; r < engine_.replicas(); ++r)
            workers_.emplace_back([this, r] { workerMain(r); });
    }
}

Server::~Server()
{
    shutdown();
}

std::int64_t
Server::realNow() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::int64_t
Server::now() const
{
    if (cfg_.clock == ClockMode::Virtual) {
        std::lock_guard<std::mutex> lock(mu_);
        return virtual_now_;
    }
    return realNow();
}

ReplicaState
Server::replicaState(int r) const
{
    if (r < 0 || r >= engine_.replicas())
        throw std::out_of_range("Server::replicaState: replica " +
                                std::to_string(r) +
                                " is outside the pool");
    std::lock_guard<std::mutex> lock(mu_);
    return health_[static_cast<std::size_t>(r)].state;
}

BreakerState
Server::breakerState() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return breaker_.state;
}

PendingReq
Server::makeRequest(engine::Sample &&sample,
                    const RequestOptions &opts, std::int64_t t)
{
    PendingReq req;
    req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    req.request_id = req.id;
    req.priority = opts.priority;
    req.submit_ns = t;
    req.queued_ns = t;
    req.deadline_ns = opts.deadline_ns;
    const snn::BinarySnn &net = model_->network();
    if (sample.size() == static_cast<std::size_t>(net.tSteps())) {
        auto frames = std::make_shared<chip::SpikeFrames>();
        if (frames->assign(sample, net.layers().front().inDim()))
            req.frames = std::move(frames);
    }
    sample = engine::Sample{}; // freed before any lock is taken
    req.state = std::make_shared<ReqState>();
    return req;
}

std::future<Response>
Server::submit(engine::Sample sample, const RequestOptions &opts)
{
    if (cfg_.clock == ClockMode::Virtual) {
        std::lock_guard<std::mutex> lock(mu_);
        // Defer admission to runVirtual() at the current instant.
        return submitAtLocked(virtual_now_, std::move(sample), opts);
    }

    const std::int64_t t = realNow();
    PendingReq req = makeRequest(std::move(sample), opts, t);
    auto fut = req.state->promise.get_future();

    // Breaker state is central (it aggregates outcomes from every
    // replica), so a breaker-enabled server pays for mu_ here. With
    // the breaker off — the default — the fast path below touches
    // only the owning shard.
    std::unique_lock<std::mutex> global;
    if (cfg_.breaker.enabled()) {
        global = std::unique_lock<std::mutex>(mu_);
        breakerAdvanceLocked(t);
    }

    Shard &sh = shardOf(req.request_id);
    std::unique_lock<std::mutex> slock(sh.mu);
    ++sh.metrics.submitted;
    if (draining_.load() || stop_.load()) {
        fulfillRejectLocked(sh, req, Reject::ShuttingDown, t);
        return fut;
    }
    // Shed this shard's expired entries (their retry/hedge timers
    // are reaped lazily — firing a timer of a resolved request is a
    // no-op); the global sweep happens in the scheduler step.
    shedShardLocked(sh, t, /*reap=*/false);
    if (!admitOrRejectLocked(sh, req, t))
        return fut;
    slock.unlock();
    if (global.owns_lock())
        global.unlock();
    wakeWorkers();
    return fut;
}

std::future<Response>
Server::submitAt(std::int64_t arrival_ns, engine::Sample sample,
                 const RequestOptions &opts)
{
    if (cfg_.clock != ClockMode::Virtual)
        throw std::logic_error(
            "Server::submitAt needs ClockMode::Virtual");
    std::lock_guard<std::mutex> lock(mu_);
    return submitAtLocked(arrival_ns, std::move(sample), opts);
}

std::future<Response>
Server::submitAtLocked(std::int64_t arrival_ns,
                       engine::Sample sample,
                       const RequestOptions &opts)
{
    PendingReq req = makeRequest(std::move(sample), opts, arrival_ns);
    auto fut = req.state->promise.get_future();
    Shard &sh = shardOf(req.request_id);
    std::lock_guard<std::mutex> slock(sh.mu);
    ++sh.metrics.submitted;
    if (draining_.load() || stop_.load()) {
        fulfillRejectLocked(sh, req, Reject::ShuttingDown,
                            std::max(arrival_ns, virtual_now_));
        return fut;
    }
    arrivals_.push_back(Arrival{arrival_ns, std::move(req)});
    return fut;
}

bool
Server::tryReserveQueueSlot()
{
    // fetch_add-then-check keeps the bound exact under concurrent
    // submits to different shards: each admit atomically claims one
    // slot and rolls back on overflow.
    if (queued_.fetch_add(1) < cfg_.max_queue)
        return true;
    queued_.fetch_sub(1);
    return false;
}

bool
Server::admitOrRejectLocked(Shard &sh, PendingReq &req, std::int64_t t)
{
    Reject reason = Reject::None;
    if (req.frames == nullptr)
        reason = Reject::InvalidRequest;
    else if (req.deadline_ns <= t)
        reason = Reject::DeadlineExceeded;
    else if (cfg_.breaker.enabled() &&
             breaker_.state == BreakerState::Open)
        reason = Reject::BreakerOpen;
    else if (!tryReserveQueueSlot())
        reason = Reject::QueueFull;
    if (reason != Reject::None) {
        fulfillRejectLocked(sh, req, reason, t);
        return false;
    }
    admitShardLocked(sh, std::move(req), t);
    return true;
}

void
Server::admitShardLocked(Shard &sh, PendingReq &&req, std::int64_t t)
{
    ++req.state->live;
    ++sh.metrics.accepted;
    if (sh.metrics.first_submit_ns < 0 || t < sh.metrics.first_submit_ns)
        sh.metrics.first_submit_ns = t;
    sh.pool.enqueue(std::move(req));
}

void
Server::fulfillRejectLocked(Shard &sh, PendingReq &req, Reject reason,
                            std::int64_t event_ns,
                            std::vector<Resolution> *defer)
{
    Response resp;
    resp.rejected = reason;
    resp.id = req.request_id;
    resp.submit_ns = req.submit_ns;
    resp.dispatch_ns = event_ns;
    resp.complete_ns = event_ns;
    resp.retries = req.state->failures;
    resp.hedged = req.state->hedged;
    switch (reason) {
      case Reject::QueueFull:
        ++sh.metrics.rejected_queue_full;
        break;
      case Reject::DeadlineExceeded:
        ++sh.metrics.rejected_deadline;
        break;
      case Reject::ShuttingDown:
        ++sh.metrics.rejected_shutdown;
        break;
      case Reject::BreakerOpen:
        ++sh.metrics.rejected_breaker;
        break;
      case Reject::ReplicaFailure:
        ++sh.metrics.rejected_replica_failure;
        break;
      case Reject::InvalidRequest:
        ++sh.metrics.rejected_invalid;
        break;
      case Reject::None:
        break;
    }
    sh.metrics.last_event_ns =
        std::max(sh.metrics.last_event_ns, event_ns);
    req.state->resolved = true;
    if (defer != nullptr)
        defer->push_back(Resolution{req.state, std::move(resp)});
    else
        req.state->promise.set_value(std::move(resp));
}

void
Server::rejectQueuedLocked(Shard &sh, PendingReq &req, Reject reason,
                           std::int64_t event_ns)
{
    fulfillRejectLocked(sh, req, reason, event_ns);
    purgeShardCopiesLocked(sh, req.state);
}

void
Server::purgeShardCopiesLocked(
    Shard &sh, const std::shared_ptr<ReqState> &state)
{
    // First resolution wins: remove every still-queued copy of the
    // request (running copies discard themselves at completion).
    // All copies share the request_id, so they all live here.
    if (state->live <= 0)
        return;
    sh.pool.removeIf(
        [&](const PendingReq &q) {
            return state->live > 0 && q.state == state;
        },
        [&](PendingReq &&q) {
            if (q.is_hedge)
                ++sh.metrics.hedges_cancelled;
            --state->live;
            queued_.fetch_sub(1);
        });
}

void
Server::reapTimersLocked(const std::shared_ptr<ReqState> &state)
{
    for (auto it = retries_.begin();
         it != retries_.end() && state->live > 0;) {
        if (it->req.state == state) {
            --state->live;
            it = retries_.erase(it);
        } else {
            ++it;
        }
    }
    if (!hedges_.empty())
        hedges_.erase(
            std::remove_if(hedges_.begin(), hedges_.end(),
                           [&](const HedgeTimer &h) {
                               return h.proto.state == state;
                           }),
            hedges_.end());
}

void
Server::shedShardLocked(Shard &sh, std::int64_t t, bool reap)
{
    sh.pool.removeIf(
        [&](const PendingReq &q) { return q.deadline_ns <= t; },
        [&](PendingReq &&q) {
            queued_.fetch_sub(1);
            --q.state->live;
            if (!q.state->resolved && q.state->live <= 0) {
                fulfillRejectLocked(sh, q, Reject::DeadlineExceeded,
                                    t);
                if (reap)
                    reapTimersLocked(q.state);
            }
        });
}

void
Server::shedExpiredAllLocked(std::int64_t t)
{
    for (auto &sh : shards_) {
        std::lock_guard<std::mutex> slock(sh->mu);
        shedShardLocked(*sh, t, /*reap=*/true);
    }
}

void
Server::wakeWorkers()
{
    // Workers publish themselves in sleepers_ before re-checking the
    // queue depth and waiting; the seq_cst total order over that
    // re-check and our enqueue guarantees either they saw the new
    // entry or we see sleepers_ > 0 here. Notifying under mu_ closes
    // the re-check-to-wait window.
    if (sleepers_.load() == 0)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    work_cv_.notify_all();
}

bool
Server::flushReadyLocked(std::int64_t t, FlushCause *cause) const
{
    const std::size_t depth = queued_.load();
    if (depth == 0)
        return false;
    if (depth >= cfg_.max_batch) {
        *cause = FlushCause::Size;
        return true;
    }
    if (draining_.load() || stop_.load()) {
        *cause = FlushCause::Drain;
        return true;
    }
    const std::int64_t oldest = oldestQueuedAnyLocked();
    if (oldest != kNever && t - oldest >= cfg_.max_delay_ns) {
        *cause = FlushCause::Delay;
        return true;
    }
    return false;
}

bool
Server::replicaEligibleLocked(int replica) const
{
    if (health_[static_cast<std::size_t>(replica)].state !=
        ReplicaState::Active)
        return false;
    // HalfOpen admits a bounded number of concurrent trial batches.
    if (cfg_.breaker.enabled() &&
        breaker_.state == BreakerState::HalfOpen &&
        breaker_.half_open_inflight >= cfg_.breaker.half_open_probes)
        return false;
    return true;
}

Server::Batch
Server::takeBatchLocked(int replica, std::int64_t t, FlushCause cause)
{
    Batch batch;
    batch.replica = replica;
    batch.dispatch_ns = t;
    batch.cause = cause;

    // K-way merge over the shard lanes: hold every shard lock
    // (ascending index — the one multi-shard section) and repeatedly
    // pop the global (priority desc, id asc) best. Each pop is
    // O(shards), the whole flush O(batch * shards) — independent of
    // queue depth.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (auto &sh : shards_)
        locks.emplace_back(sh->mu);

    batch.reqs.reserve(cfg_.max_batch);
    std::vector<PendingReq> stash; // dup copies skipped this flush
    while (batch.reqs.size() < cfg_.max_batch) {
        Shard *best_sh = nullptr;
        const PendingReq *best = nullptr;
        for (auto &sh : shards_) {
            const PendingReq *p = sh->pool.peekBest();
            if (!p)
                continue;
            if (!best || p->priority > best->priority ||
                (p->priority == best->priority && p->id < best->id)) {
                best = p;
                best_sh = sh.get();
            }
        }
        if (!best)
            break;
        PendingReq req = best_sh->pool.popBest();
        queued_.fetch_sub(1);
        // Never put two copies of one request (primary + hedge) in
        // the same batch — the duplicate would be wasted work.
        bool dup = false;
        for (const PendingReq &q : batch.reqs)
            if (q.state == req.state) {
                dup = true;
                break;
            }
        if (dup) {
            stash.push_back(std::move(req));
        } else {
            // A real-clock worker reads its clock before taking the
            // shard locks, so a request enqueued in between is newer
            // than t: dispatch no earlier than it was queued.
            batch.dispatch_ns =
                std::max(batch.dispatch_ns, req.queued_ns);
            batch.reqs.push_back(std::move(req));
        }
    }
    // Skipped duplicates stay queued: re-enqueue keeps their old ids
    // (sorted insert restores their lane position exactly).
    for (PendingReq &req : stash) {
        queued_.fetch_add(1);
        shardOf(req.request_id).pool.enqueue(std::move(req));
    }
    return batch;
}

std::int64_t
Server::oldestQueuedAnyLocked() const
{
    // Retry and hedge copies re-enter the queue with fresh enqueue
    // times, so the longest-waiting copy is found by scan, not by
    // smallest id. Min over shards is order-independent.
    std::int64_t oldest = kNever;
    for (const auto &sh : shards_) {
        std::lock_guard<std::mutex> slock(sh->mu);
        sh->pool.forEachLive([&](const PendingReq &q) {
            oldest = std::min(oldest, q.queued_ns);
        });
    }
    return oldest;
}

int
Server::activeCountLocked() const
{
    int n = 0;
    for (const RepHealth &h : health_)
        n += h.state == ReplicaState::Active ? 1 : 0;
    return n;
}

bool
Server::workPendingLocked() const
{
    return queued_.load() > 0 || !retries_.empty() ||
           std::any_of(running_.begin(), running_.end(),
                       [](const auto &slot) { return slot.has_value(); });
}

std::int64_t
Server::backoffNs(std::uint64_t request_id, int attempt) const
{
    const RetryPolicy &rp = cfg_.retry;
    std::int64_t delay = std::max<std::int64_t>(1, rp.backoff_ns);
    for (int i = 1; i < attempt && delay < rp.backoff_max_ns; ++i)
        delay *= 2;
    delay = std::min(delay,
                     std::max<std::int64_t>(1, rp.backoff_max_ns));
    if (rp.jitter > 0.0) {
        // Keyed draw: the jitter of attempt k of request r is a pure
        // function of (seed, r, k) — no shared RNG state, so retry
        // schedules replay identically at any thread count.
        const std::uint64_t bits =
            keyedBits(cfg_.resilience_seed ^ kRetryJitterKey,
                      request_id, static_cast<std::uint64_t>(attempt));
        const double u =
            static_cast<double>(bits >> 11) * 0x1.0p-53;
        const double scale =
            1.0 - rp.jitter + 2.0 * rp.jitter * u;
        delay = static_cast<std::int64_t>(
            std::llround(static_cast<double>(delay) * scale));
    }
    return std::max<std::int64_t>(1, delay);
}

void
Server::breakerAdvanceLocked(std::int64_t t)
{
    if (!cfg_.breaker.enabled())
        return;
    if (breaker_.state == BreakerState::Open &&
        t >= breaker_.open_until) {
        breaker_.state = BreakerState::HalfOpen;
        breaker_.half_open_successes = 0;
        breaker_.half_open_inflight = 0;
        std::lock_guard<std::mutex> mlock(metrics_mu_);
        ++metrics_.breaker_half_opens;
        metrics_.breaker = BreakerState::HalfOpen;
    }
}

void
Server::breakerOnOutcomeLocked(bool ok, bool trial, std::int64_t t)
{
    if (!cfg_.breaker.enabled())
        return;
    if (trial && breaker_.half_open_inflight > 0)
        --breaker_.half_open_inflight;
    if (ok) {
        breaker_.consecutive_failures = 0;
        if (breaker_.state == BreakerState::HalfOpen && trial &&
            ++breaker_.half_open_successes >=
                cfg_.breaker.half_open_probes) {
            breaker_.state = BreakerState::Closed;
            breaker_.half_open_successes = 0;
            std::lock_guard<std::mutex> mlock(metrics_mu_);
            ++metrics_.breaker_closes;
            metrics_.breaker = BreakerState::Closed;
        }
        return;
    }
    ++breaker_.consecutive_failures;
    const bool trip =
        breaker_.state == BreakerState::HalfOpen ||
        (breaker_.state == BreakerState::Closed &&
         breaker_.consecutive_failures >=
             cfg_.breaker.failure_threshold);
    if (trip) {
        breaker_.state = BreakerState::Open;
        breaker_.open_until = t + cfg_.breaker.open_ns;
        breaker_.half_open_inflight = 0;
        breaker_.half_open_successes = 0;
        std::lock_guard<std::mutex> mlock(metrics_mu_);
        ++metrics_.breaker_opens;
        metrics_.breaker = BreakerState::Open;
    }
}

void
Server::applyChaosAtDispatchLocked(Batch &batch)
{
    if (!cfg_.chaos.enabled())
        return;
    batch.fate = chaos_.onBatch(batch.replica, batch.dispatch_ns);
    const ChaosEngine::BatchFate &fate = batch.fate;
    int failed_npes_now = -1;
    if (fate.degrade_slot >= 0) {
        // The replica is idle at dispatch time, so the mark lands on
        // a batch boundary before this batch starts.
        const int slot =
            fate.degrade_slot % std::max(1, engine_.npeSlots());
        try {
            engine_.markReplicaDegraded(batch.replica, slot);
            failed_npes_now = engine_.failedNpeSlots(batch.replica);
        } catch (const compiler::CompileError &) {
            // The last healthy slot failed: nothing can host the
            // neurons, so the replica is down. The crash path
            // quarantines it, and a probe heals it.
            batch.fate.crash = true;
        }
    }
    std::lock_guard<std::mutex> mlock(metrics_mu_);
    if (fate.crash)
        ++metrics_.chaos_crashes;
    if (fate.fault)
        ++metrics_.chaos_faults;
    if (fate.stall)
        ++metrics_.chaos_stalls;
    if (fate.slow_started)
        ++metrics_.chaos_slow_degrades;
    if (failed_npes_now >= 0) {
        ++metrics_.chaos_degrades;
        metrics_.replicas[static_cast<std::size_t>(batch.replica)]
            .failed_npes =
            static_cast<std::uint64_t>(failed_npes_now);
    }
}

void
Server::quarantineLocked(int replica, std::int64_t t)
{
    RepHealth &h = health_[static_cast<std::size_t>(replica)];
    if (h.state != ReplicaState::Active)
        return;
    h.state = ReplicaState::Quarantined;
    h.consecutive_bad = 0;
    h.probe_delay =
        std::max<std::int64_t>(1, cfg_.health.probe_delay_ns);
    h.probe_at = t + h.probe_delay;
    {
        std::lock_guard<std::mutex> mlock(metrics_mu_);
        ++metrics_.quarantines;
        auto &rep =
            metrics_.replicas[static_cast<std::size_t>(replica)];
        ++rep.quarantines;
        rep.state = ReplicaState::Quarantined;
    }
    // Promote the lowest-index hot spare to keep the pool size.
    for (std::size_t s = 0; s < health_.size(); ++s) {
        if (health_[s].state != ReplicaState::Spare)
            continue;
        health_[s].state = ReplicaState::Active;
        std::lock_guard<std::mutex> mlock(metrics_mu_);
        ++metrics_.spares_promoted;
        metrics_.replicas[s].state = ReplicaState::Active;
        break;
    }
}

void
Server::runProbeLocked(int replica, std::int64_t t)
{
    RepHealth &h = health_[static_cast<std::size_t>(replica)];
    sushi_assert(h.state == ReplicaState::Quarantined);
    {
        std::lock_guard<std::mutex> mlock(metrics_mu_);
        ++metrics_.probes;
        ++metrics_
              .replicas[static_cast<std::size_t>(replica)]
              .probes;
    }
    const bool reachable =
        !(cfg_.chaos.enabled() && chaos_.crashed(replica, t));
    if (!reachable) {
        h.probe_delay = std::min<std::int64_t>(
            std::max<std::int64_t>(
                1, static_cast<std::int64_t>(std::llround(
                       static_cast<double>(h.probe_delay) *
                       cfg_.health.probe_backoff))),
            std::max<std::int64_t>(1,
                                   cfg_.health.probe_delay_max_ns));
        h.probe_at = t + h.probe_delay;
        std::lock_guard<std::mutex> mlock(metrics_mu_);
        ++metrics_.probe_failures;
        return;
    }
    // Probe success: reset the replica (chip re-biased, NPEs healed)
    // and readmit — Active if the pool is short, Spare otherwise.
    chaos_.heal(replica);
    engine_.healReplica(replica);
    h.consecutive_bad = 0;
    h.state = activeCountLocked() < target_active_
                  ? ReplicaState::Active
                  : ReplicaState::Spare;
    {
        std::lock_guard<std::mutex> mlock(metrics_mu_);
        ++metrics_.readmits;
        auto &rep =
            metrics_.replicas[static_cast<std::size_t>(replica)];
        ++rep.readmissions;
        rep.failed_npes = 0;
        rep.state = h.state;
    }
}

void
Server::fireRetriesLocked(std::int64_t t)
{
    if (retries_.empty())
        return;
    std::vector<RetryEntry> due;
    for (auto it = retries_.begin(); it != retries_.end();) {
        if (it->ready_ns <= t) {
            due.push_back(std::move(*it));
            it = retries_.erase(it);
        } else {
            ++it;
        }
    }
    std::sort(due.begin(), due.end(),
              [](const RetryEntry &a, const RetryEntry &b) {
                  return a.ready_ns != b.ready_ns
                             ? a.ready_ns < b.ready_ns
                             : a.req.id < b.req.id;
              });
    for (RetryEntry &e : due) {
        PendingReq &req = e.req;
        Shard &sh = shardOf(req.request_id);
        std::lock_guard<std::mutex> slock(sh.mu);
        if (req.state->resolved) {
            --req.state->live;
            continue;
        }
        if (req.deadline_ns <= t) {
            --req.state->live;
            if (req.state->live <= 0) {
                fulfillRejectLocked(sh, req,
                                    Reject::DeadlineExceeded, t);
                reapTimersLocked(req.state);
            }
            continue;
        }
        if (cfg_.breaker.enabled() &&
            breaker_.state == BreakerState::Open) {
            // The breaker converts a retry storm into typed
            // fast-fails instead of re-queueing against a dead model.
            --req.state->live;
            if (req.state->live <= 0) {
                fulfillRejectLocked(sh, req, Reject::BreakerOpen, t);
                reapTimersLocked(req.state);
            }
            continue;
        }
        req.queued_ns = t;
        queued_.fetch_add(1); // re-admission bypasses max_queue
        sh.pool.enqueue(std::move(req));
    }
}

void
Server::fireHedgesLocked(std::int64_t t)
{
    if (hedges_.empty())
        return;
    std::vector<HedgeTimer> due;
    for (auto it = hedges_.begin(); it != hedges_.end();) {
        if (it->fire_ns <= t) {
            due.push_back(std::move(*it));
            it = hedges_.erase(it);
        } else {
            ++it;
        }
    }
    std::sort(due.begin(), due.end(),
              [](const HedgeTimer &a, const HedgeTimer &b) {
                  return a.fire_ns != b.fire_ns
                             ? a.fire_ns < b.fire_ns
                             : a.proto.request_id <
                                   b.proto.request_id;
              });
    for (HedgeTimer &h : due) {
        Shard &sh = shardOf(h.proto.request_id);
        std::lock_guard<std::mutex> slock(sh.mu);
        ReqState &st = *h.proto.state;
        // Void if resolved, already hedged, the armed dispatch
        // failed meanwhile, the deadline passed, or we're draining.
        if (st.resolved || st.hedged || st.failures != h.attempt ||
            h.proto.deadline_ns <= t || draining_.load() ||
            stop_.load())
            continue;
        PendingReq copy = std::move(h.proto);
        copy.id = next_id_.fetch_add(1, std::memory_order_relaxed);
        copy.queued_ns = t;
        copy.is_hedge = true;
        st.hedged = true;
        ++st.live;
        ++sh.metrics.hedges_launched;
        queued_.fetch_add(1); // hedge copies bypass max_queue
        sh.pool.enqueue(std::move(copy));
    }
}

void
Server::scheduleHedgeLocked(const Batch &batch)
{
    if (!cfg_.hedge.enabled())
        return;
    for (const PendingReq &req : batch.reqs) {
        Shard &sh = shardOf(req.request_id);
        std::lock_guard<std::mutex> slock(sh.mu);
        if (req.is_hedge || req.state->hedged ||
            req.priority < cfg_.hedge.priority_floor)
            continue;
        HedgeTimer h;
        h.fire_ns = batch.dispatch_ns + cfg_.hedge.delay_ns;
        h.attempt = req.state->failures;
        h.proto = req; // shares frames and state
        hedges_.push_back(std::move(h));
    }
}

Server::Outcome
Server::executeBatch(Batch &batch)
{
    Outcome out;
    if (batch.fate.crash) {
        // The replica is unreachable: nothing executes, the batch
        // fails after the modelled detection latency.
        out.ok = false;
        return out;
    }
    std::vector<const chip::SpikeFrames *> ptrs;
    ptrs.reserve(batch.reqs.size());
    for (const PendingReq &req : batch.reqs)
        ptrs.push_back(req.frames.get());
    try {
        out.run = engine_.runOnReplica(batch.replica, ptrs.data(),
                                       ptrs.size());
    } catch (const std::exception &) {
        // A genuine engine failure is indistinguishable from chaos:
        // the batch fails and the health/retry machinery takes over.
        out.ok = false;
        out.run = engine::ReplicaRun{};
        return out;
    }
    if (batch.fate.fault) {
        // Escalate through the real typed path: the injected fault
        // is a timing-constraint violation, exactly what a marginal
        // JJ produces (results are discarded, service was charged).
        try {
            throw sfq::TimingFault("chaos.injector",
                                   "injected transient escalation",
                                   "chaos-transient");
        } catch (const sfq::TimingFault &) {
            out.ok = false;
        }
    }
    return out;
}

std::int64_t
Server::virtualServiceNs(const Batch &batch,
                         const Outcome &outcome) const
{
    if (batch.fate.crash)
        return std::max<std::int64_t>(
            1, cfg_.chaos.crash_detect_ns);
    double ps = 0.0;
    for (const auto &st : outcome.run.per_sample)
        ps += st.est_time_ps;
    // One service nanosecond per modelled chip picosecond.
    const auto ns = static_cast<std::int64_t>(
        std::llround(ps * batch.fate.service_scale));
    return std::max<std::int64_t>(ns, 1);
}

void
Server::processOutcomeLocked(Batch &batch, Outcome &outcome,
                             std::int64_t complete_ns)
{
    const int r = batch.replica;
    const auto rr = static_cast<std::size_t>(r);
    const std::size_t n = batch.reqs.size();
    const std::int64_t service = complete_ns - batch.dispatch_ns;
    const bool ok = outcome.ok;

    breakerOnOutcomeLocked(ok, batch.half_open_trial, complete_ns);

    std::uint64_t served_here = 0;
    std::vector<std::size_t> answered; // merged-stats fold order
    std::vector<Resolution> to_resolve;

    if (ok) {
        sushi_assert(outcome.run.results.size() == n);
        answered.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            PendingReq &req = batch.reqs[i];
            Shard &sh = shardOf(req.request_id);
            std::lock_guard<std::mutex> slock(sh.mu);
            ReqState &st = *req.state;
            --st.live;
            if (st.resolved)
                continue; // a sibling copy already answered
            st.resolved = true;
            const bool was_hedged = st.hedged;
            sh.metrics.queue_ns.sample(batch.dispatch_ns -
                                       req.submit_ns);
            sh.metrics.service_ns.sample(service);
            sh.metrics.total_ns.sample(complete_ns - req.submit_ns);
            ++sh.metrics.completed;
            if (complete_ns > req.deadline_ns)
                ++sh.metrics.deadline_missed;
            if (was_hedged) {
                if (req.is_hedge)
                    ++sh.metrics.hedges_won;
                else
                    ++sh.metrics.hedges_lost;
            }
            sh.metrics.last_event_ns =
                std::max(sh.metrics.last_event_ns, complete_ns);
            ++served_here;
            answered.push_back(i);
            Response resp;
            resp.result = std::move(outcome.run.results[i]);
            resp.id = req.request_id;
            resp.submit_ns = req.submit_ns;
            resp.dispatch_ns = batch.dispatch_ns;
            resp.complete_ns = complete_ns;
            resp.deadline_missed = complete_ns > req.deadline_ns;
            resp.replica = r;
            resp.batch_size = static_cast<int>(n);
            resp.retries = st.failures;
            resp.hedged = was_hedged;
            to_resolve.push_back(
                Resolution{req.state, std::move(resp)});
            purgeShardCopiesLocked(sh, req.state);
            reapTimersLocked(req.state);
        }
    } else {
        // Failure path: every request in the batch either rides
        // another live copy, re-queues within its retry budget, or
        // rejects.
        for (std::size_t i = 0; i < n; ++i) {
            PendingReq &req = batch.reqs[i];
            Shard &sh = shardOf(req.request_id);
            std::lock_guard<std::mutex> slock(sh.mu);
            ReqState &st = *req.state;
            --st.live;
            if (st.resolved)
                continue;
            if (st.live > 0)
                continue; // a hedge/retry copy is still carrying it
            ++st.failures;
            const int attempt = st.failures;
            if (cfg_.retry.enabled() &&
                attempt <= cfg_.retry.max_retries &&
                req.deadline_ns > complete_ns) {
                const std::int64_t delay =
                    backoffNs(req.request_id, attempt);
                ++st.live;
                ++sh.metrics.retries;
                retries_.push_back(
                    RetryEntry{complete_ns + delay, std::move(req)});
            } else if (req.deadline_ns <= complete_ns) {
                fulfillRejectLocked(sh, req,
                                    Reject::DeadlineExceeded,
                                    complete_ns, &to_resolve);
                reapTimersLocked(req.state);
            } else {
                fulfillRejectLocked(sh, req, Reject::ReplicaFailure,
                                    complete_ns, &to_resolve);
                reapTimersLocked(req.state);
            }
        }
    }

    // One central metrics section per BATCH (not per request): the
    // batch counters plus the order-sensitive merged engine stats,
    // folded in request order.
    {
        std::lock_guard<std::mutex> mlock(metrics_mu_);
        ++metrics_.batches;
        switch (batch.cause) {
          case FlushCause::Size: ++metrics_.flush_size; break;
          case FlushCause::Delay: ++metrics_.flush_delay; break;
          case FlushCause::Drain: ++metrics_.flush_drain; break;
        }
        metrics_.batch_size.sample(static_cast<std::int64_t>(n));
        auto &rep = metrics_.replicas[rr];
        ++rep.batches;
        rep.busy_ns += service;
        rep.samples += served_here;
        if (!ok) {
            ++metrics_.batch_failures;
            ++rep.failures;
        }
        metrics_.last_event_ns =
            std::max(metrics_.last_event_ns, complete_ns);
        for (std::size_t i : answered)
            metrics_.merged.accumulate(outcome.run.per_sample[i]);
        if (ok)
            // Energy is a pure function of synaptic work (matches
            // the engine's own merge).
            metrics_.merged.dynamic_energy_j =
                chip::dynamicEnergyJ(metrics_.merged.synaptic_ops);
    }

    // Only now resolve the futures: a caller that observes its
    // future complete and immediately snapshots metrics() must see
    // this batch fully recorded.
    for (Resolution &res : to_resolve)
        res.state->promise.set_value(std::move(res.resp));

    if (ok) {
        // Slow-degrade detection: a successful but slow batch still
        // counts against the replica's health streak.
        RepHealth &h = health_[rr];
        if (cfg_.health.slow_batch_ns != INT64_MAX &&
            service >= cfg_.health.slow_batch_ns) {
            if (++h.consecutive_bad >=
                std::max(1, cfg_.health.quarantine_after))
                quarantineLocked(r, complete_ns);
        } else {
            h.consecutive_bad = 0;
        }
        return;
    }
    // Health: a crash quarantines immediately; other failures feed
    // the consecutive-bad-batch detector.
    if (batch.fate.crash) {
        quarantineLocked(r, complete_ns);
    } else if (++health_[rr].consecutive_bad >=
               std::max(1, cfg_.health.quarantine_after)) {
        quarantineLocked(r, complete_ns);
    }
}

bool
Server::stepLocked(std::int64_t t, int self)
{
    if (cfg_.chaos.enabled())
        chaos_.advance(t);
    breakerAdvanceLocked(t);

    // 1. Completions due, in (complete_ns, replica) order.
    std::vector<std::size_t> done;
    for (std::size_t r = 0; r < running_.size(); ++r)
        if (running_[r] && running_[r]->complete_ns <= t)
            done.push_back(r);
    std::sort(done.begin(), done.end(),
              [&](std::size_t a, std::size_t b) {
                  return running_[a]->complete_ns !=
                                 running_[b]->complete_ns
                             ? running_[a]->complete_ns <
                                   running_[b]->complete_ns
                             : a < b;
              });
    for (std::size_t r : done) {
        Running &run = *running_[r];
        processOutcomeLocked(run.batch, run.outcome, run.complete_ns);
        running_[r].reset();
    }

    // 2. Hedge fires, 3. health probes (replica order).
    fireHedgesLocked(t);
    for (std::size_t r = 0; r < health_.size(); ++r)
        if (health_[r].state == ReplicaState::Quarantined &&
            health_[r].probe_at <= t)
            runProbeLocked(static_cast<int>(r), t);

    // 4. Shed queued requests whose deadlines have now passed,
    //    re-admit due retries, then fire due arrivals against the
    //    cleaned queue.
    shedExpiredAllLocked(t);
    fireRetriesLocked(t);
    while (arrival_next_ < arrivals_.size() &&
           arrivals_[arrival_next_].arrival_ns <= t) {
        PendingReq &req = arrivals_[arrival_next_++].req;
        req.submit_ns = t;
        req.queued_ns = t;
        Shard &sh = shardOf(req.request_id);
        std::lock_guard<std::mutex> slock(sh.mu);
        admitOrRejectLocked(sh, req, t);
    }

    // 5. Form a batch on each eligible free replica, from self's
    //    upward and wrapping (ascending id when self is -1); it
    //    executes outside the step.
    bool formed = false;
    const std::size_t pool = running_.size();
    const std::size_t first = self < 0 ? 0 : static_cast<std::size_t>(self);
    for (std::size_t i = 0; i < pool; ++i) {
        const std::size_t r = (first + i) % pool;
        if (running_[r] || !replicaEligibleLocked(static_cast<int>(r)))
            continue;
        FlushCause cause;
        if (!flushReadyLocked(t, &cause))
            break;
        Batch batch = takeBatchLocked(static_cast<int>(r), t, cause);
        if (batch.reqs.empty())
            break;
        applyChaosAtDispatchLocked(batch);
        if (cfg_.breaker.enabled() &&
            breaker_.state == BreakerState::HalfOpen) {
            batch.half_open_trial = true;
            ++breaker_.half_open_inflight;
        }
        scheduleHedgeLocked(batch);
        running_[r] = Running{std::move(batch), Outcome{}, kNever};
        formed = true;
    }
    return formed;
}

std::int64_t
Server::nextEventNsLocked(std::int64_t now) const
{
    // Next event: arrival, completion, deadline expiry, batch flush
    // (only while an eligible replica is free), retry ready, hedge
    // fire, and — while work is pending — health probe, scripted
    // chaos, or the breaker's open_until.
    std::int64_t t = kNever;
    const bool arrivals = arrival_next_ < arrivals_.size();
    if (arrivals)
        t = arrivals_[arrival_next_].arrival_ns;
    bool any_eligible_free = false;
    for (std::size_t r = 0; r < running_.size(); ++r) {
        if (running_[r])
            t = std::min(t, running_[r]->complete_ns);
        else if (replicaEligibleLocked(static_cast<int>(r)))
            any_eligible_free = true;
    }
    const std::size_t depth = queued_.load();
    if (depth > 0) {
        const bool flush_now =
            depth >= cfg_.max_batch || draining_.load();
        std::int64_t oldest = kNever;
        for (const auto &sh : shards_) {
            std::lock_guard<std::mutex> slock(sh->mu);
            sh->pool.forEachLive([&](const PendingReq &q) {
                t = std::min(t, q.deadline_ns);
                oldest = std::min(oldest, q.queued_ns);
            });
        }
        if (any_eligible_free && flush_now)
            t = std::min(t, now);
        else if (any_eligible_free && oldest != kNever)
            t = std::min(t, oldest + cfg_.max_delay_ns);
    }
    for (const RetryEntry &e : retries_)
        t = std::min(t, e.ready_ns);
    for (const HedgeTimer &h : hedges_)
        t = std::min(t, h.fire_ns);
    if (workPendingLocked() || arrivals) {
        for (const RepHealth &h : health_)
            if (h.state == ReplicaState::Quarantined)
                t = std::min(t, h.probe_at);
        if (cfg_.chaos.enabled())
            t = std::min(t, chaos_.nextScriptNs());
        if (cfg_.breaker.enabled() &&
            breaker_.state == BreakerState::Open)
            t = std::min(t, breaker_.open_until);
    }
    return t;
}

void
Server::workerMain(int replica)
{
    std::optional<Running> &slot =
        running_[static_cast<std::size_t>(replica)];
    std::unique_lock<std::mutex> lock(mu_);
    bool ran_out = false; // the last spin timed out: park after this step
    for (;;) {
        // Loaded before the step, so an admit the step did not see
        // changes it (the publish-then-recheck handshake below).
        const std::size_t q0 = queued_.load();
        const std::int64_t t = realNow();
        if (stepLocked(t, replica))
            work_cv_.notify_all(); // the batch may be another's
        if (slot && slot->complete_ns == kNever) {
            Running &run = *slot;
            lock.unlock();
            Outcome out = executeBatch(run.batch);
            const std::int64_t done = realNow();
            lock.lock();
            run.outcome = std::move(out);
            run.complete_ns = done; // the next step processes it
            ran_out = false;
            continue;
        }
        if (!workPendingLocked())
            drain_cv_.notify_all();
        if (stop_.load())
            return;
        // Spin before parking: poll the queue depth off mu_ until the
        // next event or kSpinNs, so the next admit finds this thread
        // on-core and needs no wake.
        if (spin_ && !ran_out && replicaEligibleLocked(replica) &&
            !draining_.load()) {
            const std::int64_t until =
                std::min(nextEventNsLocked(t), t + kSpinNs);
            lock.unlock();
            bool moved = false;
            while (!moved && realNow() < until) {
                cpuRelax();
                moved = queued_.load() != q0 || stop_.load() ||
                        draining_.load();
            }
            lock.lock();
            // Step again in every case; only a spin that ran out
            // parks, after that step. Whatever happened off mu_ and
            // notified no sleeper is then seen under mu_: a batch
            // another thread formed for this replica while the depth
            // came back to q0 (the slot check above), and a drain or
            // shutdown that began after the last poll.
            ran_out = !moved && until == t + kSpinNs;
            continue;
        }
        ran_out = false;
        // Publish-then-recheck: a submitter that enqueued after q0
        // either sees sleepers_ > 0 and notifies under mu_, or its
        // entry is visible here — to the recheck and to the wake
        // time, which is computed after publishing.
        sleepers_.fetch_add(1);
        if (queued_.load() == q0) {
            const std::int64_t wake =
                std::min(nextEventNsLocked(t), t + kMaxWaitNs);
            work_cv_.wait_until(
                lock, epoch_ + std::chrono::nanoseconds(wake));
        }
        sleepers_.fetch_sub(1);
    }
}

void
Server::runVirtual()
{
    if (cfg_.clock != ClockMode::Virtual)
        throw std::logic_error(
            "Server::runVirtual needs ClockMode::Virtual");
    std::unique_lock<std::mutex> lock(mu_);
    runVirtualLocked(lock);
}

void
Server::runVirtualLocked(std::unique_lock<std::mutex> &lock)
{
    // Fire arrivals in logical-time order; ties keep submission
    // order (stable sort — ids are assigned in submission order, so
    // this is independent of the shard count).
    std::stable_sort(arrivals_.begin(), arrivals_.end(),
                     [](const Arrival &a, const Arrival &b) {
                         return a.arrival_ns < b.arrival_ns;
                     });
    std::vector<std::size_t> formed;
    for (;;) {
        const std::int64_t t = nextEventNsLocked(virtual_now_);
        if (t == kNever)
            break; // nothing queued, running, or yet to arrive
        virtual_now_ = std::max(virtual_now_, t);
        if (!stepLocked(virtual_now_, -1))
            continue;
        // Execute the new batches over the worker pool; each writes
        // only its own slot.
        formed.clear();
        for (std::size_t r = 0; r < running_.size(); ++r)
            if (running_[r] && running_[r]->complete_ns == kNever)
                formed.push_back(r);
        lock.unlock();
        parallelFor(
            formed.size(),
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    Running &run = *running_[formed[i]];
                    run.outcome = executeBatch(run.batch);
                }
            },
            ParallelOptions{/*grain=*/1, cfg_.max_threads});
        lock.lock();
        for (std::size_t r : formed) {
            Running &run = *running_[r];
            run.complete_ns =
                virtual_now_ + virtualServiceNs(run.batch, run.outcome);
        }
    }
    arrivals_.clear();
    arrival_next_ = 0;
    drain_cv_.notify_all();
}

void
Server::drain()
{
    if (cfg_.clock == ClockMode::Virtual) {
        std::unique_lock<std::mutex> lock(mu_);
        draining_.store(true);
        runVirtualLocked(lock);
        return;
    }
    draining_.store(true);
    // Barrier sweep: admission checks draining_ INSIDE the shard
    // critical section, so once every shard mutex has been locked
    // and released here, any submit that read draining_ == false has
    // finished admitting — its queued_ increment is visible to the
    // wait below, and every later submit rejects ShuttingDown.
    for (auto &sh : shards_) {
        std::lock_guard<std::mutex> slock(sh->mu);
    }
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.notify_all();
    drain_cv_.wait(lock, [this] { return !workPendingLocked(); });
}

void
Server::shutdown()
{
    drain();
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_.load() && workers_.empty())
            return;
        stop_.store(true);
    }
    work_cv_.notify_all();
    for (auto &t : workers_)
        t.join();
    workers_.clear();
}

ServerMetrics
Server::metrics() const
{
    // The shards' records first, in ascending shard order, then the
    // scheduler's: the order a batch's outcome writes them in. Every
    // folded field's rule commutes, so the snapshot is the same for
    // any shard count.
    ServerMetrics shards;
    for (const auto &sh : shards_) {
        std::lock_guard<std::mutex> slock(sh->mu);
        shards.fold(sh->metrics);
    }
    std::lock_guard<std::mutex> mlock(metrics_mu_);
    ServerMetrics snap = metrics_;
    snap.fold(shards);
    return snap;
}

} // namespace sushi::serve
