/**
 * @file
 * Slab-allocated pending-request storage with incrementally
 * maintained per-priority FIFO lanes — the per-shard queue of the
 * sharded serving front-end (PR 10).
 *
 * The PR 4 batcher kept every queued request copy in one global
 * `std::map<id, Pending>` and rebuilt + sorted a (priority, id)
 * vector over the WHOLE queue on every flush: O(n log n) work and
 * one node allocation per admit, all under the single server mutex.
 * This class replaces that map for one admission shard:
 *
 *  - Slab + freelist. Requests live in stable slots of a growable
 *    slab; admission reuses freed slots, so steady-state admits
 *    allocate nothing and never invalidate other slots.
 *  - Per-priority FIFO lanes. Each distinct priority owns a deque of
 *    (copy id, slot) entries ordered by ascending id; lanes are kept
 *    sorted by descending priority. Admissions carry fresh monotone
 *    ids and push_back in O(1); the rare retry re-enqueue (which
 *    keeps its original id) does a sorted insert.
 *  - O(batch) flush. peekBest()/popBest() return the (priority desc,
 *    id asc) front — the head of the first non-empty lane — so a
 *    flush pops exactly max_batch entries instead of sorting the
 *    queue.
 *  - Lazy lane deletion. Removals (deadline sheds, duplicate-copy
 *    purges) free the slab slot only; the lane entry goes stale and
 *    is dropped when a peek or pop walks over it. Staleness is
 *    detected by (slot live, slot id == entry id) — slot reuse always
 *    changes the id, because copy ids are globally monotone.
 *
 * Thread safety: none. Each shard guards its pool with its own
 * mutex; the Server defines the lock order.
 */

#ifndef SUSHI_SERVE_REQUEST_POOL_HH
#define SUSHI_SERVE_REQUEST_POOL_HH

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "engine/inference_engine.hh"
#include "serve/request.hh"

namespace sushi::serve {

/** Shared per-request bookkeeping: the promise plus the copy /
 *  retry / hedge state every live copy of the request points at.
 *  Guarded by the owning shard's mutex (all copies of one request
 *  route to the same shard). */
struct ReqState
{
    std::promise<Response> promise;
    bool resolved = false;
    int failures = 0; ///< failed dispatches (retry budget)
    int live = 0;     ///< copies queued / running / backing off
    bool hedged = false; ///< hedge copy launched
};

/** One queued copy of a request. */
struct PendingReq
{
    std::uint64_t id = 0;         ///< per-copy admission key
    std::uint64_t request_id = 0; ///< original admission id
    int priority = 0;
    std::int64_t submit_ns = 0; ///< original arrival (latency t0)
    std::int64_t queued_ns = 0; ///< this copy's enqueue instant
    std::int64_t deadline_ns = kNoDeadline;
    bool is_hedge = false;
    /** The request's input, packed once at submit and shared by
     *  every copy; null when it was malformed (rejected
     *  InvalidRequest at admission). */
    std::shared_ptr<const chip::SpikeFrames> frames;
    std::shared_ptr<ReqState> state;
};

/** One shard's pending-request store (see file comment). */
class RequestPool
{
  public:
    /** Insert a copy; O(1) amortized for fresh (monotone) ids,
     *  O(lane) sorted insert for a re-enqueued old id. */
    void enqueue(PendingReq &&req);

    /** Live entries currently queued. */
    std::size_t size() const { return live_; }
    bool empty() const { return live_ == 0; }

    /**
     * The (priority desc, id asc) front entry, or nullptr when
     * empty. Stale lane entries encountered on the way are dropped.
     * The pointer is invalidated by any mutating call.
     */
    const PendingReq *peekBest();

    /** Pop the front entry; pool must be non-empty. */
    PendingReq popBest();

    /**
     * Remove every live entry matching @p pred (called as
     * pred(const PendingReq &)); each removed entry is moved into
     * consume(PendingReq &&). Lane entries are left to lazy
     * deletion. Returns the number of entries removed.
     */
    template <typename Pred, typename Consume>
    std::size_t removeIf(Pred &&pred, Consume &&consume)
    {
        std::size_t removed = 0;
        for (std::uint32_t s = 0;
             s < static_cast<std::uint32_t>(slots_.size()); ++s) {
            if (!slots_[s].live || !pred(slots_[s].req))
                continue;
            consume(std::move(slots_[s].req));
            freeSlot(s);
            ++removed;
        }
        return removed;
    }

    /** Visit every live entry (scan order is slot order — callers
     *  must only fold order-independent aggregates like min/max). */
    template <typename Fn>
    void forEachLive(Fn &&fn) const
    {
        for (const Slot &slot : slots_)
            if (slot.live)
                fn(slot.req);
    }

  private:
    struct Slot
    {
        PendingReq req;
        std::uint32_t next_free = 0;
        bool live = false;
    };

    /** (copy id, slot) lane entry; stale iff the slot died or was
     *  reused under a different id. */
    struct Entry
    {
        std::uint64_t id = 0;
        std::uint32_t slot = 0;
    };

    struct Lane
    {
        int priority = 0;
        std::deque<Entry> fifo;
    };

    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    bool stale(const Entry &e) const
    {
        return !slots_[e.slot].live || slots_[e.slot].req.id != e.id;
    }

    std::uint32_t allocSlot(PendingReq &&req);
    void freeSlot(std::uint32_t s);

    /** Lane for @p priority (lanes kept sorted descending),
     *  created on demand. */
    Lane &laneFor(int priority);

    std::vector<Slot> slots_;
    std::uint32_t free_head_ = kNoSlot;
    std::size_t live_ = 0;
    std::vector<Lane> lanes_; ///< sorted by descending priority
};

} // namespace sushi::serve

#endif // SUSHI_SERVE_REQUEST_POOL_HH
