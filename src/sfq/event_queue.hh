/**
 * @file
 * Calendar event queue for the RSFQ simulator.
 *
 * Events are POD records ({tick, seq, cell_id, port}, no per-event
 * allocation) ordered by (when, key, seq), where key packs
 * (cell + 1) << 32 | port into one word and is 0 for callbacks. That
 * is the intrinsic (when, cell, port, seq) order: the pop order of
 * equal-tick events depends only on what the events are, never on
 * the order they were pushed, so the recorded gate-level outputs do
 * not move with how a netlist or a stimulus happens to be built
 * (callbacks sort first at a tick, in schedule order). Storage is a
 * calendar of day-wide buckets:
 *
 *  - the *draining day* (`cur_`) is a run sorted earliest-first and
 *    popped by advancing a head index. A push that runs no earlier
 *    than the run's last event (the usual case: a cell's output runs
 *    after what is already pending) just extends it; other pushes
 *    wait in an unsorted tail that is ordered on the next read —
 *    by insertion when it is short, by one sort when it is long, so
 *    a burst of pushes costs one sort. A long run that keeps
 *    receiving a few out-of-order pushes becomes a binary min-heap
 *    for the rest of the day (a sorted run already is one), so no
 *    day costs more than O(log n) per event;
 *  - days within the ring horizon land in unsorted per-day buckets
 *    and are only ordered when their day starts draining;
 *  - events past the horizon wait in a far-future *lane*: a FIFO
 *    while they arrive in non-decreasing tick order (a pre-sorted
 *    stimulus program), and a min-heap for the ones that do not.
 *    Both migrate into the calendar as the draining day advances
 *    (including a direct jump when the ring runs dry, so sparse
 *    far-future schedules cost no empty-day scans); each day is
 *    ordered by the full key once gathered, so which lane an event
 *    waited in never changes when it runs.
 *
 * All storage is pooled vectors: clear() keeps capacity, so campaign
 * loops re-use the same allocations run after run.
 */

#ifndef SUSHI_SFQ_EVENT_QUEUE_HH
#define SUSHI_SFQ_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/time.hh"

namespace sushi::sfq {

/** A time-ordered queue of POD pulse-delivery events. */
class EventQueue
{
  public:
    /** Pseudo cell id marking a pooled Simulator callback; the
     *  event's port field then holds the callback pool slot. */
    static constexpr std::int32_t kCallbackCell = -1;

    /** One scheduled delivery: pulse into input @p port of compiled
     *  cell @p cell at tick @p when. Equal-tick ties order by
     *  (cell, port); @p seq only breaks full (when, cell, port)
     *  collisions, in insertion order. */
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::int32_t cell;
        std::int32_t port;
    };

    /** Width of one calendar day: 2^15 ticks = 32.768 ps, a couple of
     *  cell-cascade depths, so a day holds few events. */
    static constexpr int kDayBits = 15;
    static constexpr Tick kDayTicks = Tick{1} << kDayBits;

    /** Ring size in days (power of two for cheap masking). */
    static constexpr Tick kNumDays = 256;

    /** Pushes this far past the draining day go to the far lane. */
    static constexpr Tick kHorizonTicks = kDayTicks * kNumDays;

    /** The draining day stays a sorted run up to this length
     *  whatever arrives; a longer run becomes a heap once
     *  out-of-order pushes are under an eighth of it. Gate-level
     *  meshes drain a handful of events per day. */
    static constexpr std::size_t kSortedMax = 16;

    /** Capacity a day bucket takes on its first push: a fresh
     *  simulator's buckets then skip the 1-2-4-8 regrowth steps. */
    static constexpr std::size_t kDayReserve = 16;

    EventQueue() : days_(static_cast<std::size_t>(kNumDays)) {}

    /** Schedule delivery at absolute tick @p when. */
    void
    push(Tick when, std::int32_t cell, std::int32_t port)
    {
        sushi_assert(when >= 0);
        const Event ev{when, next_seq_++, cell, port};
        const Tick d = when >> kDayBits;
        if (d <= cur_day_) {
            // The draining day (or, without a simulator enforcing
            // monotonic time, an earlier one).
            pushCur(ev);
        } else if (d - cur_day_ < kNumDays) {
            auto &bucket =
                days_[static_cast<std::size_t>(d & (kNumDays - 1))];
            if (bucket.capacity() == 0)
                bucket.reserve(kDayReserve);
            bucket.push_back(ev);
            ++ring_count_;
        } else if (far_.size() == far_head_ ||
                   when >= far_.back().when) {
            far_.push_back(ev);
        } else {
            overflow_.push_back(ev);
            std::push_heap(overflow_.begin(), overflow_.end(),
                           Later{});
        }
        ++size_;
    }

    /** True if no events are pending. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Tick of the earliest pending event; kTickNever if empty. */
    Tick
    nextTick()
    {
        if (size_ == 0)
            return kTickNever;
        settle();
        return cur_[head_].when;
    }

    /**
     * Pop the earliest event into @p out if its tick is <= @p until.
     * @return false (leaving the queue untouched) when the queue is
     *         empty or the earliest event lies past @p until.
     */
    bool
    popNext(Tick until, Event &out)
    {
        if (size_ == 0)
            return false;
        settle();
        if (cur_[head_].when > until)
            return false;
        out = popTop();
        ++executed_;
        return true;
    }

    /** Total events popped for execution since construction. */
    std::uint64_t executed() const { return executed_; }

    /** Drop all pending events; keeps capacity, seq, and executed
     *  counters (matching the historical clear() contract). */
    void clear();

  private:
    /** The tie-break word of (when, key, seq): (cell + 1) << 32 |
     *  port for pulses, 0 for callbacks (pool slots are recycled, so
     *  their port is not a stable identity; they order by seq). */
    static std::uint64_t
    keyOf(const Event &e)
    {
        const auto c = static_cast<std::uint32_t>(e.cell + 1);
        const auto p = c != 0 ? static_cast<std::uint32_t>(e.port)
                              : std::uint32_t{0};
        return std::uint64_t{c} << 32 | p;
    }

    /** Strict "a runs after b" in (when, key, seq) order. */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            const std::uint64_t ka = keyOf(a), kb = keyOf(b);
            if (ka != kb)
                return ka > kb;
            return a.seq > b.seq;
        }
    };

    /** Ascending order, for sorting the run. */
    static bool
    earlier(const Event &a, const Event &b)
    {
        return Later{}(b, a);
    }

    /** Make cur_[head_] the earliest pending event (size_ > 0). */
    void
    settle()
    {
        if (cur_.empty())
            refill();
        else if (sorted_ != cur_.size())
            order();
    }

    /** Remove and return the earliest event (after settle()). */
    Event
    popTop()
    {
        const Event ev = cur_[head_];
        if (cur_heap_) {
            std::pop_heap(cur_.begin(), cur_.end(), Later{});
            cur_.pop_back();
            sorted_ = cur_.size();
            cur_heap_ = sorted_ != 0;
        } else if (++head_ == cur_.size()) {
            cur_.clear();
            head_ = 0;
            sorted_ = 0;
        }
        --size_;
        return ev;
    }

    /** Add @p ev to the draining day. */
    void
    pushCur(const Event &ev)
    {
        if (cur_heap_) {
            cur_.push_back(ev);
            std::push_heap(cur_.begin(), cur_.end(), Later{});
            sorted_ = cur_.size();
            return;
        }
        // Extend the run when @p ev runs no earlier than its end.
        if (sorted_ == cur_.size() &&
            (sorted_ == head_ || !Later{}(cur_.back(), ev)))
            ++sorted_;
        cur_.push_back(ev);
    }

    /** Merge the unsorted tail into the run (or switch to a heap). */
    void order();

    /** Advance the calendar until the draining day is non-empty.
     *  Precondition: cur_ empty, size_ > 0. */
    void refill();

    std::vector<std::vector<Event>> days_; ///< ring of day buckets
    std::vector<Event> cur_;      ///< draining day
    std::size_t head_ = 0;        ///< first live entry of the run
    std::size_t sorted_ = 0;      ///< end of the run; tail follows
    bool cur_heap_ = false;       ///< cur_ is a min-heap for the day
    std::vector<Event> far_;      ///< beyond horizon, tick-sorted FIFO
    std::size_t far_head_ = 0;    ///< first live entry of far_
    std::vector<Event> overflow_; ///< beyond horizon, out of order
    Tick cur_day_ = 0;
    std::size_t ring_count_ = 0;
    std::size_t size_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace sushi::sfq

#endif // SUSHI_SFQ_EVENT_QUEUE_HH
