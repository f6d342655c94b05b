#include "sfq/parallel_simulator.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "sfq/event_queue.hh"
#include "sfq/fault_model.hh"

namespace sushi::sfq {

namespace {

/** Per-lane execution state. Lanes only ever write their own Lane;
 *  reads of other lanes' fields are separated by a barrier. */
struct Lane
{
    EventQueue queue;
    std::uint64_t pulses = 0;
    std::uint64_t switch_count[CompiledNetlist::kNumExecKinds] = {};
    FaultCounters faults;

    /** Cross-lane pulses produced this window, indexed by
     *  destination lane (own slot unused). */
    std::vector<std::vector<CrossEvent>> outbox;

    /** Earliest pending tick, published at the window barrier. */
    Tick next_tick = kTickNever;

    /** Tick of the last event this lane executed (-1: none). */
    Tick last_exec = -1;

    /** First Fatal timing fault this lane hit, keyed by the event
     *  that exposed it (for the deterministic min-key rethrow). */
    bool faulted = false;
    Tick fault_when = kTickNever;
    std::int32_t fault_cell = 0;
    std::int32_t fault_port = 0;
    std::exception_ptr fault_eptr;

    /** Any other exception (propagated as-is). */
    std::exception_ptr error;
};

/** Exclusive execution cap of the window starting at @p start. */
Tick
windowCap(Tick start, Tick lookahead, Tick until)
{
    if (lookahead == kTickNever || start > kTickNever - lookahead)
        return until;
    return std::min(start + lookahead - 1, until);
}

/** Strict (when, cell, port) order; full ties are identical
 *  deliveries and may land in any relative order. */
bool
eventKeyLess(const EventQueue::Event &a, const EventQueue::Event &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    if (a.cell != b.cell)
        return a.cell < b.cell;
    return a.port < b.port;
}

} // namespace

ParallelSimulator::ParallelSimulator(Simulator &sim, Options opts)
    : sim_(sim), opts_(opts)
{
    sushi_assert(opts_.min_lookahead >= 1);
    threads_ = opts_.threads > 0
        ? opts_.threads
        : static_cast<int>(
              std::max(1u, std::thread::hardware_concurrency()));
}

void
ParallelSimulator::refreshPlan()
{
    if (plan_valid_ && plan_.num_cells == sim_.core().numCells())
        return;
    plan_ =
        partitionNetlist(sim_.core(), threads_, opts_.min_lookahead);
    plan_valid_ = true;
}

Tick
ParallelSimulator::run(Tick until)
{
    last_parallel_ = false;
    if (threads_ <= 1)
        return sim_.run(until);
    sim_.core().freeze(); // masks + snapshot, as Simulator::run does
    refreshPlan();
    if (plan_.num_lanes <= 1)
        return sim_.run(until);
    const FaultModel &fm = sim_.faults();
    // Jitter shifts deliveries by unbounded amounts, breaking the
    // min-link-delay lookahead bound; oversized fault configs can't
    // use the per-cell masks the keyed (interleaving-free) fault
    // path needs. Both degrade to the sequential path, which is
    // always byte-compatible.
    if (fm.anyJitterFaults())
        return sim_.run(until);
    if ((fm.anyDeliveryFaults() || fm.anyCellFaults()) &&
        !sim_.core().faultMasksUsable())
        return sim_.run(until);
    return runParallel(until);
}

Tick
ParallelSimulator::runParallel(Tick until)
{
    EventQueue &mq = sim_.queue_;
    const int num_lanes = plan_.num_lanes;
    const std::int32_t *lane_of = plan_.lane_of.data();
    const Tick lookahead = plan_.lookahead;

    // Migrate pending events off the main queue. Host callbacks
    // (arbitrary closures) cannot run on lanes; their presence sends
    // the whole run down the sequential path.
    std::vector<EventQueue::Event> pending;
    pending.reserve(mq.size());
    bool has_callback = false;
    EventQueue::Event ev;
    while (mq.take(ev)) {
        if (ev.cell == EventQueue::kCallbackCell)
            has_callback = true;
        pending.push_back(ev);
    }
    if (has_callback) {
        // take() preserved queue order, so re-pushing in sequence
        // reconstructs it (fresh seq numbers, same relative order).
        for (const EventQueue::Event &e : pending)
            mq.push(e.when, e.cell, e.port);
        return sim_.run(until);
    }

    Tick first = kTickNever;
    for (const EventQueue::Event &e : pending)
        first = std::min(first, e.when);
    if (first == kTickNever || first > until) {
        for (const EventQueue::Event &e : pending)
            mq.push(e.when, e.cell, e.port);
        return sim_.now();
    }
    last_parallel_ = true;

    std::vector<Lane> lanes(static_cast<std::size_t>(num_lanes));
    for (Lane &ln : lanes)
        ln.outbox.resize(static_cast<std::size_t>(num_lanes));
    for (const EventQueue::Event &e : pending)
        lanes[static_cast<std::size_t>(lane_of[e.cell])].queue.push(
            e.when, e.cell, e.port);

    SpinBarrier barrier(static_cast<unsigned>(num_lanes));
    std::atomic<bool> stop{false};
    const Tick first_cap = windowCap(first, lookahead, until);
    CompiledNetlist &core = sim_.core_;
    const FaultModel &fm = sim_.faults();

    auto laneMain = [&](int me) {
        Lane &ln = lanes[static_cast<std::size_t>(me)];
        ExecCtx cx;
        cx.queue = &ln.queue;
        cx.pulses = &ln.pulses;
        cx.switch_count = ln.switch_count;
        cx.faults = &ln.faults;
        cx.cell_faults = fm.anyCellFaults();
        cx.delivery_faults = fm.anyDeliveryFaults();
        cx.lane_of = lane_of;
        cx.lane = me;
        cx.outbox = ln.outbox.data();
        Tick cap = first_cap;
        EventQueue::Event e{};
        for (;;) {
            // Execute this lane's slice of the window [W, cap]. The
            // lookahead guarantees no other lane can produce an
            // event dated <= cap for us, so this is exactly the
            // sequential pop order restricted to this lane's cells.
            // Every lane ALWAYS runs its slice of the current window
            // — even if another lane has already faulted and set
            // `stop` — so the globally earliest fault is known and
            // Fatal attribution never depends on which lane happened
            // to fault first in wall-clock time. `stop` only cuts
            // off *subsequent* windows (the break below the merge).
            try {
                while (ln.queue.popNext(cap, e)) {
                    cx.now = e.when;
                    ln.last_exec = e.when;
                    core.deliver(e.cell, e.port, cx);
                }
            } catch (const TimingFault &) {
                // Remember our first fault with its event key.
                ln.faulted = true;
                ln.fault_when = e.when;
                ln.fault_cell = e.cell;
                ln.fault_port = e.port;
                ln.fault_eptr = std::current_exception();
                stop.store(true, std::memory_order_relaxed);
            } catch (...) {
                ln.error = std::current_exception();
                stop.store(true, std::memory_order_relaxed);
            }
            barrier.arriveAndWait();
            // Merge boundary pulses addressed to us, in fixed source
            // order. Their ticks all lie past the window, and the
            // queue's intrinsic ordering makes the arrival order
            // irrelevant to replay.
            for (int src = 0; src < num_lanes; ++src) {
                if (src == me)
                    continue;
                std::vector<CrossEvent> &box =
                    lanes[static_cast<std::size_t>(src)]
                        .outbox[static_cast<std::size_t>(me)];
                for (const CrossEvent &ce : box)
                    ln.queue.push(ce.when, ce.cell, ce.port);
                box.clear();
            }
            ln.next_tick = ln.queue.nextTick();
            barrier.arriveAndWait();
            if (stop.load(std::memory_order_relaxed))
                break;
            // Every lane independently computes the same next window
            // start from the published next_ticks (skip-ahead over
            // globally idle stretches).
            Tick m = kTickNever;
            for (const Lane &o : lanes)
                m = std::min(m, o.next_tick);
            if (m == kTickNever || m > until)
                break;
            cap = windowCap(m, lookahead, until);
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(num_lanes - 1));
    for (int t = 1; t < num_lanes; ++t)
        workers.emplace_back(laneMain, t);
    laneMain(0);
    for (std::thread &w : workers)
        w.join();

    // Fold the lane tallies back into the simulator. Sums are
    // order-free; time advances to the latest executed event.
    FaultCounters &fc = sim_.faults_.countersMut();
    for (Lane &ln : lanes) {
        sim_.pulses_ += ln.pulses;
        for (int k = 0; k < static_cast<int>(
                                CompiledNetlist::kNumExecKinds);
             ++k)
            sim_.switch_count_[k] += ln.switch_count[k];
        fc.dropped += ln.faults.dropped;
        fc.inserted += ln.faults.inserted;
        fc.jittered += ln.faults.jittered;
        fc.suppressed += ln.faults.suppressed;
        sim_.extra_events_ += ln.queue.executed();
        if (ln.last_exec > sim_.now_)
            sim_.now_ = ln.last_exec;
    }

    // Events past `until` (or past an aborting fault's window) go
    // back to the main queue in key order, so a follow-up run —
    // sequential or parallel — sees the same queue state.
    std::vector<EventQueue::Event> leftover;
    for (Lane &ln : lanes)
        while (ln.queue.take(ev))
            leftover.push_back(ev);
    std::stable_sort(leftover.begin(), leftover.end(), eventKeyLess);
    for (const EventQueue::Event &e : leftover)
        mq.push(e.when, e.cell, e.port);

    // Deterministic Fatal attribution: the fault with the smallest
    // event key is the one sequential execution hits first.
    const Lane *worst = nullptr;
    for (const Lane &ln : lanes) {
        if (!ln.faulted)
            continue;
        if (worst == nullptr ||
            ln.fault_when < worst->fault_when ||
            (ln.fault_when == worst->fault_when &&
             (ln.fault_cell < worst->fault_cell ||
              (ln.fault_cell == worst->fault_cell &&
               ln.fault_port < worst->fault_port))))
            worst = &ln;
    }
    if (worst != nullptr)
        std::rethrow_exception(worst->fault_eptr);
    for (const Lane &ln : lanes)
        if (ln.error)
            std::rethrow_exception(ln.error);
    return sim_.now();
}

} // namespace sushi::sfq
