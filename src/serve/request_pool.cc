#include "serve/request_pool.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sushi::serve {

std::uint32_t
RequestPool::allocSlot(PendingReq &&req)
{
    std::uint32_t s;
    if (free_head_ != kNoSlot) {
        s = free_head_;
        free_head_ = slots_[s].next_free;
        slots_[s].req = std::move(req);
    } else {
        s = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{std::move(req), kNoSlot, false});
    }
    slots_[s].live = true;
    ++live_;
    return s;
}

void
RequestPool::freeSlot(std::uint32_t s)
{
    sushi_assert(slots_[s].live);
    slots_[s].live = false;
    // Release the shared_ptrs now; the slot shell is recycled.
    slots_[s].req.frames.reset();
    slots_[s].req.state.reset();
    slots_[s].next_free = free_head_;
    free_head_ = s;
    sushi_assert(live_ > 0);
    --live_;
}

RequestPool::Lane &
RequestPool::laneFor(int priority)
{
    const auto it = std::lower_bound(
        lanes_.begin(), lanes_.end(), priority,
        [](const Lane &lane, int p) { return lane.priority > p; });
    if (it != lanes_.end() && it->priority == priority)
        return *it;
    return *lanes_.insert(it, Lane{priority, {}});
}

void
RequestPool::enqueue(PendingReq &&req)
{
    const std::uint64_t id = req.id;
    Lane &lane = laneFor(req.priority);
    const std::uint32_t s = allocSlot(std::move(req));
    if (lane.fifo.empty() || lane.fifo.back().id < id) {
        lane.fifo.push_back(Entry{id, s});
        return;
    }
    // Re-enqueue of an old id (a fired retry): sorted insert keeps
    // the lane's ascending-id invariant. Rare — O(lane) is fine.
    const auto pos = std::lower_bound(
        lane.fifo.begin(), lane.fifo.end(), id,
        [](const Entry &e, std::uint64_t v) { return e.id < v; });
    lane.fifo.insert(pos, Entry{id, s});
}

const PendingReq *
RequestPool::peekBest()
{
    for (Lane &lane : lanes_) {
        while (!lane.fifo.empty() && stale(lane.fifo.front()))
            lane.fifo.pop_front();
        if (!lane.fifo.empty())
            return &slots_[lane.fifo.front().slot].req;
    }
    return nullptr;
}

PendingReq
RequestPool::popBest()
{
    for (Lane &lane : lanes_) {
        while (!lane.fifo.empty() && stale(lane.fifo.front()))
            lane.fifo.pop_front();
        if (lane.fifo.empty())
            continue;
        const std::uint32_t s = lane.fifo.front().slot;
        lane.fifo.pop_front();
        PendingReq out = std::move(slots_[s].req);
        slots_[s].req = PendingReq{};
        slots_[s].live = false;
        slots_[s].next_free = free_head_;
        free_head_ = s;
        sushi_assert(live_ > 0);
        --live_;
        return out;
    }
    sushi_panic("popBest on an empty RequestPool");
    return PendingReq{};
}

} // namespace sushi::serve
