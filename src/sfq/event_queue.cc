#include "sfq/event_queue.hh"

namespace sushi::sfq {

void
EventQueue::refill()
{
    while (cur_.empty()) {
        if (ring_count_ == 0) {
            // Everything pending sits past the ring: jump straight to
            // the earliest far-future day instead of scanning empty
            // buckets one day at a time.
            Tick next = kTickNever;
            if (far_head_ < far_.size())
                next = far_[far_head_].when;
            if (!overflow_.empty())
                next = std::min(next, overflow_.front().when);
            sushi_assert(next != kTickNever);
            cur_day_ = next >> kDayBits;
        } else {
            ++cur_day_;
        }
        auto &bucket = days_[static_cast<std::size_t>(
            cur_day_ & (kNumDays - 1))];
        if (!bucket.empty()) {
            ring_count_ -= bucket.size();
            cur_.insert(cur_.end(), bucket.begin(), bucket.end());
            bucket.clear();
        }
        // Far-future events whose day has been reached join the
        // draining day. (A far day can undercut a ring day: the ring
        // window slides forward with cur_day_, so a later push may
        // ring-bucket a day that is *after* an event still waiting
        // in the far lane. Checking on every day advance keeps
        // global order.)
        while (far_head_ < far_.size() &&
               (far_[far_head_].when >> kDayBits) <= cur_day_)
            cur_.push_back(far_[far_head_++]);
        if (2 * far_head_ >= far_.size()) {
            // Drop the consumed prefix once it is half the lane or
            // more, so a lane that never quite drains stays bounded.
            far_.erase(far_.begin(),
                       far_.begin() +
                           static_cast<std::ptrdiff_t>(far_head_));
            far_head_ = 0;
        }
        while (!overflow_.empty() &&
               (overflow_.front().when >> kDayBits) <= cur_day_) {
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          Later{});
            cur_.push_back(overflow_.back());
            overflow_.pop_back();
        }
    }
    std::sort(cur_.begin(), cur_.end(), earlier);
    sorted_ = cur_.size();
}

void
EventQueue::order()
{
    const std::size_t run = sorted_ - head_;
    const std::size_t tail = cur_.size() - sorted_;
    const auto first =
        cur_.begin() + static_cast<std::ptrdiff_t>(head_);
    if (run > kSortedMax && 8 * tail < run) {
        // A few stragglers into a long run: the run already is a
        // min-heap, so sift them in and stay a heap until the day
        // drains.
        cur_.erase(cur_.begin(), first);
        head_ = 0;
        for (std::size_t n = run + 1; n <= cur_.size(); ++n)
            std::push_heap(cur_.begin(),
                           cur_.begin() + static_cast<std::ptrdiff_t>(n),
                           Later{});
        cur_heap_ = true;
    } else if (tail <= 4) {
        // Short run or tail (at most 32 x 4 moves): insertion.
        for (std::size_t i = sorted_; i < cur_.size(); ++i) {
            const Event ev = cur_[i];
            std::size_t j = i;
            for (; j > head_ && Later{}(cur_[j - 1], ev); --j)
                cur_[j] = cur_[j - 1];
            cur_[j] = ev;
        }
    } else {
        // A burst: one sort, paid for by the pushes that made it.
        std::sort(first, cur_.end(), earlier);
    }
    sorted_ = cur_.size();
}

void
EventQueue::clear()
{
    for (auto &bucket : days_)
        bucket.clear();
    cur_.clear();
    head_ = 0;
    sorted_ = 0;
    cur_heap_ = false;
    far_.clear();
    far_head_ = 0;
    overflow_.clear();
    ring_count_ = 0;
    size_ = 0;
    cur_day_ = 0;
    // next_seq_ and executed_ survive deliberately: eventsExecuted()
    // stays monotonic across Simulator::reset(), as before.
}

} // namespace sushi::sfq
