#include "sfq/simulator.hh"

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace sushi::sfq {

void
Simulator::throwPast(Tick when) const
{
    throw std::invalid_argument(
        "scheduling into the past: t=" + std::to_string(when) +
        " now=" + std::to_string(now_));
}

void
Simulator::schedule(Tick when, Callback cb)
{
    if (when < now_)
        throwPast(when);
    std::int32_t slot;
    if (!cb_free_.empty()) {
        slot = cb_free_.back();
        cb_free_.pop_back();
        cb_pool_[static_cast<std::size_t>(slot)] = std::move(cb);
    } else {
        slot = static_cast<std::int32_t>(cb_pool_.size());
        cb_pool_.push_back(std::move(cb));
    }
    queue_.push(when, EventQueue::kCallbackCell, slot);
}

void
Simulator::scheduleIn(Tick delta, Callback cb)
{
    schedule(now_ + delta, std::move(cb));
}

Tick
Simulator::run(Tick until)
{
    core_.freeze();
    EventQueue::Event ev;
    while (queue_.popNext(until, ev)) {
        // Advance time *before* executing so that deliveries observe
        // the correct now() and relative scheduling is exact.
        now_ = ev.when;
        if (ev.cell != EventQueue::kCallbackCell) {
            core_.deliver(ev.cell, ev.port);
        } else {
            // Vacate the slot before invoking: the callback may
            // schedule further callbacks (and reuse this slot).
            const auto slot = static_cast<std::size_t>(ev.port);
            Callback cb = std::move(cb_pool_[slot]);
            cb_pool_[slot] = nullptr;
            cb_free_.push_back(ev.port);
            cb();
        }
    }
    return now_;
}

void
Simulator::reset()
{
    queue_.clear();
    cb_pool_.clear();
    cb_free_.clear();
    now_ = 0;
    violations_ = 0;
    recovered_ = 0;
    pulses_ = 0;
    std::memset(switch_count_, 0, sizeof switch_count_);
    extra_energy_j_ = 0.0;
    violations_by_cell_.clear();
    last_violation_.clear();
    core_.restoreState();
    faults_.resetCounters();
}

bool
Simulator::reportViolation(std::string_view cell,
                           const std::string &what,
                           const char *constraint, Tick prev, Tick at)
{
    ++violations_;
    if (!cell.empty())
        ++violations_by_cell_[std::string(cell)];
    last_violation_ =
        cell.empty() ? what : std::string(cell) + ": " + what;
    const std::string &where = last_violation_;
    switch (policy_) {
      case ViolationPolicy::Ignore:
        break;
      case ViolationPolicy::Warn:
        sushi_warn("timing constraint violated: %s", where.c_str());
        break;
      case ViolationPolicy::Recover:
        ++recovered_;
        return true;
      case ViolationPolicy::Fatal:
        throw TimingFault(std::string(cell), where,
                          constraint != nullptr ? constraint : "",
                          prev, at);
    }
    return false;
}

} // namespace sushi::sfq
