#include "sfq/fault_model.hh"

#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace sushi::sfq {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::PulseDrop:
        return "pulse_drop";
      case FaultKind::SpuriousPulse:
        return "spurious_pulse";
      case FaultKind::TimingJitter:
        return "timing_jitter";
      case FaultKind::StuckSet:
        return "stuck_set";
      case FaultKind::StuckReset:
        return "stuck_reset";
      case FaultKind::DeadCell:
        return "dead_cell";
    }
    sushi_panic("bad FaultKind %d", static_cast<int>(kind));
}

FaultModel::FaultModel(std::uint64_t seed) : seed_(seed), rng_(seed)
{
}

void
FaultModel::reseed(std::uint64_t seed)
{
    seed_ = seed;
    rng_ = Rng(seed);
}

void
FaultModel::addFault(FaultSpec spec)
{
    switch (spec.kind) {
      case FaultKind::PulseDrop:
      case FaultKind::SpuriousPulse:
        sushi_assert(spec.rate >= 0.0 && spec.rate <= 1.0);
        ++delivery_faults_;
        break;
      case FaultKind::TimingJitter:
        sushi_assert(spec.jitter_sigma >= 0.0);
        ++delivery_faults_;
        break;
      case FaultKind::StuckSet:
      case FaultKind::StuckReset:
      case FaultKind::DeadCell:
        ++cell_faults_;
        break;
    }
    specs_.push_back(std::move(spec));
    ++config_version_;
}

void
FaultModel::clearFaults()
{
    specs_.clear();
    delivery_faults_ = 0;
    cell_faults_ = 0;
    ++config_version_;
}

bool
FaultModel::matches(const FaultSpec &spec, std::string_view cell,
                    Tick now)
{
    if (now < spec.from || now >= spec.until)
        return false;
    if (spec.target.empty())
        return true;
    return cell.find(spec.target) != std::string_view::npos;
}

FaultModel::Delivery
FaultModel::onDeliver(std::string_view src, Tick now)
{
    Delivery d;
    for (const FaultSpec &spec : specs_) {
        switch (spec.kind) {
          case FaultKind::PulseDrop:
            // Evaluate matching faults even after a drop decision so
            // the consumed random stream — and therefore every later
            // decision — is independent of this delivery's fate.
            if (matches(spec, src, now) && rng_.chance(spec.rate) &&
                !d.dropped) {
                d.dropped = true;
                ++counters_.dropped;
            }
            break;
          case FaultKind::SpuriousPulse:
            if (matches(spec, src, now) && rng_.chance(spec.rate) &&
                !d.dropped) {
                ++d.inserted;
                ++counters_.inserted;
            }
            break;
          case FaultKind::TimingJitter:
            if (matches(spec, src, now) && spec.jitter_sigma > 0.0) {
                const double shift =
                    rng_.gaussian(0.0, spec.jitter_sigma);
                d.jitter += static_cast<Tick>(std::llround(shift));
            }
            break;
          case FaultKind::StuckSet:
          case FaultKind::StuckReset:
          case FaultKind::DeadCell:
            break; // cell faults: not a delivery decision
        }
    }
    if (d.jitter != 0)
        ++counters_.jittered;
    return d;
}

bool
FaultModel::suppressArrival(std::string_view cell, Tick now)
{
    for (const FaultSpec &spec : specs_) {
        if (spec.kind == FaultKind::DeadCell &&
            matches(spec, cell, now)) {
            ++counters_.suppressed;
            return true;
        }
    }
    return false;
}

bool
FaultModel::stuckSet(std::string_view cell, Tick now) const
{
    for (const FaultSpec &spec : specs_)
        if (spec.kind == FaultKind::StuckSet &&
            matches(spec, cell, now))
            return true;
    return false;
}

bool
FaultModel::stuckReset(std::string_view cell, Tick now) const
{
    for (const FaultSpec &spec : specs_)
        if (spec.kind == FaultKind::StuckReset &&
            matches(spec, cell, now))
            return true;
    return false;
}

FaultModel::Delivery
FaultModel::onDeliverKeyed(std::uint64_t mask, Tick now,
                           std::uint64_t cell, std::uint32_t &ctr)
{
    Delivery d;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        const FaultSpec &spec = specs_[i];
        switch (spec.kind) {
          case FaultKind::PulseDrop:
            // Matching specs consume their counter values even after
            // a drop decision, so the per-cell stream position — and
            // therefore every later decision on this cell — is
            // independent of this delivery's fate (mirrors the
            // shared-stream rule in onDeliver).
            if (maskedMatch(i, mask, now) &&
                keyedChance(spec.rate, seed_, cell, ctr) &&
                !d.dropped) {
                d.dropped = true;
                ++counters_.dropped;
            }
            break;
          case FaultKind::SpuriousPulse:
            if (maskedMatch(i, mask, now) &&
                keyedChance(spec.rate, seed_, cell, ctr) &&
                !d.dropped) {
                ++d.inserted;
                ++counters_.inserted;
            }
            break;
          case FaultKind::TimingJitter:
            if (maskedMatch(i, mask, now) &&
                spec.jitter_sigma > 0.0) {
                const double shift = keyedGaussian(
                    0.0, spec.jitter_sigma, seed_, cell, ctr);
                d.jitter += static_cast<Tick>(std::llround(shift));
            }
            break;
          case FaultKind::StuckSet:
          case FaultKind::StuckReset:
          case FaultKind::DeadCell:
            break;
        }
    }
    if (d.jitter != 0)
        ++counters_.jittered;
    return d;
}

bool
FaultModel::suppressArrivalKeyed(std::uint64_t mask, Tick now)
{
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        if (specs_[i].kind == FaultKind::DeadCell &&
            maskedMatch(i, mask, now)) {
            ++counters_.suppressed;
            return true;
        }
    }
    return false;
}

bool
FaultModel::stuckSetMasked(std::uint64_t mask, Tick now) const
{
    for (std::size_t i = 0; i < specs_.size(); ++i)
        if (specs_[i].kind == FaultKind::StuckSet &&
            maskedMatch(i, mask, now))
            return true;
    return false;
}

bool
FaultModel::stuckResetMasked(std::uint64_t mask, Tick now) const
{
    for (std::size_t i = 0; i < specs_.size(); ++i)
        if (specs_[i].kind == FaultKind::StuckReset &&
            maskedMatch(i, mask, now))
            return true;
    return false;
}

} // namespace sushi::sfq
