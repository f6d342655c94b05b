#include "sfq/compiled_netlist.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sfq/constraints.hh"
#include "sfq/simulator.hh"

namespace sushi::sfq {

namespace {

constexpr std::uint8_t
u8(CellKind k)
{
    return static_cast<std::uint8_t>(k);
}

} // namespace

CompiledNetlist::CompiledNetlist(Simulator &sim) : sim_(sim)
{
    for (int k = 0; k < static_cast<int>(CellKind::kNumKinds); ++k) {
        const CellParams &p = cellParams(static_cast<CellKind>(k));
        kind_delay_[k] = p.delay;
        kind_energy_[k] = p.switch_energy_j;
        // Per-kind constraint presence: cells of a kind with no
        // Table-1 rules skip the per-arrival rule scan entirely.
        kind_has_rules_[k] =
            !constraintRules(static_cast<CellKind>(k)).empty();
        for (int c = 0; c < kMaxChannels; ++c)
            kind_rules_[k * kMaxChannels + c] =
                incomingRules(static_cast<CellKind>(k), c);
    }
    kind_delay_[kKindSource] = 0;
    kind_energy_[kKindSource] = 0.0;
    kind_has_rules_[kKindSource] = false;
    kind_delay_[kKindSink] = 0;
    kind_energy_[kKindSink] = 0.0;
    kind_has_rules_[kKindSink] = false;
    auto s = std::make_shared<NetStructure>();
    mut_ = s.get();
    struct_ = std::move(s);
}

CompiledNetlist::CompiledNetlist(
    Simulator &sim, std::shared_ptr<const NetStructure> structure)
    : CompiledNetlist(sim)
{
    sushi_assert(structure != nullptr);
    struct_ = std::move(structure);
    mut_ = nullptr; // adopted structures are sealed
    const NetStructure &st = *struct_;
    state_.assign(st.kind.size(), 0);
    last_.assign(st.num_inputs, kTickNever);
    rng_ctr_.assign(st.kind.size(), 0);
    traces_.resize(st.num_traces);
}

NetStructure &
CompiledNetlist::mut()
{
    if (mut_ == nullptr)
        throw std::logic_error(
            "compiled netlist structure is sealed (shared with "
            "replicas); cannot add or connect cells");
    return *mut_;
}

std::int32_t
CompiledNetlist::addCell(std::string_view name, std::uint8_t kind,
                         int num_inputs, int num_outputs)
{
    sushi_assert(kind < kNumExecKinds);
    sushi_assert(num_inputs >= 0 && num_inputs <= 255);
    sushi_assert(num_outputs >= 0);
    NetStructure &st = mut();
    const auto id = static_cast<std::int32_t>(st.kind.size());
    st.kind.push_back(kind);
    state_.push_back(0);
    rng_ctr_.push_back(0);
    st.n_in.push_back(static_cast<std::uint8_t>(num_inputs));
    st.has_rules.push_back(kind_has_rules_[kind] ? 1 : 0);
    st.in_off.push_back(static_cast<std::int32_t>(last_.size()));
    last_.resize(last_.size() + static_cast<std::size_t>(num_inputs),
                 kTickNever);
    st.num_inputs = last_.size();
    st.out_off.push_back(static_cast<std::int32_t>(st.conns.size()));
    st.conns.resize(st.conns.size() +
                    static_cast<std::size_t>(num_outputs));
    if (kind == u8(CellKind::SFQDC) || kind == kKindSink) {
        st.trace_slot.push_back(
            static_cast<std::int32_t>(traces_.size()));
        traces_.emplace_back();
        st.num_traces = traces_.size();
    } else {
        st.trace_slot.push_back(-1);
    }
    st.names.append(name);
    sushi_assert(st.names.size() <= UINT32_MAX);
    st.name_end.push_back(static_cast<std::uint32_t>(st.names.size()));
    return id;
}

void
CompiledNetlist::connect(std::int32_t src, int out_port,
                         std::int32_t dst, int dst_port,
                         Tick wire_delay)
{
    const std::size_t i = checkId(src);
    sushi_assert(out_port >= 0 &&
                 static_cast<std::size_t>(out_port) < connCount(i));
    const std::size_t j = checkId(dst);
    sushi_assert(dst_port >= 0 &&
                 dst_port < static_cast<int>(struct_->n_in[j]));
    NetStructure &st = mut();
    OutConn &c = st.conns[static_cast<std::size_t>(st.out_off[i]) +
                          static_cast<std::size_t>(out_port)];
    // Component::connect throws the user-facing fan-out error first;
    // this guards direct core callers.
    sushi_assert(c.dst < 0);
    c.dst = dst;
    c.port = dst_port;
    c.wire_delay = wire_delay;
    ++st.live_conns;
}

std::int32_t
CompiledNetlist::cellId(std::string_view name) const
{
    const auto n = static_cast<std::int32_t>(numCells());
    for (std::int32_t i = 0; i < n; ++i)
        if (cellName(i) == name)
            return i; // first wins
    return -1;
}

std::shared_ptr<const NetStructure>
CompiledNetlist::shareStructure()
{
    mut_ = nullptr;
    return struct_;
}

bool
CompiledNetlist::masksCurrent() const
{
    return fault_masks_usable_ &&
           fault_mask_.size() == struct_->kind.size() &&
           fault_cfg_version_ == sim_.faults().configVersion();
}

void
CompiledNetlist::freeze()
{
    const NetStructure &st = *struct_;
    // Snapshot the post-compile mutable state on the first freeze
    // after a structural change: restoreState() rewinds to exactly
    // this point by flat copies.
    if (!snapped_ || snap_state_.size() != state_.size()) {
        snap_state_ = state_;
        snap_last_ = last_;
        snap_rng_ctr_ = rng_ctr_;
        snap_trace_size_.resize(traces_.size());
        for (std::size_t t = 0; t < traces_.size(); ++t)
            snap_trace_size_[t] = traces_[t].size();
        snapped_ = true;
    }
    const FaultModel &fm = sim_.faults();
    const std::uint64_t ver = fm.configVersion();
    if (ver == fault_cfg_version_ &&
        fault_mask_.size() == st.kind.size())
        return;
    fault_masks_usable_ = fm.numFaults() <= 64;
    fault_mask_.assign(st.kind.size(), 0);
    if (fault_masks_usable_) {
        for (std::size_t i = 0; i < st.kind.size(); ++i) {
            std::uint64_t m = 0;
            for (std::size_t s = 0; s < fm.numFaults(); ++s)
                if (fm.targetMatches(
                        s, cellName(static_cast<std::int32_t>(i))))
                    m |= std::uint64_t{1} << s;
            fault_mask_[i] = m;
        }
    }
    fault_cfg_version_ = ver;
}

void
CompiledNetlist::restoreState()
{
    if (!snapped_)
        return;
    sushi_assert(snap_state_.size() == state_.size());
    state_ = snap_state_;
    last_ = snap_last_;
    rng_ctr_ = snap_rng_ctr_;
    for (std::size_t t = 0; t < traces_.size(); ++t) {
        const std::size_t want = snap_trace_size_[t];
        if (traces_[t].size() > want)
            traces_[t].resize(want);
    }
}

double
CompiledNetlist::switchEnergyOf(const std::uint64_t counts[]) const
{
    double e = 0.0;
    for (int k = 0; k < static_cast<int>(kNumExecKinds); ++k)
        e += static_cast<double>(counts[k]) * kind_energy_[k];
    return e;
}

inline bool
CompiledNetlist::arriveCell(std::int32_t id, std::uint8_t kind,
                            int port, Tick now)
{
    const auto i = static_cast<std::size_t>(id);
    const NetStructure &st = *struct_;
    sushi_assert(port >= 0 && port < static_cast<int>(st.n_in[i]));
    // A dead cell (shorted/open junction) eats the pulse before any
    // junction switches: no energy, no constraint bookkeeping.
    FaultModel &fm = sim_.faults();
    if (fm.anyCellFaults()) {
        const bool dead =
            masksCurrent()
                ? fm.suppressArrivalKeyed(fault_mask_[i], now)
                : fm.suppressArrival(cellName(id), now);
        if (dead)
            return false;
    }
    Tick *last = last_.data() + st.in_off[i];
    if (st.has_rules[i] != 0) {
        // Table-1 constraint check: first violated rule wins, in the
        // constraintRules() order, exactly as ConstraintChecker does.
        sushi_assert(port < kMaxChannels);
        const IncomingRule *hit = nullptr;
        Tick hit_prev = kTickNever;
        for (const IncomingRule &r :
             kind_rules_[kind * kMaxChannels + port]) {
            const Tick prev =
                last[static_cast<std::size_t>(r.chan_a)];
            if (prev == kTickNever)
                continue;
            if (now - prev < r.min_interval) {
                hit = &r;
                hit_prev = prev;
                break;
            }
        }
        // The arrival is recorded whether or not it violated: the
        // pulse did hit the input, and later spacing is measured
        // from it.
        last[static_cast<std::size_t>(port)] = now;
        if (hit != nullptr &&
            sim_.reportViolation(
                cellName(id),
                violationMessage(static_cast<CellKind>(kind),
                                 hit->label, hit->min_interval,
                                 hit_prev, now),
                hit->label, hit_prev, now)) {
            // Recover policy: the marginal arrival is attributed to
            // this cell and the offending pulse is discarded.
            return false;
        }
    } else {
        last[static_cast<std::size_t>(port)] = now;
    }
    ++sim_.switch_count_[kind];
    return true;
}

inline void
CompiledNetlist::emit(std::int32_t id, int out_port, Tick delay,
                      Tick now)
{
    const auto i = static_cast<std::size_t>(id);
    const NetStructure &st = *struct_;
    const OutConn &c =
        st.conns[static_cast<std::size_t>(st.out_off[i]) +
                 static_cast<std::size_t>(out_port)];
    if (c.dst < 0)
        return; // dangling output is legal (unused readout)
    Tick when = now + delay + c.wire_delay;
    int copies = 1;
    FaultModel &fm = sim_.faults();
    if (fm.anyDeliveryFaults()) {
        const FaultModel::Delivery fate =
            masksCurrent()
                ? fm.onDeliverKeyed(fault_mask_[i], now,
                                    static_cast<std::uint64_t>(id),
                                    rng_ctr_[i])
                : fm.onDeliver(cellName(id), now);
        if (fate.dropped)
            return; // injected fault: the pulse is lost in flight
        // Jitter cannot deliver into the past.
        when = now + std::max<Tick>(0, delay + c.wire_delay +
                                           fate.jitter);
        // Spurious pulses (punch-through) trail the real delivery.
        copies += fate.inserted;
    }
    sim_.pulses_ += static_cast<std::uint64_t>(copies);
    for (int s = 0; s < copies; ++s)
        sim_.queue_.push(when + s, c.dst, c.port);
}

void
CompiledNetlist::deliver(std::int32_t id, std::int32_t port)
{
    const std::size_t i = checkId(id);
    const std::uint8_t kind = struct_->kind[i];
    const Tick now = sim_.now();
    if (kind == kKindSink) {
        sushi_assert(port == 0);
        traces_[static_cast<std::size_t>(struct_->trace_slot[i])]
            .push_back(now);
        return;
    }
    // Every other kind ends in "emit outputs [0, fire)", so
    // arriveCell() and emit() each have one call site here.
    if (kind != kKindSource && !arriveCell(id, kind, port, now))
        return;
    int fire = 1;
    switch (kind) {
      case kKindSource:
        // A source "delivery" is its scheduled firing: emit through
        // output 0 with zero cell delay (kind_delay_ is 0 for
        // sources), as PulseSource::pulseAt did.
      case u8(CellKind::JTL):
      case u8(CellKind::DCSFQ):
      case u8(CellKind::CB):
      case u8(CellKind::CB3):
        break;
      case u8(CellKind::SPL):
        fire = 2;
        break;
      case u8(CellKind::SPL3):
        fire = 3;
        break;
      case u8(CellKind::DFF):
        if (port == chan::kDffDin) {
            // A second din before a clk would push a second flux
            // quantum into the storage loop — a design error.
            // Under Recover the surplus din is simply discarded.
            if (state_[i] != 0 &&
                sim_.reportViolation(cellName(id),
                                     "din while already storing", "",
                                     kTickNever, kTickNever))
                return;
            state_[i] = 1;
            fire = 0;
        } else {
            // clk: destructive read. No stored flux means logic 0 —
            // no output pulse.
            fire = state_[i];
            state_[i] = 0;
        }
        break;
      case u8(CellKind::NDRO): {
        // Stuck-at faults model flux trapped in (stuck-set) or a
        // dead (stuck-reset) storage loop: while active, the loop
        // holds its forced value and writes in the opposing
        // direction are lost.
        bool s_set = false, s_rst = false;
        const FaultModel &fm = sim_.faults();
        if (fm.anyCellFaults()) {
            if (masksCurrent()) {
                s_set = fm.stuckSetMasked(fault_mask_[i], now);
                s_rst = fm.stuckResetMasked(fault_mask_[i], now);
            } else {
                s_set = fm.stuckSet(cellName(id), now);
                s_rst = fm.stuckReset(cellName(id), now);
            }
        }
        if (s_set)
            state_[i] = 1;
        if (s_rst)
            state_[i] = 0;
        fire = 0;
        switch (port) {
          case chan::kNdroDin:
            if (!s_rst)
                state_[i] = 1;
            break;
          case chan::kNdroRst:
            if (!s_set)
                state_[i] = 0;
            break;
          case chan::kNdroClk:
            fire = state_[i];
            break;
          default:
            sushi_panic("NDRO %.*s: bad port %d",
                        static_cast<int>(cellName(id).size()),
                        cellName(id).data(), port);
        }
        break;
      }
      case u8(CellKind::TFFL):
        state_[i] ^= 1;
        fire = state_[i]; // pulses on the 0 -> 1 flip
        break;
      case u8(CellKind::TFFR):
        state_[i] ^= 1;
        fire = state_[i] ^ 1; // pulses on the 1 -> 0 flip
        break;
      case u8(CellKind::SFQDC):
        state_[i] ^= 1; // output level toggles per pulse
        traces_[static_cast<std::size_t>(struct_->trace_slot[i])]
            .push_back(now);
        return;
      default:
        sushi_panic("cell %.*s: bad kind %d",
                    static_cast<int>(cellName(id).size()),
                    cellName(id).data(), static_cast<int>(kind));
    }
    const Tick delay = kind_delay_[kind];
    for (int o = 0; o < fire; ++o)
        emit(id, o, delay, now);
}

} // namespace sushi::sfq
