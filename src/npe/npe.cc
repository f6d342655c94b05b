#include "npe/npe.hh"

#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace sushi::npe {

Npe::Npe(int num_sc)
{
    sushi_assert(num_sc >= 1 && num_sc <= 62);
    scs_.resize(static_cast<std::size_t>(num_sc));
    setPolarity(Polarity::Excitatory);
}

void
Npe::setPolarity(Polarity p)
{
    polarity_ = p;
    for (auto &sc : scs_) {
        if (p == Polarity::Excitatory)
            sc.set1(); // carry on the 1->0 flip: up-count
        else
            sc.set0(); // borrow on the 0->1 flip: down-count
    }
}

std::uint64_t
Npe::rst()
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < scs_.size(); ++i)
        if (scs_[i].rst())
            v |= std::uint64_t{1} << i;
    // rst disarms every SC; restore the polarity arming so the NPE
    // stays usable (the real chip re-sends set pulses, which the
    // pulse encoder emits explicitly — see compiler/pulse_encoder).
    setPolarity(polarity_);
    return v;
}

void
Npe::write(std::uint64_t value)
{
    if (value >= numStates())
        throw std::out_of_range("Npe::write: value " + std::to_string(value) +
                                " does not fit " + std::to_string(numSc()) +
                                " SCs");
    const auto writes = [value](std::size_t i) {
        return ((value >> i) & 1) != 0;
    };
    for (std::size_t i = 0; i < scs_.size(); ++i)
        if (writes(i) && scs_[i].state())
            throw std::logic_error("Npe::write: SC " + std::to_string(i) +
                                   " holds a 1: write must follow rst");
    for (std::size_t i = 0; i < scs_.size(); ++i)
        if (writes(i))
            scs_[i].write();
}

bool
Npe::in()
{
    ++pulses_in_;
    // Ripple: an SC's out pulse is the next SC's in pulse.
    for (auto &sc : scs_) {
        if (!sc.in())
            return false; // ripple stopped inside the chain
    }
    // The final SC emitted: the NPE fires.
    ++spikes_;
    return true;
}

std::uint64_t
Npe::addPulses(std::uint64_t count)
{
    if (count == 0)
        return 0;
    const std::uint64_t s = numStates();
    const std::uint64_t v = value();
    std::uint64_t spikes;
    std::uint64_t next;
    if (polarity_ == Polarity::Excitatory) {
        // Up-count: a carry out of the final SC per wrap past 2^K.
        spikes = (v + count) / s;
        next = (v + count) % s;
    } else {
        // Down-count: a borrow out of the final SC per wrap below 0.
        if (count <= v) {
            spikes = 0;
            next = v - count;
        } else {
            spikes = (count - v + s - 1) / s;
            next = (v + spikes * s - count) % s;
        }
    }
    pulses_in_ += count;
    spikes_ += spikes;
    // Materialise the new counter value in the SC bit states so the
    // slow path and readouts stay consistent.
    for (std::size_t i = 0; i < scs_.size(); ++i) {
        const bool bit = (next >> i) & 1;
        if (scs_[i].state() != bit)
            scs_[i].in(); // flip without consuming arm semantics
    }
    return spikes;
}

std::uint64_t
Npe::value() const
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < scs_.size(); ++i)
        if (scs_[i].state())
            v |= std::uint64_t{1} << i;
    return v;
}

std::vector<bool>
Npe::states() const
{
    std::vector<bool> s;
    s.reserve(scs_.size());
    for (const auto &sc : scs_)
        s.push_back(sc.state());
    return s;
}

NpeGate::NpeGate(sfq::Netlist &net, std::string_view name, int num_sc,
                 Options opts)
{
    sushi_assert(num_sc >= 1);
    const int link_stages = opts.link_stages;
    sfq::CellNamer n(name);
    for (int i = 0; i < num_sc; ++i)
        scs_.push_back(std::make_unique<ScGate>(net, n(".sc", i)));

    // Serial links: SC_i out -> SC_{i+1} in.
    for (int i = 0; i + 1 < num_sc; ++i) {
        auto &next = scs_[static_cast<std::size_t>(i + 1)];
        scs_[static_cast<std::size_t>(i)]->connectOut(
            next->inPort(), ScGate::kInChan, link_stages);
    }

    // IO pads.
    in_src_ = nullptr;
    out_sink_ = nullptr;
    if (!opts.external_in) {
        in_src_ = &net.makeSource(n(".in"));
        net.connectWire(*in_src_, 0, scs_[0]->inPort(),
                        ScGate::kInChan, link_stages);
    }
    rst_src_ = &net.makeSource(n(".rst"));
    set0_src_ = &net.makeSource(n(".set0"));
    set1_src_ = &net.makeSource(n(".set1"));
    if (!opts.external_out) {
        out_sink_ = &net.makeSink(n(".out"));
        scs_.back()->connectOut(*out_sink_, 0, link_stages);
    }

    // Bound control channels distributed over splitter trees.
    std::vector<sfq::PortRef> rst_dsts, s0_dsts, s1_dsts;
    for (auto &sc : scs_) {
        rst_dsts.emplace_back(&sc->rstPort(), 0);
        s0_dsts.emplace_back(&sc->set0Port(), 0);
        s1_dsts.emplace_back(&sc->set1Port(), 0);
    }
    net.fanout(n(".rst_tree"), *rst_src_, 0, rst_dsts, 1);
    net.fanout(n(".set0_tree"), *set0_src_, 0, s0_dsts, 1);
    net.fanout(n(".set1_tree"), *set1_src_, 0, s1_dsts, 1);

    // Individual write channels and read sinks (Sec. 4.1.3: "read and
    // write must be set up individually").
    for (int i = 0; i < num_sc; ++i) {
        auto &sc = scs_[static_cast<std::size_t>(i)];
        auto &wsrc = net.makeSource(n(".write", i));
        net.connectWire(wsrc, 0, sc->inPort(), ScGate::kWriteChan, 1);
        write_srcs_.push_back(&wsrc);
        auto &rsink = net.makeSink(n(".read", i));
        sc->connectRead(rsink, 0, 1);
        read_sinks_.push_back(&rsink);
    }
}

void
NpeGate::injectIn(Tick when)
{
    sushi_assert(in_src_ != nullptr);
    in_src_->pulseAt(when);
}

void
NpeGate::connectOut(sfq::Component &dst, int port, int jtl_stages)
{
    sushi_assert(out_sink_ == nullptr);
    scs_.back()->connectOut(dst, port, jtl_stages);
}

sfq::PulseSink &
NpeGate::outSink()
{
    sushi_assert(out_sink_ != nullptr);
    return *out_sink_;
}

void
NpeGate::injectRst(Tick when)
{
    rst_src_->pulseAt(when);
}

void
NpeGate::injectSet0(Tick when)
{
    set0_src_->pulseAt(when);
}

void
NpeGate::injectSet1(Tick when)
{
    set1_src_->pulseAt(when);
}

void
NpeGate::injectWrite(int sc_index, Tick when)
{
    sushi_assert(sc_index >= 0 && sc_index < numSc());
    write_srcs_[static_cast<std::size_t>(sc_index)]->pulseAt(when);
}

sfq::Component &
NpeGate::inPort()
{
    return scs_[0]->inPort();
}

std::uint64_t
NpeGate::value() const
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < scs_.size(); ++i)
        if (scs_[i]->state())
            v |= std::uint64_t{1} << i;
    return v;
}

std::vector<bool>
NpeGate::states() const
{
    std::vector<bool> s;
    s.reserve(scs_.size());
    for (const auto &sc : scs_)
        s.push_back(sc->state());
    return s;
}

} // namespace sushi::npe
