#include "npe/state_controller.hh"

#include <stdexcept>

#include "common/logging.hh"
#include "sfq/constraints.hh"

namespace sushi::npe {

using sfq::chan::kNdroClk;
using sfq::chan::kNdroDin;
using sfq::chan::kNdroRst;

bool
StateController::in()
{
    state_ = !state_;
    if (state_) // 0 -> 1 flip, TFFL path
        return arm_ == ScArm::Rise;
    // 1 -> 0 flip, TFFR path
    return arm_ == ScArm::Fall;
}

bool
StateController::rst()
{
    arm_ = ScArm::None;
    const bool read = state_;
    state_ = false;
    return read;
}

void
StateController::write()
{
    if (state_)
        throw std::logic_error(
            "SC write while state is 1: write must follow rst");
    state_ = true;
}

ScGate::ScGate(sfq::Netlist &net, std::string_view name)
{
    sfq::CellNamer n(name);

    cb_in_ = &net.makeCb3(n(".cb_in"));
    spl_in_ = &net.makeSpl(n(".spl_in"));
    tffl_ = &net.makeTffl(n(".tffl"));
    tffr_ = &net.makeTffr(n(".tffr"));
    spl_l_ = &net.makeSpl(n(".spl_l"));
    spl_r_ = &net.makeSpl(n(".spl_r"));
    ndro0_ = &net.makeNdro(n(".ndro0"));
    ndro1_ = &net.makeNdro(n(".ndro1"));
    ndro2_ = &net.makeNdro(n(".ndro2"));
    cb_out_ = &net.makeCb(n(".cb_out"));
    spl_s0_ = &net.makeSpl(n(".spl_s0"));
    spl_s1_ = &net.makeSpl(n(".spl_s1"));
    spl_rst_ = &net.makeSpl3(n(".spl_rst"));
    spl_read_ = &net.makeSpl3(n(".spl_read"));
    cb_r0_ = &net.makeCb(n(".cb_r0"));
    cb_r1_ = &net.makeCb(n(".cb_r1"));
    cb_n2rst_ = &net.makeCb(n(".cb_n2rst"));

    // Input merge (in / write / toggle-back) feeding both TFFs.
    net.connectWire(*cb_in_, 0, *spl_in_, 0);
    net.connectWire(*spl_in_, 0, *tffl_, 0);
    net.connectWire(*spl_in_, 1, *tffr_, 0);

    // Rising flip: TFFL -> armed NDRO0 -> out; mirror set.
    net.connectWire(*tffl_, 0, *spl_l_, 0);
    net.connectWire(*spl_l_, 0, *ndro0_, kNdroClk);
    net.connectWire(*spl_l_, 1, *ndro2_, kNdroDin);

    // Falling flip: TFFR -> armed NDRO1 -> out; mirror clear.
    net.connectWire(*tffr_, 0, *spl_r_, 0);
    net.connectWire(*spl_r_, 0, *ndro1_, kNdroClk);
    net.connectWire(*spl_r_, 1, *cb_n2rst_, 0);

    // Flip outputs merge onto the serial out channel.
    net.connectWire(*ndro0_, 0, *cb_out_, 0);
    net.connectWire(*ndro1_, 0, *cb_out_, 1);

    // set0 arms NDRO0 and disarms NDRO1; set1 the reverse. The rst
    // channel also clears both, so each NDRO's rst input is a merge.
    net.connectWire(*spl_s0_, 0, *ndro0_, kNdroDin);
    net.connectWire(*spl_s0_, 1, *cb_r1_, 0);
    net.connectWire(*spl_s1_, 0, *ndro1_, kNdroDin);
    net.connectWire(*spl_s1_, 1, *cb_r0_, 0);
    net.connectWire(*spl_rst_, 0, *cb_r0_, 1);
    net.connectWire(*spl_rst_, 1, *cb_r1_, 1);
    net.connectWire(*cb_r0_, 0, *ndro0_, kNdroRst);
    net.connectWire(*cb_r1_, 0, *ndro1_, kNdroRst);

    // rst also reads the NDRO2 state mirror. Its output (a pulse iff
    // the state is 1) fans out to: the read channel, the toggle-back
    // path that returns the TFFs to 0, and NDRO2's own reset. Two
    // JTL stages delay the toggle-back so the out-path NDROs are
    // already disarmed when the TFFR fires (no spurious out pulse).
    net.connectWire(*spl_rst_, 2, *ndro2_, kNdroClk, 1);
    net.connectWire(*ndro2_, 0, *spl_read_, 0);
    net.connectWire(*spl_read_, 1, *cb_in_, 2, 2);
    net.connectWire(*spl_read_, 2, *cb_n2rst_, 1);
    net.connectWire(*cb_n2rst_, 0, *ndro2_, kNdroRst);
    // spl_read_ output 0 is the external read channel.
}

void
ScGate::connectOut(sfq::Component &dst, int port, int jtl_stages)
{
    cb_out_->connect(0, dst, port,
                     jtl_stages *
                         sfq::cellParams(sfq::CellKind::JTL).delay);
}

void
ScGate::connectRead(sfq::Component &dst, int port, int jtl_stages)
{
    spl_read_->connect(0, dst, port,
                       jtl_stages *
                           sfq::cellParams(sfq::CellKind::JTL).delay);
}

bool
ScGate::state() const
{
    // Both TFFs always toggle together; either holds the SC state.
    return tffl_->state();
}

ScArm
ScGate::arm() const
{
    if (ndro0_->state() && ndro1_->state())
        sushi_panic("SC %.*s: both NDROs armed",
                    static_cast<int>(tffl_->name().size()),
                    tffl_->name().data());
    if (ndro0_->state())
        return ScArm::Rise;
    if (ndro1_->state())
        return ScArm::Fall;
    return ScArm::None;
}

long
scLogicJjs()
{
    using sfq::CellKind;
    using sfq::cellParams;
    return cellParams(CellKind::CB3).jjs +
           4 * cellParams(CellKind::CB).jjs +
           5 * cellParams(CellKind::SPL).jjs +
           2 * cellParams(CellKind::SPL3).jjs +
           cellParams(CellKind::TFFL).jjs +
           cellParams(CellKind::TFFR).jjs +
           3 * cellParams(CellKind::NDRO).jjs;
}

} // namespace sushi::npe
