/**
 * @file
 * The superconducting state controller (SC), paper Sec. 4.1.1/4.1.3.
 *
 * The SC is the minimal asynchronous element of the NPE (Fig. 4/5/8):
 * a one-bit state held in a TFFL/TFFR pair, with NDRO-armed flip
 * outputs and an NDRO state mirror for asynchronous reset / read /
 * write. Channels (Fig. 8(a)):
 *
 *   in    flips the state; emits an `out` pulse on the 0->1 flip when
 *         NDRO0 is armed (set0) or on the 1->0 flip when NDRO1 is
 *         armed (set1)
 *   set0 / set1  arm one flip direction and disarm the other
 *                (mutually exclusive, Sec. 4.1.3)
 *   rst   disarms both outputs, reads the state out on the `read`
 *         channel (Sec. 5.2: "the read pulse output is triggered by
 *         the rst pulse and aligned with it") and clears the state
 *   write flips the state 0 -> 1; per the asynchronous timing rules
 *         it must follow a rst, so the state is known to be 0
 *
 * Both a behavioural model and a gate-level netlist (cells of Fig.
 * 8(b)) are provided; tests and the Fig. 16 bench co-verify them.
 */

#ifndef SUSHI_NPE_STATE_CONTROLLER_HH
#define SUSHI_NPE_STATE_CONTROLLER_HH

#include <string_view>

#include "sfq/netlist.hh"

namespace sushi::npe {

/** Which flip direction produces an output pulse. */
enum class ScArm
{
    None,   ///< both NDROs clear (after rst, before set)
    Rise,   ///< set0: pulse on the 0 -> 1 flip (TFFL path)
    Fall,   ///< set1: pulse on the 1 -> 0 flip (TFFR path)
};

/**
 * Behavioural state controller.
 *
 * Pure FSM, no simulator required; used by the fast NPE model and as
 * the reference in gate-level equivalence tests.
 */
class StateController
{
  public:
    /** Apply an `in` pulse. @return true if an out pulse is emitted. */
    bool in();

    /** Arm the rise (set0) output, disarming the fall output. */
    void set0() { arm_ = ScArm::Rise; }

    /** Arm the fall (set1) output, disarming the rise output. */
    void set1() { arm_ = ScArm::Fall; }

    /**
     * Asynchronous reset: disarms both outputs and clears the state.
     * @return true if a pulse is emitted on the `read` channel
     *         (i.e. the state was 1).
     */
    bool rst();

    /** Write: flip 0 -> 1. Throws std::logic_error, changing
     *  nothing, if the state is not 0 (the "write must follow rst"
     *  rule was violated). */
    void write();

    bool state() const { return state_; }
    ScArm arm() const { return arm_; }

  private:
    bool state_ = false;
    ScArm arm_ = ScArm::None;
};

/**
 * Gate-level state controller: builds the Fig. 8(b) cell netlist in
 * a Netlist and exposes the channel ports.
 *
 * Inputs are driven with inject* (or wired from other components via
 * the exposed cells); `out` must be connected onward with
 * connectOut(), and `read` with connectRead() (or left dangling).
 */
class ScGate
{
  public:
    ScGate(sfq::Netlist &net, std::string_view name);

    /// @name Drive a channel at absolute time @p when.
    /// @{
    void injectIn(Tick when) { cb_in_->inject(0, when); }
    void injectWrite(Tick when) { cb_in_->inject(1, when); }
    void injectSet0(Tick when) { spl_s0_->inject(0, when); }
    void injectSet1(Tick when) { spl_s1_->inject(0, when); }
    void injectRst(Tick when) { spl_rst_->inject(0, when); }
    /// @}

    /** Connect the serial `out` channel onward. */
    void connectOut(sfq::Component &dst, int port, int jtl_stages = 0);

    /** Connect the `read` channel onward. */
    void connectRead(sfq::Component &dst, int port, int jtl_stages = 0);

    /** Input-port handles so upstream cells can drive this SC. */
    sfq::Component &inPort() { return *cb_in_; }
    static constexpr int kInChan = 0;
    static constexpr int kWriteChan = 1;
    sfq::Component &set0Port() { return *spl_s0_; }
    sfq::Component &set1Port() { return *spl_s1_; }
    sfq::Component &rstPort() { return *spl_rst_; }

    /** Current stored state (TFF internal flux). */
    bool state() const;

    /** Current arm configuration (decoded from the NDROs). */
    ScArm arm() const;

  private:
    sfq::Cb3 *cb_in_;
    sfq::Spl *spl_in_;
    sfq::Tffl *tffl_;
    sfq::Tffr *tffr_;
    sfq::Spl *spl_l_;
    sfq::Spl *spl_r_;
    sfq::Ndro *ndro0_;
    sfq::Ndro *ndro1_;
    sfq::Ndro *ndro2_;
    sfq::Cb *cb_out_;
    sfq::Spl *spl_s0_;
    sfq::Spl *spl_s1_;
    sfq::Spl3 *spl_rst_;
    sfq::Spl3 *spl_read_;
    sfq::Cb *cb_r0_;
    sfq::Cb *cb_r1_;
    sfq::Cb *cb_n2rst_;
};

/** Logic JJ count of one gate-level SC (for resource modelling). */
long scLogicJjs();

} // namespace sushi::npe

#endif // SUSHI_NPE_STATE_CONTROLLER_HH
