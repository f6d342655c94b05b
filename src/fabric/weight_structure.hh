/**
 * @file
 * Pulse-gain weight structures, paper Sec. 4.2.1 / Fig. 10.
 *
 * Weights are encoded as pulse counts: an input pulse entering a
 * weight structure of strength w leaves as w pulses. The structure is
 * a main through-path plus (w_max - 1) gain taps; each tap splits the
 * pulse off the main line (SPL), gates it with a configurable NDRO
 * (Fig. 10(b)) and merges it back (CB) after a staggered JTL delay
 * long enough to honour the CB input constraints of Table 1.
 *
 * The staggered delay lines are the dominant wiring cost of a
 * high-gain structure: tap i needs ~i * kTapDelayStages JTL stages,
 * so wiring grows quadratically in w_max. This is why SUSHI scales
 * w_max down as the network grows (the neuron's state budget bounds
 * the per-neuron pulse influx anyway) — see fabric/resource_model.
 *
 * The tap delay lines are balanced against the split/merge chain so
 * that a fully-armed structure of ANY gain in [1, 16] produces
 * constraint-clean merged pulse trains (verified gate-level under
 * the fatal policy in tests/test_fabric.cc).
 */

#ifndef SUSHI_FABRIC_WEIGHT_STRUCTURE_HH
#define SUSHI_FABRIC_WEIGHT_STRUCTURE_HH

#include <string_view>
#include <vector>

#include "sfq/netlist.hh"

namespace sushi::fabric {

/** Default JTL stages per tap-delay increment (25 ps > 19.9 ps). */
constexpr int kTapDelayStages = 7;

/**
 * Behavioural weight structure: strength and an on/off switch.
 * process() turns one input pulse into `strength` output pulses.
 */
class WeightStructure
{
  public:
    /** @param w_max largest configurable strength (>= 1). */
    explicit WeightStructure(int w_max);

    /**
     * Configure the strength (0 disables the synapse entirely, as if
     * the series NDRO switch were left clear). Counts a reload if the
     * value actually changes.
     */
    void configure(int strength);

    /** Current strength. */
    int strength() const { return strength_; }

    /** Number of configure() calls that changed the value. */
    long reloads() const { return reloads_; }

    /**
     * Process one input pulse.
     * @return the number of output pulses (= strength).
     */
    int process() const { return strength_; }

  private:
    int w_max_;
    int strength_ = 1;
    long reloads_ = 0;
};

/**
 * Gate-level weight structure (Fig. 10(c)).
 *
 * Ports: one pulse input, one pulse output, plus configuration
 * channels — a series switch NDRO and one NDRO per gain tap. The
 * strength is (switch armed ? 1 + #armed taps : 0).
 */
class WeightStructureGate
{
  public:
    WeightStructureGate(sfq::Netlist &net, std::string_view name,
                        int w_max);

    /** The pulse input port (the series switch NDRO). */
    sfq::Component &inPort();
    /** Channel on inPort() that pulses enter through (NDRO clk). */
    int inChan() const { return sfq::chan::kNdroClk; }

    /** Connect the pulse output onward. */
    void connectOut(sfq::Component &dst, int port, int jtl_stages = 0);

    /**
     * Emit the configuration pulse train that sets the strength:
     * a reset of all config NDROs followed by din pulses arming the
     * switch and (strength - 1) taps. Returns the time after the last
     * configuration pulse.
     */
    Tick configure(int strength, Tick start, Tick spacing);

    /** Decoded current strength from the NDRO states. */
    int strength() const;

    /** Inject a clear pulse into the series switch NDRO (one of the
     *  pulses a Channel::SynRst program op expands to). */
    void injectSwitchClear(Tick when);

    /** Inject an arm pulse into the series switch NDRO. */
    void injectSwitchArm(Tick when);

  private:
    int w_max_;
    sfq::Ndro *switch_ndro_;
    sfq::Spl *in_spl_ = nullptr;       // only when w_max > 1
    std::vector<sfq::Spl *> tap_spls_;
    std::vector<sfq::Ndro *> tap_ndros_;
    std::vector<sfq::Cb *> tap_cbs_;
    sfq::Component *out_cell_;
    int out_port_;
};

/**
 * Logic JJs of one weight structure of the given w_max (switch NDRO,
 * per-tap SPL + NDRO + CB, and the per-synapse polarity/config pair).
 */
long weightStructureLogicJjs(int w_max);

/** Wiring JJs of the staggered tap delay lines (quadratic in w_max). */
long weightStructureWiringJjs(int w_max);

} // namespace sushi::fabric

#endif // SUSHI_FABRIC_WEIGHT_STRUCTURE_HH
