/**
 * @file
 * The neuromorphic processing element (NPE), paper Sec. 4.1.2/4.1.3.
 *
 * An NPE is a serial chain of K state controllers (Fig. 9). Because
 * each SC emits its out pulse on exactly one flip direction — set1
 * arms the 1->0 (carry) flip, set0 the 0->1 (borrow) flip — the chain
 * behaves as an asynchronous K-bit ripple counter that counts *up*
 * when all SCs are armed with set1 and *down* when armed with set0.
 * This is how SUSHI realises the two weight polarities on the neuron
 * ("the polarity of the weights is ... distinguished when the weights
 * reach the neuron, through the set channels", Sec. 4.2.1).
 *
 * Integrate-and-fire thresholding comes for free: the write channels
 * pre-load the counter with 2^K - theta, so the carry pulse out of
 * the final SC — the NPE's serial `out` — appears exactly when the
 * accumulated input count crosses theta. The SCs' state-preserving
 * ability carries partial sums across bit-slices with no memory
 * (Sec. 5.3).
 */

#ifndef SUSHI_NPE_NPE_HH
#define SUSHI_NPE_NPE_HH

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "npe/state_controller.hh"

namespace sushi::npe {

/** Counting direction, i.e. weight polarity at the neuron. */
enum class Polarity
{
    Excitatory, ///< set1 on all SCs: input pulses count up
    Inhibitory, ///< set0 on all SCs: input pulses count down
};

/**
 * Behavioural NPE: the fast model used for whole-network inference.
 *
 * Tracks the exact per-SC bit states so it can be co-verified against
 * the gate-level NpeGate.
 */
class Npe
{
  public:
    /** @param num_sc chain length K (2^K states). */
    explicit Npe(int num_sc);

    /** Number of SCs in the chain. */
    int numSc() const { return static_cast<int>(scs_.size()); }

    /** Total representable states, 2^K. */
    std::uint64_t numStates() const
    {
        return std::uint64_t{1} << numSc();
    }

    /** Apply set0/set1 to every SC (channels bound together). */
    void setPolarity(Polarity p);
    Polarity polarity() const { return polarity_; }

    /**
     * Asynchronous reset of every SC.
     * @return the counter value that was read out (one read pulse
     *         per SC that held a 1).
     */
    std::uint64_t rst();

    /**
     * Pre-load the counter (per-SC writes). Throws std::out_of_range
     * if @p value >= numStates(). Must follow rst: throws
     * std::logic_error if an SC that @p value writes already holds a
     * 1. Every SC is checked before any is written, so a refused
     * write changes nothing.
     */
    void write(std::uint64_t value);

    /**
     * One input pulse: ripple through the chain.
     * @return true if the final SC emitted a pulse (IF spike).
     */
    bool in();

    /**
     * Deliver @p count input pulses at once. Bit-exact with calling
     * in() @p count times (including wrap-around spikes), but O(1):
     * the fast path for whole-network inference.
     * @return the number of spikes emitted from the final SC.
     */
    std::uint64_t addPulses(std::uint64_t count);

    /** Current counter value (LSB = SC0). */
    std::uint64_t value() const;

    /** Per-SC states (index 0 = LSB). */
    std::vector<bool> states() const;

    /** Total spikes emitted since construction. */
    std::uint64_t spikesEmitted() const { return spikes_; }

    /** Total input pulses received since construction. */
    std::uint64_t pulsesReceived() const { return pulses_in_; }

  private:
    std::vector<StateController> scs_;
    Polarity polarity_ = Polarity::Excitatory;
    std::uint64_t spikes_ = 0;
    std::uint64_t pulses_in_ = 0;
};

/**
 * Gate-level NPE: a chain of ScGate netlists, with rst/set0/set1
 * distributed over splitter trees (the channels "can be arbitrarily
 * bound together", Sec. 4.1.3) and individual write channels.
 */
/** NpeGate construction options. */
struct NpeGateOptions
{
    /** JTL stages on each SC-to-SC serial link. */
    int link_stages = 1;
    /** Leave the chain input to be wired externally (fabric). */
    bool external_in = false;
    /** Leave the spike output to be wired externally (fabric). */
    bool external_out = false;
};

class NpeGate
{
  public:
    using Options = NpeGateOptions;

    /**
     * @param net     netlist to build into
     * @param name    instance name
     * @param num_sc  chain length
     * @param opts    wiring options
     */
    NpeGate(sfq::Netlist &net, std::string_view name, int num_sc,
            Options opts = {});

    int numSc() const { return static_cast<int>(scs_.size()); }

    /// @name Drive the bound control channels / per-SC channels.
    /// @{
    void injectIn(Tick when);
    void injectRst(Tick when);
    void injectSet0(Tick when);
    void injectSet1(Tick when);
    void injectWrite(int sc_index, Tick when);
    /// @}

    /** The chain input port (for wiring from a network fabric). */
    sfq::Component &inPort();
    int inChan() const { return ScGate::kInChan; }

    /**
     * Connect the spike output onward (external_out mode only;
     * otherwise the output is captured by outSink()).
     */
    void connectOut(sfq::Component &dst, int port, int jtl_stages = 0);

    /** Sink capturing the NPE's spike output (panics in
     *  external_out mode). */
    sfq::PulseSink &outSink();

    /** Sink capturing SC @p i's read channel. */
    sfq::PulseSink &readSink(int i) { return *read_sinks_[i]; }

    /** Decode the current counter value from the SC states. */
    std::uint64_t value() const;

    /** Per-SC stored bits. */
    std::vector<bool> states() const;

  private:
    std::vector<std::unique_ptr<ScGate>> scs_;
    sfq::PulseSource *in_src_;
    sfq::PulseSource *rst_src_;
    sfq::PulseSource *set0_src_;
    sfq::PulseSource *set1_src_;
    std::vector<sfq::PulseSource *> write_srcs_;
    sfq::PulseSink *out_sink_;
    std::vector<sfq::PulseSink *> read_sinks_;
};

} // namespace sushi::npe

#endif // SUSHI_NPE_NPE_HH
