/**
 * @file
 * Seed-deterministic chaos injection at the serve/engine boundary.
 *
 * A ChaosPolicy describes the fault environment of a replica pool —
 * whole-chip crashes (flux trap / bias loss), stalls, persistent
 * slow-degrade (JJ margin drift), transient sfq::TimingFault
 * escalations and NPE failures (PR 1's markNpeFailed) — and the
 * ChaosEngine turns it into per-batch verdicts the Server consults
 * every time it dispatches work to a replica.
 *
 * Determinism contract (the property the chaos tests assert): every
 * random decision is a *keyed* counter draw (common/rng keyedBits),
 * keyed by (seed, replica, per-replica dispatch sequence). The
 * sequence numbers are assigned under the server lock in event
 * order, so under the virtual clock an entire chaos campaign — which
 * batch crashed, which stalled, which NPE failed — replays
 * byte-identically at any worker-thread count. No wall-clock time or
 * thread identity ever feeds a draw.
 *
 * Scripted events complement the random rates: a ChaosScript entry
 * fires at a fixed virtual instant on a fixed replica, which is how
 * the ChaosAvailability tests stage the "one of four replicas
 * crashes mid-run" scenario. Crashes gate probes immediately;
 * latched effects (stall, slow-degrade, NPE failure) apply at the
 * replica's next dispatch.
 */

#ifndef SUSHI_SERVE_CHAOS_HH
#define SUSHI_SERVE_CHAOS_HH

#include <cstdint>
#include <vector>

namespace sushi::serve {

/** Kinds of injected faults. */
enum class ChaosKind : std::uint8_t {
    None = 0,
    Crash,        ///< whole-chip failure; batches fail until healed
    Stall,        ///< one batch served stall_factor times slower
    SlowDegrade,  ///< persistent service slowdown until readmitted
    TransientFault, ///< batch dies with an escalated sfq::TimingFault
    NpeDegrade,   ///< one output NPE fails (SushiChip::markNpeFailed)
};

/** Stable lowercase name of a chaos kind. */
const char *chaosKindName(ChaosKind k);

/** One scripted fault: @p kind hits @p replica at @p at_ns. */
struct ChaosScript
{
    std::int64_t at_ns = 0;
    int replica = 0;
    ChaosKind kind = ChaosKind::Crash;
    int slot = 0; ///< NpeDegrade: output-NPE slot to fail
};

/** The fault environment of a replica pool. */
struct ChaosPolicy
{
    /** Seed of every keyed draw; equal seeds replay identically. */
    std::uint64_t seed = 0;

    /// @name Per-dispatch fault probabilities.
    /// @{
    double crash_rate = 0.0;
    double stall_rate = 0.0;
    double slow_rate = 0.0;
    double fault_rate = 0.0;   ///< transient TimingFault escalation
    double degrade_rate = 0.0; ///< NPE failure
    /// @}

    /** Service-time multiplier of a stalled batch. */
    double stall_factor = 50.0;

    /** Multiplier compounded onto a replica's service time per
     *  slow-degrade event (cleared when the replica is readmitted). */
    double slow_factor = 4.0;

    /** A crashed replica stays unreachable this long; after that a
     *  probe succeeds and the server may readmit it. */
    std::int64_t crash_hold_ns = 20'000'000;

    /** Service time charged to a batch that hits a crashed replica
     *  (failure-detection latency, not a full execution). */
    std::int64_t crash_detect_ns = 50'000;

    /** Deterministic scripted faults (sorted by at_ns internally). */
    std::vector<ChaosScript> script;

    bool enabled() const
    {
        return crash_rate > 0.0 || stall_rate > 0.0 ||
               slow_rate > 0.0 || fault_rate > 0.0 ||
               degrade_rate > 0.0 || !script.empty();
    }
};

/**
 * Per-pool chaos state machine. All methods must be called under the
 * server's scheduling lock; decisions depend only on (policy,
 * replica, dispatch sequence, logical time).
 */
class ChaosEngine
{
  public:
    ChaosEngine(const ChaosPolicy &policy, int replicas);

    const ChaosPolicy &policy() const { return policy_; }

    /** Verdict for one dispatched batch. */
    struct BatchFate
    {
        bool crash = false; ///< batch fails; replica unreachable
        bool fault = false; ///< batch fails with a TimingFault
        bool stall = false; ///< batch served stall_factor slower
        bool slow_started = false; ///< replica began slow-degrading
        int degrade_slot = -1;     ///< >= 0: fail this NPE slot now
        double service_scale = 1.0;

        bool failed() const { return crash || fault; }
    };

    /**
     * Decide the fate of the next batch dispatched on @p replica at
     * logical time @p now_ns. Consumes one dispatch sequence number;
     * the verdict is a pure function of (seed, replica, sequence)
     * plus scripted events due by @p now_ns.
     */
    BatchFate onBatch(int replica, std::int64_t now_ns);

    /** True if @p replica is crash-unreachable at @p now_ns (what a
     *  health probe observes). */
    bool crashed(int replica, std::int64_t now_ns);

    /** Apply scripted events due by @p now_ns (the virtual clock
     *  calls this when it wakes at nextScriptNs() so a script always
     *  makes progress even if no dispatch observes it). */
    void advance(std::int64_t now_ns) { advanceTo(now_ns); }

    /** Readmission hook: clears the replica's slow-degrade scale and
     *  any latched faults (the chip was reset / re-biased). */
    void heal(int replica);

    /** Earliest un-applied scripted event (INT64_MAX if none) — a
     *  virtual-clock event candidate. */
    std::int64_t nextScriptNs() const;

  private:
    void advanceTo(std::int64_t now_ns);

    ChaosPolicy policy_;
    std::size_t script_next_ = 0; ///< first un-applied script entry

    struct Rep
    {
        std::uint32_t seq = 0; ///< dispatches drawn so far
        std::int64_t crashed_until_ns = -1;
        double slow_scale = 1.0;
        bool pending_stall = false;  ///< latched scripted stall
        int pending_degrade = -1;    ///< latched scripted NPE slot
    };
    std::vector<Rep> reps_;
};

} // namespace sushi::serve

#endif // SUSHI_SERVE_CHAOS_HH
