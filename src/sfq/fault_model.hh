/**
 * @file
 * Pluggable cell-level fault injection for the RSFQ simulator.
 *
 * Fabricated RSFQ parts fail in characteristic ways that waveform
 * verification (paper Sec. 6.2) exists to catch: marginal Josephson
 * junctions lose pulses, flux trapped during cooldown biases storage
 * loops, punch-through doubles pulses, and parameter spread shifts
 * cell delays until timing constraints are violated. The FaultModel
 * turns each of those physical failure modes into an injectable,
 * seed-deterministic fault that can be aimed at individual cells (by
 * instance-name substring) and gated to transient activation windows
 * (a "flux-trap window": the interval during which a trapped fluxon
 * sits in a loop before escaping).
 *
 * Every Simulator owns one FaultModel; components consult it on each
 * pulse delivery and cell arrival. With no faults configured the
 * queries reduce to a flag test, so the fault-free hot path is
 * unchanged.
 */

#ifndef SUSHI_SFQ_FAULT_MODEL_HH
#define SUSHI_SFQ_FAULT_MODEL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
#include "common/time.hh"

namespace sushi::sfq {

/** The injectable physical failure modes. */
enum class FaultKind
{
    PulseDrop,     ///< delivery lost in flight (marginal JJ)
    SpuriousPulse, ///< extra pulse inserted behind a delivery
                   ///< (punch-through / reflection)
    TimingJitter,  ///< Gaussian jitter on propagation delay
                   ///< (parameter spread, thermal noise)
    StuckSet,      ///< NDRO stuck holding a 1 (trapped flux)
    StuckReset,    ///< NDRO stuck holding a 0 (dead storage loop)
    DeadCell,      ///< cell never switches (shorted/open junction)
};

/** Short stable name for JSON output and diagnostics. */
const char *faultKindName(FaultKind kind);

/** One configured fault. */
struct FaultSpec
{
    FaultKind kind = FaultKind::PulseDrop;

    /** Per-delivery probability (PulseDrop / SpuriousPulse). */
    double rate = 0.0;

    /** Jitter standard deviation in ticks (TimingJitter). */
    double jitter_sigma = 0.0;

    /**
     * Instance-name substring this fault applies to; empty matches
     * every cell. Hierarchical names ("npe.sc3.ndro2") make it easy
     * to aim at one cell, one SC, or one whole NPE.
     */
    std::string target;

    /**
     * Activation window [from, until): outside it the fault is
     * dormant. The default covers all time (a hard defect); a finite
     * window models transient flux trapping.
     */
    Tick from = 0;
    Tick until = kTickNever;
};

/** Running tally of injected-fault effects. */
struct FaultCounters
{
    std::uint64_t dropped = 0;    ///< deliveries lost
    std::uint64_t inserted = 0;   ///< spurious pulses added
    std::uint64_t jittered = 0;   ///< deliveries with nonzero jitter
    std::uint64_t suppressed = 0; ///< arrivals eaten by dead cells
};

/** The per-simulator fault injector. */
class FaultModel
{
  public:
    explicit FaultModel(std::uint64_t seed = 1);

    /**
     * Re-seed the fault stream. Equal seeds (with equal fault
     * configurations driving a deterministic event sequence) give
     * bit-identical fault decisions.
     */
    void reseed(std::uint64_t seed);
    std::uint64_t seed() const { return seed_; }

    /** Add a fault. Faults are evaluated in insertion order. */
    void addFault(FaultSpec spec);

    /** Remove every configured fault (counters are kept). */
    void clearFaults();

    const std::vector<FaultSpec> &faults() const { return specs_; }

    /** Number of configured fault specs. */
    std::size_t numFaults() const { return specs_.size(); }

    /**
     * Monotonic configuration version: bumped by addFault() and
     * clearFaults() (reseed() keeps it — the target set is
     * unchanged). CompiledNetlist caches per-cell target bitmasks
     * keyed on this, so substring matching runs once per freeze, not
     * once per delivered pulse.
     */
    std::uint64_t configVersion() const { return config_version_; }

    /** True if spec @p i name-targets @p cell (time window excluded —
     *  that part stays a per-event check). For mask building. */
    bool
    targetMatches(std::size_t i, std::string_view cell) const
    {
        const FaultSpec &spec = specs_[i];
        return spec.target.empty() ||
               cell.find(spec.target) != std::string_view::npos;
    }

    /** The net effect of faults on one pulse delivery. */
    struct Delivery
    {
        bool dropped = false; ///< the pulse is lost in flight
        int inserted = 0;     ///< spurious extra pulses to schedule
        Tick jitter = 0;      ///< signed shift of the arrival time
    };

    /**
     * Decide the fate of a delivery leaving component @p src at time
     * @p now. Consumes randomness only for matching active faults,
     * in insertion order, so streams are reproducible. The compiled
     * core uses these name-based queries only when more than 64
     * specs make the per-cell target masks unusable; they draw from
     * the model's single seeded stream.
     */
    Delivery onDeliver(std::string_view src, Tick now);

    /** True if @p cell is dead at @p now; counts the suppression. */
    bool suppressArrival(std::string_view cell, Tick now);

    /** True if an NDRO named @p cell is stuck-set at @p now. */
    bool stuckSet(std::string_view cell, Tick now) const;

    /** True if an NDRO named @p cell is stuck-reset at @p now. */
    bool stuckReset(std::string_view cell, Tick now) const;

    /// @name Mask-addressed queries (compiled path)
    ///
    /// Bit i of @p mask caches targetMatches(i, cell) for the cell in
    /// question, so the per-event work is a bit test plus the time
    /// window.
    /// @{

    /** True if an NDRO with target bits @p mask is stuck-set at
     *  @p now. */
    bool stuckSetMasked(std::uint64_t mask, Tick now) const;

    /** True if an NDRO with target bits @p mask is stuck-reset at
     *  @p now. */
    bool stuckResetMasked(std::uint64_t mask, Tick now) const;

    /**
     * The fate of a delivery leaving cell @p cell, whose draw counter
     * is @p ctr. Counter-based randomness: every draw is a pure
     * function of (seed, cell id, per-cell counter), so a draw
     * depends only on the cell's own delivery history. Matching drop
     * / spurious specs consume one counter value each, jitter specs
     * exactly two, independent of earlier outcomes.
     */
    Delivery onDeliverKeyed(std::uint64_t mask, Tick now,
                            std::uint64_t cell, std::uint32_t &ctr);

    /** True if a cell with target bits @p mask is dead at @p now;
     *  counts the suppression. */
    bool suppressArrivalKeyed(std::uint64_t mask, Tick now);
    /// @}

    /** Fast-path guards: any fault of the given class configured? */
    bool anyDeliveryFaults() const { return delivery_faults_ > 0; }
    bool anyCellFaults() const { return cell_faults_ > 0; }

    const FaultCounters &counters() const { return counters_; }

    /** Zero the counters (the configuration is kept). */
    void resetCounters() { counters_ = FaultCounters{}; }

  private:
    /** True if @p spec applies to @p cell at @p now. */
    static bool matches(const FaultSpec &spec, std::string_view cell,
                        Tick now);

    /** True if spec @p i applies at @p now given its cached target
     *  bit. Mirrors matches() with the substring test precomputed. */
    bool
    maskedMatch(std::size_t i, std::uint64_t mask, Tick now) const
    {
        if ((mask & (std::uint64_t{1} << i)) == 0)
            return false;
        const FaultSpec &spec = specs_[i];
        return now >= spec.from && now < spec.until;
    }

    std::uint64_t seed_;
    Rng rng_;
    std::vector<FaultSpec> specs_;
    int delivery_faults_ = 0; ///< drop/spurious/jitter spec count
    int cell_faults_ = 0;     ///< stuck/dead spec count
    std::uint64_t config_version_ = 0;
    FaultCounters counters_;
};

} // namespace sushi::sfq

#endif // SUSHI_SFQ_FAULT_MODEL_HH
