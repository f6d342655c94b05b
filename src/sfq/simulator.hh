/**
 * @file
 * Top-level discrete-event RSFQ simulator.
 *
 * Owns the event queue, the global clockless time, aggregate energy
 * accounting, the fault-injection model, the timing-constraint
 * violation policy — and the CompiledNetlist, the flat data-oriented
 * circuit core every Component lowers itself into at construction.
 * Pulse exchange runs entirely on POD {tick, seq, cell, port} events
 * against the compiled tables; std::function callbacks remain
 * available for test harnesses and stimulus generators via a pooled
 * side channel that never touches the pulse hot path.
 */

#ifndef SUSHI_SFQ_SIMULATOR_HH
#define SUSHI_SFQ_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hh"
#include "sfq/compiled_netlist.hh"
#include "sfq/event_queue.hh"
#include "sfq/fault_model.hh"

namespace sushi::sfq {

/** How Table-1 timing-constraint violations are handled. */
enum class ViolationPolicy
{
    Ignore,  ///< count only
    Warn,    ///< count and warn()
    Recover, ///< count, attribute to the cell, drop the offending
             ///< pulse, and continue (graceful degradation)
    Fatal,   ///< throw TimingFault (user design error)
};

/**
 * Thrown when a timing constraint is violated under
 * ViolationPolicy::Fatal, so callers can catch it and degrade
 * gracefully (e.g. fall back to a healthy NPE) instead of losing the
 * whole process to an abort. Carries the full attribution: the
 * hierarchical cell name, the violated constraint label, and the two
 * offending pulse times.
 */
class TimingFault : public std::runtime_error
{
  public:
    TimingFault(std::string cell, const std::string &what,
                std::string constraint = {}, Tick prev = kTickNever,
                Tick at = kTickNever)
        : std::runtime_error("timing constraint violated: " + what),
          cell_(std::move(cell)), constraint_(std::move(constraint)),
          prev_(prev), at_(at)
    {
    }

    /** Instance name of the offending cell ("" if unattributed). */
    const std::string &cell() const { return cell_; }

    /** Violated rule label, e.g. "din-din" ("" if unattributed). */
    const std::string &constraint() const { return constraint_; }

    /** Tick of the earlier of the two offending pulses
     *  (kTickNever if not applicable). */
    Tick prevPulse() const { return prev_; }

    /** Tick of the arrival that violated the constraint
     *  (kTickNever if not applicable). */
    Tick violatingPulse() const { return at_; }

  private:
    std::string cell_;
    std::string constraint_;
    Tick prev_;
    Tick at_;
};

/** The RSFQ circuit simulator. */
class Simulator
{
  public:
    /** Arbitrary scheduled work (stimulus/test side channel). */
    using Callback = std::function<void()>;

    Simulator() : core_(*this) {}

    /**
     * Build a replica simulator over a sealed structure shared with
     * other simulators (CompiledNetlist::shareStructure()): only the
     * mutable per-sim state is allocated — the circuit is not
     * re-lowered. Replicas address cells by dense id / name through
     * core(); Component facades belong to the original netlist.
     */
    explicit Simulator(std::shared_ptr<const NetStructure> structure)
        : core_(*this, std::move(structure))
    {
    }

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulation time. */
    Tick now() const { return now_; }

    /** The compiled circuit this simulator executes. */
    CompiledNetlist &core() { return core_; }
    const CompiledNetlist &core() const { return core_; }

    /**
     * Schedule a pulse into input @p port of compiled cell @p cell at
     * absolute tick @p when. The hot path: one POD queue push, no
     * allocation.
     * @throws std::invalid_argument if @p when is before now(); the
     *         simulator is left unchanged.
     */
    void
    schedulePulse(Tick when, std::int32_t cell, std::int32_t port)
    {
        if (when < now_)
            throwPast(when);
        queue_.push(when, cell, port);
    }

    /** Schedule @p cb at absolute tick @p when.
     *  @throws std::invalid_argument if @p when is before now(). */
    void schedule(Tick when, Callback cb);

    /** Schedule @p cb at now() + @p delta. */
    void scheduleIn(Tick delta, Callback cb);

    /**
     * Run until the queue drains or the next event is past @p until.
     * Freezes the compiled core first (fault-mask refresh), so the
     * compiled tables are always what executes.
     * @return the tick of the last executed event (now()).
     */
    Tick run(Tick until = kTickNever);

    /** True if no events remain. */
    bool idle() const { return queue_.empty(); }

    /**
     * Rewind the simulator for reuse: drops all pending events and
     * clears time, energy, pulse, violation, and fault counters; the
     * compiled core's storage bits, arrival history, and probe
     * traces rewind to their post-compile snapshot by flat copies
     * (CompiledNetlist::restoreState()) — no per-cell walk. The
     * fault *configuration* is kept (reseed via faults().reseed());
     * registered components are untouched — campaign iterations
     * reuse one simulator without realloc churn.
     */
    void reset();

    /**
     * Record one timing-constraint violation attributed to @p cell.
     * Ignore/Warn count (and log) it; Recover additionally asks the
     * caller to drop the offending pulse; Fatal throws TimingFault
     * (it no longer aborts the process). @p constraint is the rule
     * label and @p prev / @p at the two offending pulse ticks, all
     * forwarded into the TimingFault for attribution.
     * @return true if the offending pulse must be dropped (Recover).
     */
    bool reportViolation(std::string_view cell, const std::string &what,
                         const char *constraint, Tick prev, Tick at);

    /** Attributed violation without pulse-timing details. */
    bool
    reportViolation(const std::string &cell, const std::string &what)
    {
        return reportViolation(cell, what, "", kTickNever,
                               kTickNever);
    }

    /** Unattributed violation (kept for older call sites). */
    void reportViolation(const std::string &what)
    {
        reportViolation(std::string{}, what);
    }

    /** Full text of the most recent violation ("" if none yet). */
    const std::string &lastViolation() const
    {
        return last_violation_;
    }

    /** Number of constraint violations observed so far. */
    std::uint64_t violations() const { return violations_; }

    /** Violations attributed per cell (Recover/any policy). */
    const std::map<std::string, std::uint64_t> &
    violationsByCell() const
    {
        return violations_by_cell_;
    }

    /** Pulses dropped by the Recover policy so far. */
    std::uint64_t recoveredPulses() const { return recovered_; }

    /** Set the violation handling policy (default Warn). */
    void setViolationPolicy(ViolationPolicy p) { policy_ = p; }
    ViolationPolicy violationPolicy() const { return policy_; }

    /** Accumulate switching energy (joules) on top of what the
     *  compiled cells dissipate (tests, external estimates). */
    void addSwitchEnergy(double joules) { extra_energy_j_ += joules; }

    /**
     * Total dynamic (switching) energy dissipated so far, joules:
     * the per-kind switch tallies priced by the cell library, plus
     * anything added via addSwitchEnergy(). Count-based, so the sum
     * is exact.
     */
    double switchEnergy() const
    {
        return extra_energy_j_ + core_.switchEnergyOf(switch_count_);
    }

    /** Count a pulse delivery (for throughput stats). */
    void countPulse() { ++pulses_; }

    /** The fault-injection model consulted on every delivery. */
    FaultModel &faults() { return faults_; }
    const FaultModel &faults() const { return faults_; }

    /** Pulses lost to injected faults so far. */
    std::uint64_t droppedPulses() const
    {
        return faults_.counters().dropped;
    }

    /** Total pulses delivered between cells. */
    std::uint64_t pulses() const { return pulses_; }

    /** Events executed so far. */
    std::uint64_t eventsExecuted() const { return queue_.executed(); }

  private:
    /** Reject a schedule request dated before now(). */
    [[noreturn]] void throwPast(Tick when) const;

    EventQueue queue_;
    CompiledNetlist core_;
    Tick now_ = 0;
    FaultModel faults_{1};
    std::uint64_t violations_ = 0;
    std::uint64_t recovered_ = 0;
    std::uint64_t pulses_ = 0;
    std::uint64_t switch_count_[CompiledNetlist::kNumExecKinds] = {};
    double extra_energy_j_ = 0.0;
    ViolationPolicy policy_ = ViolationPolicy::Warn;
    std::map<std::string, std::uint64_t> violations_by_cell_;
    std::string last_violation_;

    // Pooled callback storage: the queue carries only the slot index
    // (EventQueue::kCallbackCell events), so callbacks never allocate
    // per-event heap nodes either.
    std::vector<Callback> cb_pool_;
    std::vector<std::int32_t> cb_free_;

    // The compiled core pushes onto this simulator's queue and tallies
    // into its pulse and switch counters (CompiledNetlist::deliver).
    friend class CompiledNetlist;
};

} // namespace sushi::sfq

#endif // SUSHI_SFQ_SIMULATOR_HH
