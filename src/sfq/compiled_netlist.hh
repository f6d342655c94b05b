/**
 * @file
 * The compiled, data-oriented execution core of the RSFQ simulator.
 *
 * Every Component registers itself here at construction, which lowers
 * the circuit into flat contiguous arrays as it is built. The tables
 * are split along the mutability boundary:
 *
 *  - NetStructure holds everything *immutable after compilation* —
 *    the SoA kind/input-count bytes, the CSR fan-out table (RSFQ
 *    fan-out is one, paper Sec. 2.1.2, so each output port owns
 *    exactly one {dst, port, wire_delay} slot), the per-cell
 *    constraint-presence flags, and the name table (every name in
 *    one arena string, addressed by per-cell end offsets). One
 *    NetStructure can be shared (shared_ptr) by many simulators:
 *    replica fleets — fault-campaign workers, engine replicas —
 *    clone only the mutable state below instead of re-lowering the
 *    whole circuit per replica;
 *
 *  - the per-simulator mutable state: one byte of storage state
 *    (NDRO flux bit / TFF phase / DFF latch / SFQDC level) per cell,
 *    flat per-channel last-arrival ticks for the Table-1 constraint
 *    checks, pooled pulse traces for the probes (PulseSink, SFQDC),
 *    per-cell keyed-RNG draw counters (so a fault draw depends only
 *    on the cell's own delivery history), and the cached
 *    fault-target bitmasks.
 *
 * deliver() is the pulse-delivery inner loop: a switch on the kind
 * byte over indices. No virtual dispatch, no std::function, no
 * allocation, no string handling on the fault-free hot path (see
 * DESIGN.md §2.1). It pushes onto the owning Simulator's event queue
 * and tallies into its counters. freeze() completes the lowering by
 * caching one fault-target bitmask per cell and taking the state
 * snapshot that makes Simulator::reset() a memcpy.
 */

#ifndef SUSHI_SFQ_COMPILED_NETLIST_HH
#define SUSHI_SFQ_COMPILED_NETLIST_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/time.hh"
#include "sfq/cell_params.hh"
#include "sfq/constraints.hh"

namespace sushi::sfq {

class Simulator;

/** One CSR fan-out slot (fan-out is 1 per output port). */
struct OutConn
{
    std::int32_t dst = -1; ///< destination cell id, -1 dangling
    std::int32_t port = 0; ///< destination input port
    Tick wire_delay = 0;   ///< interconnect (JTL chain) delay
};

/**
 * The immutable-after-compilation half of a compiled netlist. Built
 * through CompiledNetlist's lowering API, then optionally sealed and
 * shared across simulators via CompiledNetlist::shareStructure().
 */
struct NetStructure
{
    std::vector<std::uint8_t> kind;     ///< execution kind byte
    std::vector<std::uint8_t> n_in;     ///< input port count
    std::vector<std::uint8_t> has_rules; ///< any Table-1 rule on kind
    std::vector<std::int32_t> out_off;  ///< CSR offsets into conns
    std::vector<OutConn> conns;
    std::vector<std::int32_t> in_off;   ///< offsets into last-arrival
    std::vector<std::int32_t> trace_slot;
    std::string names;                  ///< every name, back to back
    std::vector<std::uint32_t> name_end; ///< end of cell i's name
    std::size_t live_conns = 0;
    std::size_t num_traces = 0;
    std::size_t num_inputs = 0;         ///< total input channels
};

/** Flat, index-addressed circuit representation plus its executor. */
class CompiledNetlist
{
  public:
    /** Pseudo-kinds for the IO pads, after the library cell kinds. */
    static constexpr std::uint8_t kKindSource =
        static_cast<std::uint8_t>(CellKind::kNumKinds);
    static constexpr std::uint8_t kKindSink = kKindSource + 1;
    static constexpr std::uint8_t kNumExecKinds = kKindSink + 1;

    explicit CompiledNetlist(Simulator &sim);

    /** Adopt a sealed structure shared with other simulators; this
     *  instance allocates only the mutable per-sim state. */
    CompiledNetlist(Simulator &sim,
                    std::shared_ptr<const NetStructure> structure);

    CompiledNetlist(const CompiledNetlist &) = delete;
    CompiledNetlist &operator=(const CompiledNetlist &) = delete;

    /// @name Lowering (driven by Component registration)
    /// @{

    /** Register a cell; returns its dense id.
     *  @throws std::logic_error once the structure has been sealed
     *          by shareStructure() (or adopted by a replica). */
    std::int32_t addCell(std::string_view name, std::uint8_t kind,
                         int num_inputs, int num_outputs);

    /** Wire src output port to dst input port (fan-out of one).
     *  @throws std::logic_error on a sealed structure. */
    void connect(std::int32_t src, int out_port, std::int32_t dst,
                 int dst_port, Tick wire_delay);

    /** True if the output port already has a destination. */
    bool
    outputConnected(std::int32_t id, int out_port) const
    {
        return conn(id, out_port).dst >= 0;
    }

    /**
     * Finish the lowering: refresh the per-cell fault-target bitmask
     * cache against the simulator's current fault configuration, and
     * capture the post-compile state snapshot (first freeze after a
     * structural change) that restoreState() rewinds to. Idempotent
     * and cheap when nothing changed; Simulator::run() calls it
     * before executing, so the compiled path is always the one that
     * runs.
     */
    void freeze();

    /**
     * Seal the structure and return it for sharing with replica
     * simulators (Simulator's structure-adopting constructor).
     * Further addCell/connect calls on any simulator using this
     * structure throw std::logic_error — replicas would see the
     * mutation.
     */
    std::shared_ptr<const NetStructure> shareStructure();

    /** The structure (shared or exclusively owned). */
    const std::shared_ptr<const NetStructure> &structure() const
    {
        return struct_;
    }

    /// @}
    /// @name Name table
    /// @{

    std::size_t numCells() const { return struct_->kind.size(); }
    std::size_t numConnections() const
    {
        return struct_->live_conns;
    }

    /** Instance name of a cell: a view into the name arena, valid
     *  until the next addCell on this structure. */
    std::string_view
    cellName(std::int32_t id) const
    {
        const std::size_t i = checkId(id);
        const NetStructure &st = *struct_;
        const std::uint32_t begin = i != 0 ? st.name_end[i - 1] : 0;
        return {st.names.data() + begin, st.name_end[i] - begin};
    }

    /** Dense id for an instance name; -1 if unknown. Duplicate names
     *  (legal, discouraged) resolve to the first registration. A
     *  linear scan: lookups are set-up work, so lowering keeps no
     *  name index. */
    std::int32_t cellId(std::string_view name) const;

    /// @}
    /// @name SoA state access (used by the cell facades and tests)
    /// @{

    /** One-bit storage state: NDRO flux, TFF phase, DFF latch,
     *  SFQDC output level. */
    bool stateBit(std::int32_t id) const
    {
        return state_[checkId(id)] != 0;
    }

    /** Recorded pulse trace of a probe cell (PulseSink / SFQDC). */
    const std::vector<Tick> &
    trace(std::int32_t id) const
    {
        const std::int32_t slot = struct_->trace_slot[checkId(id)];
        sushi_assert(slot >= 0);
        return traces_[static_cast<std::size_t>(slot)];
    }
    std::vector<Tick> &
    traceMut(std::int32_t id)
    {
        const std::int32_t slot = struct_->trace_slot[checkId(id)];
        sushi_assert(slot >= 0);
        return traces_[static_cast<std::size_t>(slot)];
    }

    /** Last arrival tick on an input channel (kTickNever if none). */
    Tick
    lastArrival(std::int32_t id, int channel) const
    {
        const std::size_t i = checkId(id);
        sushi_assert(channel >= 0 &&
                     channel < static_cast<int>(struct_->n_in[i]));
        return last_[static_cast<std::size_t>(struct_->in_off[i]) +
                     static_cast<std::size_t>(channel)];
    }

    /// @}
    /// @name Snapshot-fast reset
    /// @{

    /**
     * Rewind the mutable state to the snapshot freeze() captured:
     * storage bits, last-arrival ticks, and keyed-RNG counters are
     * restored by flat array copies (memcpy under the hood) and the
     * probe traces truncated to their snapshot length — no per-cell
     * walk. No-op before the first freeze.
     */
    void restoreState();

    /// @}

    /** Dynamic switching energy implied by a per-kind switch tally
     *  (joules): sum over kinds of count x per-switch energy. */
    double switchEnergyOf(const std::uint64_t counts[]) const;

    /**
     * Execute one pulse arriving on input @p port of cell @p id at
     * the simulator's now(), against its event queue and counters.
     * The inner loop of the simulator.
     */
    void deliver(std::int32_t id, std::int32_t port);

  private:
    // The per-event helpers of deliver(), defined in
    // compiled_netlist.cc and forced inline there, so a delivered
    // pulse costs one call.

    /** Dead-cell / constraint / energy bookkeeping shared by every
     *  library cell. @return false if the pulse must be discarded. */
    [[gnu::always_inline]] inline bool
    arriveCell(std::int32_t id, std::uint8_t kind, int port,
               Tick now);

    /** Emit one pulse out of @p out_port after @p delay. */
    [[gnu::always_inline]] inline void
    emit(std::int32_t id, int out_port, Tick delay, Tick now);

    /** True if the cached fault bitmasks match the live config. */
    bool masksCurrent() const;

    /** The builder-writable structure.
     *  @throws std::logic_error once sealed or adopted. */
    NetStructure &mut();

    std::size_t
    checkId(std::int32_t id) const
    {
        sushi_assert(id >= 0 && static_cast<std::size_t>(id) <
                                    struct_->kind.size());
        return static_cast<std::size_t>(id);
    }

    const OutConn &
    conn(std::int32_t id, int out_port) const
    {
        const std::size_t i = checkId(id);
        sushi_assert(out_port >= 0 &&
                     static_cast<std::size_t>(out_port) <
                         connCount(i));
        return struct_
            ->conns[static_cast<std::size_t>(struct_->out_off[i]) +
                    static_cast<std::size_t>(out_port)];
    }

    std::size_t
    connCount(std::size_t i) const
    {
        const std::size_t end = i + 1 < struct_->out_off.size()
            ? static_cast<std::size_t>(struct_->out_off[i + 1])
            : struct_->conns.size();
        return end - static_cast<std::size_t>(struct_->out_off[i]);
    }

    Simulator &sim_;

    // The structural half: owned exclusively while building, possibly
    // shared (and then immutable) afterwards. mut_ aliases struct_
    // while this instance may still lower cells into it.
    std::shared_ptr<const NetStructure> struct_;
    NetStructure *mut_ = nullptr;

    // Mutable per-simulator state (indexed by dense cell id).
    std::vector<std::uint8_t> state_;
    std::vector<Tick> last_;            ///< per-channel last arrival
    std::vector<std::uint32_t> rng_ctr_; ///< keyed fault-draw counters
    std::deque<std::vector<Tick>> traces_; ///< stable refs for probes

    // Post-compile snapshot for restoreState().
    std::vector<std::uint8_t> snap_state_;
    std::vector<Tick> snap_last_;
    std::vector<std::uint32_t> snap_rng_ctr_;
    std::vector<std::size_t> snap_trace_size_;
    bool snapped_ = false;

    // Per-kind parameter cache (delay, switch energy, Table-1 rules
    // per destination channel).
    Tick kind_delay_[kNumExecKinds];
    double kind_energy_[kNumExecKinds];
    bool kind_has_rules_[kNumExecKinds];
    IncomingRuleSpan kind_rules_[static_cast<std::size_t>(
                                     CellKind::kNumKinds) *
                                 kMaxChannels];

    // Fault lowering: bit s of fault_mask_[i] says fault spec s
    // targets cell i. Rebuilt by freeze() when the configuration
    // version moves; unusable (name fallback) past 64 specs.
    std::vector<std::uint64_t> fault_mask_;
    std::uint64_t fault_cfg_version_ = ~std::uint64_t{0};
    bool fault_masks_usable_ = false;
};

} // namespace sushi::sfq

#endif // SUSHI_SFQ_COMPILED_NETLIST_HH
