/**
 * @file
 * Netlist builder with resource accounting.
 *
 * A Netlist owns every cell of a gate-level design, hands out typed
 * factory methods, and keeps a running tally of Josephson junctions
 * and area, split into *logic* (functional cells) and *wiring* (JTL
 * interconnect) — the split the paper reports in Table 2.
 *
 * Interconnect is modelled as JTL chains: connectWire() accounts the
 * requested number of JTL stages (JJs, area, delay) without paying
 * the event-processing cost of simulating each stage individually.
 * makeJtlChain() builds real stage-by-stage chains when cell-accurate
 * wire behaviour is wanted (tests, waveform studies).
 */

#ifndef SUSHI_SFQ_NETLIST_HH
#define SUSHI_SFQ_NETLIST_HH

#include <array>
#include <charconv>
#include <memory_resource>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "sfq/cells.hh"
#include "sfq/simulator.hh"

namespace sushi::sfq {

/** JJ / area tally of a design, split by purpose. */
struct ResourceTally
{
    long logic_jjs = 0;
    long wiring_jjs = 0;
    double logic_area_um2 = 0.0;
    double wiring_area_um2 = 0.0;
    std::array<long, static_cast<std::size_t>(CellKind::kNumKinds)>
        cells_by_kind{};

    long totalJjs() const { return logic_jjs + wiring_jjs; }
    double totalAreaUm2() const
    {
        return logic_area_um2 + wiring_area_um2;
    }
    double totalAreaMm2() const { return totalAreaUm2() * 1e-6; }
    double wiringFraction() const
    {
        const long t = totalJjs();
        return t ? static_cast<double>(wiring_jjs) /
                       static_cast<double>(t)
                 : 0.0;
    }

    ResourceTally &operator+=(const ResourceTally &other);
};

/**
 * Composes instance names in one reused buffer: n(".sc", i) returns
 * "<prefix>.sc<i>". The view stays valid until the next call, which
 * is all Netlist::make* needs (they copy the name into the compiled
 * core's name arena).
 */
class CellNamer
{
  public:
    explicit CellNamer(std::string_view prefix = {})
        : buf_(prefix), len_(buf_.size())
    {
    }

    /** The prefix followed by every part (strings and ints). */
    template <typename... Parts>
    std::string_view
    operator()(const Parts &...parts)
    {
        buf_.resize(len_);
        (append(parts), ...);
        return buf_;
    }

  private:
    void append(std::string_view s) { buf_ += s; }

    void
    append(int v)
    {
        char digits[12];
        const auto r = std::to_chars(digits, digits + sizeof digits, v);
        buf_.append(digits, r.ptr);
    }

    std::string buf_;
    std::size_t len_;
};

/** One (component, port) end of a fan-out or merge tree. */
using PortRef = std::pair<Component *, int>;

/**
 * Owns the cells of one gate-level design. The cell facades live in a
 * monotonic arena (one bump allocation each, freed with the netlist;
 * facades are trivially destructible), and their names in the
 * compiled core's name arena.
 */
class Netlist
{
  public:
    explicit Netlist(Simulator &sim) : sim_(sim) {}

    Netlist(const Netlist &) = delete;
    Netlist &operator=(const Netlist &) = delete;

    /// @name Cell factories (each registers resources as logic).
    /// @{
    Jtl &makeJtl(std::string_view name);
    Spl &makeSpl(std::string_view name);
    Spl3 &makeSpl3(std::string_view name);
    Cb &makeCb(std::string_view name);
    Cb3 &makeCb3(std::string_view name);
    Dff &makeDff(std::string_view name);
    Ndro &makeNdro(std::string_view name);
    Tffl &makeTffl(std::string_view name);
    Tffr &makeTffr(std::string_view name);
    DcSfq &makeDcSfq(std::string_view name);
    SfqDc &makeSfqDc(std::string_view name);
    PulseSource &makeSource(std::string_view name);
    PulseSink &makeSink(std::string_view name);
    /// @}

    /**
     * Connect @p src output @p out_port to @p dst input @p in_port
     * through @p jtl_stages of interconnect. The stages are accounted
     * as wiring JJs and contribute their propagation delay, but are
     * not instantiated as separate components.
     */
    void connectWire(Component &src, int out_port,
                     Component &dst, int in_port, int jtl_stages = 0);

    /**
     * Build an explicit chain of @p stages JTL cells between two
     * ports (each stage is a simulated component). Accounted as
     * wiring.
     */
    void makeJtlChain(std::string_view name, Component &src,
                      int out_port, Component &dst, int in_port,
                      int stages);

    /**
     * Build a splitter tree distributing @p src output @p out_port to
     * every (component, port) in @p dsts. RSFQ fan-out is one, so a
     * fan-out of N costs N-1 SPL cells (accounted as logic) plus
     * @p jtl_per_hop wiring stages on every tree edge.
     */
    void fanout(std::string_view name, Component &src, int out_port,
                std::span<const PortRef> dsts, int jtl_per_hop = 0);

    /**
     * Build a confluence-buffer merge tree combining every source in
     * @p srcs onto @p dst input @p dst_port. A merge of N sources
     * costs N-1 CB cells (logic) plus @p jtl_per_hop wiring stages
     * per tree edge. Sources must keep their pulses spaced per
     * Table 1; the SUSHI encoder guarantees that.
     */
    void mergeTree(std::string_view name, std::span<const PortRef> srcs,
                   Component &dst, int dst_port, int jtl_per_hop = 0);

    /** Account extra wiring JJs that are not on any modelled path
     *  (e.g. track crossings: a crossing costs twice the width of the
     *  original transmission line, Sec. 4.2.2). */
    void addWiringOverhead(int jjs);

    /** Account extra logic JJs for structures carried by the design
     *  but not behaviourally modelled (e.g. the per-synapse weight
     *  configuration addressing cells). */
    void addLogicOverhead(int jjs);

    /** Resource tally of everything built so far. */
    const ResourceTally &resources() const { return tally_; }

    /**
     * Freeze the design into the simulator's compiled core and
     * return it. Every cell is already lowered at construction; this
     * completes the pass (fault-mask caches) and hands back the flat
     * representation for inspection. Simulator::run() freezes
     * implicitly, so calling this is optional but documents intent.
     */
    const CompiledNetlist &
    compile()
    {
        sim_.core().freeze();
        return sim_.core();
    }

    /** Owning simulator. */
    Simulator &sim() { return sim_; }

    /** Number of owned components. */
    std::size_t numComponents() const { return num_cells_; }

  private:
    /** Construct a facade in the arena. */
    template <typename T> T &place(std::string_view name);

    /** place() plus resource accounting (library cells). */
    template <typename T>
    T &addCell(std::string_view name, CellKind kind);

    void accountCell(CellKind kind, bool wiring);

    Simulator &sim_;
    std::pmr::monotonic_buffer_resource arena_;
    std::size_t num_cells_ = 0;
    ResourceTally tally_;
};

} // namespace sushi::sfq

#endif // SUSHI_SFQ_NETLIST_HH
