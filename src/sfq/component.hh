/**
 * @file
 * Component facade over the compiled circuit core.
 *
 * An RSFQ design is a directed graph of components; SFQ pulses travel
 * along point-to-point connections. RSFQ cells have a fan-out of one
 * (paper Sec. 2.1.2), so connecting an output that is already driven
 * is rejected — a splitter (SPL) must be inserted instead, exactly as
 * in a real design. Builder mistakes throw; none aborts the process.
 *
 * Since the compiled-core refactor a Component carries no execution
 * state of its own: construction registers the cell into the owning
 * simulator's CompiledNetlist (which allocates its SoA table row and
 * CSR fan-out slots), and every accessor reads back through the dense
 * cell id. Pulse execution never touches this class — the simulator
 * delivers index-addressed events straight into the compiled tables.
 */

#ifndef SUSHI_SFQ_COMPONENT_HH
#define SUSHI_SFQ_COMPONENT_HH

#include <string_view>
#include <vector>

#include "common/time.hh"
#include "sfq/simulator.hh"

namespace sushi::sfq {

/** A handle to one node of the compiled circuit graph. */
class Component
{
  public:
    /**
     * Register a cell with the simulator's compiled core.
     * @throws std::logic_error if @p sim is a replica over a shared
     *         (sealed) structure — replicas cannot grow the circuit.
     * @param sim        owning simulator
     * @param name       instance name (for diagnostics)
     * @param num_inputs number of input ports
     * @param num_outputs number of output ports
     * @param exec_kind  CompiledNetlist execution kind byte (a
     *        CellKind value, or kKindSource / kKindSink)
     */
    Component(Simulator &sim, std::string_view name, int num_inputs,
              int num_outputs, std::uint8_t exec_kind);

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** Instance name (a view into the compiled core's name arena). */
    std::string_view name() const { return sim_.core().cellName(id_); }

    /** Dense id of this cell in the compiled core. */
    std::int32_t cellId() const { return id_; }

    /** Number of input ports. */
    int numInputs() const { return num_inputs_; }

    /**
     * Connect output @p out_port to @p dst input @p dst_port.
     * @param wire_delay extra propagation delay of the interconnect
     *        (e.g. a chain of JTL stages), added to the cell delay.
     * @throws std::out_of_range if either port does not exist;
     *         std::invalid_argument if the output is already
     *         connected (fan-out must be 1); std::logic_error if the
     *         structure is sealed. Nothing is wired on a throw.
     */
    void connect(int out_port, Component &dst, int dst_port,
                 Tick wire_delay = 0);

    /** True if output @p out_port has a destination.
     *  @throws std::out_of_range if the port does not exist. */
    bool outputConnected(int out_port) const;

    /**
     * Inject a pulse into input @p port at absolute time @p when.
     * Used by stimulus generators and netlist primary inputs.
     * @throws std::out_of_range if the port does not exist;
     *         std::invalid_argument if @p when is before now().
     */
    void inject(int port, Tick when);

  protected:
    Simulator &sim_;
    std::int32_t id_;

  private:
    int num_inputs_;
    int num_outputs_;
};

/**
 * Records every pulse arriving at its single input; used as a circuit
 * primary output / probe. The arrival times live in the compiled
 * core's pooled trace storage.
 */
class PulseSink : public Component
{
  public:
    PulseSink(Simulator &sim, std::string_view name);

    /** Arrival times of all recorded pulses, in order. */
    const std::vector<Tick> &pulsesSeen() const
    {
        return sim_.core().trace(id_);
    }

    /** Number of pulses recorded. */
    std::size_t count() const { return pulsesSeen().size(); }

    /** Forget all recorded pulses. */
    void clear() { sim_.core().traceMut(id_).clear(); }
};

/**
 * Drives a pre-programmed pulse train into its single output; used as
 * a circuit primary input.
 */
class PulseSource : public Component
{
  public:
    PulseSource(Simulator &sim, std::string_view name);

    /** Schedule an output pulse at absolute time @p when. */
    void pulseAt(Tick when);
};

} // namespace sushi::sfq

#endif // SUSHI_SFQ_COMPONENT_HH
