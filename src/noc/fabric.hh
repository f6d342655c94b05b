/**
 * @file
 * The deterministic discrete-event mesh fabric.
 *
 * Model (per time step of the SNN): every cut's packet is injected
 * at cycle 0 of the step and walks its XY route link by link —
 *
 *  - NIC backpressure: a packet larger than the bounded NIC queue
 *    stalls one cycle per flit over capacity before injection
 *    (credit-based flow control: past the queue's credits, flits
 *    proceed at the credit-return rate);
 *  - per link: the packet waits until the link is free (head-of-line
 *    stall cycles, counted per link), then occupies it for
 *    ceil(flits / bandwidth) serialization cycles and arrives after
 *    the link's propagation latency;
 *  - packets within a step are processed in a fixed schedule order
 *    (host ingress, cuts by index, host egress), sharing link
 *    occupancy state, so route overlap shows up as HOL stalls.
 *
 * The step's added latency is the slowest packet's completion cycle;
 * the NocClock accumulates it across steps. Everything is a pure
 * function of (topology, config, packet schedule) with no host-time
 * or RNG input, so fabric counters compose with the engine's
 * virtual-clock determinism contract: any run replays byte-
 * identically at any thread count.
 */

#ifndef SUSHI_NOC_FABRIC_HH
#define SUSHI_NOC_FABRIC_HH

#include <cstdint>
#include <vector>

#include "noc/packet.hh"
#include "noc/topology.hh"

namespace sushi::noc {

/** NoC model knobs (EngineConfig::noc). */
struct NocConfig
{
    /** Route multi-chip cut traffic over the modelled fabric. Off
     *  (the default) keeps the ideal zero-cost transport,
     *  bit-identical to the historical engine path. */
    bool enabled = false;

    /** Mesh dimensions; 0 auto-sizes to the smallest near-square
     *  mesh holding every plan stage. */
    int mesh_width = 0;
    int mesh_height = 0;

    /** Propagation cycles per link hop. */
    int link_latency_cycles = 1;

    /** Flits a link accepts per cycle (serialization rate). */
    int link_bandwidth_flits = 16;

    /** Bounded NIC queue depth in flits (credit window). */
    int nic_queue_flits = 64;

    /** Spike-packet serialization geometry. */
    int flit_payload_bits = 64;
    int entry_bits = 32;

    /** Model the host ingress (into stage 0) and egress (out of the
     *  last stage) ports at the host node's NIC, not just the
     *  inter-stage cuts. */
    bool model_host_ports = true;

    /** Fabric cycle period (50 GHz board-level SFQ clock); must be
     *  finite and positive. */
    double cycle_ps = 20.0;

    PacketFormat packetFormat() const
    {
        return PacketFormat{flit_payload_bits, entry_bits};
    }
};

/**
 * Virtual fabric clock: cycles accumulated across steps of one
 * sample, converted to modelled picoseconds for InferenceStats.
 */
struct NocClock
{
    std::uint64_t cycles = 0;
    double cycle_ps = 20.0;

    double ps() const
    {
        return static_cast<double>(cycles) * cycle_ps;
    }
};

/** Per-link congestion counters, accumulated over one sample. */
struct LinkCounters
{
    std::uint64_t flits = 0;            ///< flits carried
    std::uint64_t busy_cycles = 0;      ///< serialization occupancy
    std::uint64_t hol_stall_cycles = 0; ///< waits behind busy link
};

/** The fabric simulator. */
class NocFabric
{
  public:
    NocFabric(const MeshTopology &topo, const NocConfig &cfg);

    const MeshTopology &topology() const { return topo_; }
    const NocClock &clock() const { return clock_; }

    /** Forget all per-sample state (clock, counters, step state). */
    void resetSample();

    /** Open one SNN time step: link occupancy restarts at cycle 0. */
    void beginStep();

    /**
     * Send @p flits along @p route within the open step.
     * @return the packet's completion cycle within the step.
     */
    std::uint64_t send(const std::vector<int> &route,
                       std::uint64_t flits);

    /** Close the step: fold its makespan into the clock. */
    void endStep();

    /// @name Sample-scope counters.
    /// @{
    std::uint64_t packets() const { return packets_; }
    std::uint64_t totalFlits() const { return total_flits_; }
    std::uint64_t flitHops() const { return flit_hops_; }
    std::uint64_t holStallCycles() const { return hol_stalls_; }
    std::uint64_t backpressureStalls() const
    {
        return backpressure_stalls_;
    }
    /** Heaviest per-step flit load any single link saw. */
    std::uint64_t maxStepLinkFlits() const
    {
        return max_step_link_flits_;
    }
    const LinkCounters &link(int id) const
    {
        return links_[static_cast<std::size_t>(id)];
    }
    /** Worst link's busy fraction of the accumulated clock. */
    double maxLinkUtilisation() const;
    /// @}

  private:
    MeshTopology topo_;
    NocConfig cfg_;
    NocClock clock_;

    std::vector<LinkCounters> links_;
    /** Cycle each link frees up within the open step. */
    std::vector<std::uint64_t> free_at_;
    /** Flits each link carried within the open step. */
    std::vector<std::uint64_t> step_flits_;
    std::uint64_t step_makespan_ = 0;
    bool step_open_ = false;

    std::uint64_t packets_ = 0;
    std::uint64_t total_flits_ = 0;
    std::uint64_t flit_hops_ = 0;
    std::uint64_t hol_stalls_ = 0;
    std::uint64_t backpressure_stalls_ = 0;
    std::uint64_t max_step_link_flits_ = 0;
};

} // namespace sushi::noc

#endif // SUSHI_NOC_FABRIC_HH
