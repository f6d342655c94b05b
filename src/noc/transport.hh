/**
 * @file
 * NocTransport: a MultiChipPlan's stages behind NIC adapters on the
 * mesh fabric.
 *
 * One transport instance models one replica group's board: the
 * placement pass pins every `ChipStage` to a mesh node, routes are
 * precomputed (host -> stage 0, stage s -> stage s+1 per cut, last
 * stage -> host), and each SNN time step serializes the crossing
 * activation vectors into spike packets through the shared fabric.
 *
 * The transport never touches the activation payload — it only
 * charges modelled cycles and counts congestion — so spike results
 * over the NoC are bit-identical to the ideal transport by
 * construction; only latency/energy-class statistics change. Each
 * sample starts from a reset fabric (beginSample), so a sample's
 * transport stats are independent of its shard position, exactly
 * like the chip's per-sample stats contract.
 */

#ifndef SUSHI_NOC_TRANSPORT_HH
#define SUSHI_NOC_TRANSPORT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "compiler/multichip.hh"
#include "noc/fabric.hh"
#include "noc/placement.hh"

namespace sushi::noc {

/** One sample's transport totals (the InferenceStats payload). */
struct NocSampleStats
{
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
    std::uint64_t flit_hops = 0;
    std::uint64_t hol_stall_cycles = 0;
    std::uint64_t backpressure_stalls = 0;
    std::uint64_t latency_cycles = 0;
    /** Heaviest per-step flit load any link saw (gauge). */
    std::uint64_t max_step_link_flits = 0;
    double latency_ps = 0.0;
    double max_link_utilisation = 0.0;
    /** Flits per plan cut (index = cut index). */
    std::vector<std::uint64_t> cut_flits;
};

/** The per-replica NIC/mesh adapter of a multi-chip plan. */
class NocTransport
{
  public:
    NocTransport(const compiler::MultiChipPlan &plan,
                 const NocConfig &cfg);

    const Placement &placement() const { return placement_; }
    const MeshTopology &topology() const
    {
        return fabric_.topology();
    }
    const NocFabric &fabric() const { return fabric_; }
    int cuts() const { return static_cast<int>(routes_.size()); }

    /** Worst-case flits of the plan's heaviest cut (every wire
     *  firing) — the demand figure the bandwidth sweep compares
     *  against. */
    std::uint64_t worstCaseCutFlits() const;

    /// @name Per-sample protocol (mirrors the chip's frame loop).
    /// @{
    void beginSample();
    void beginStep();
    /** Host input frame into stage 0's NIC. */
    void hostIngress(std::span<const std::uint16_t> act);
    /** The same, for a frame of @p entries active wires (the packet
     *  entries packetOf would count). */
    void hostIngress(std::uint64_t entries);
    /** Activations crossing plan cut @p cut (stage cut -> cut+1). */
    void transferCut(int cut, std::span<const std::uint16_t> act);
    /** The same, for @p entries non-zero wires. */
    void transferCut(int cut, std::uint64_t entries);
    /** Final-stage outputs back to the host NIC. */
    void hostEgress(std::span<const std::uint16_t> act);
    void endStep();
    /** Close the sample and return its transport totals. */
    NocSampleStats finishSample();
    /// @}

  private:
    void sendPacket(const std::vector<int> &route, std::uint64_t entries,
                    std::uint64_t *cut_counter);

    NocConfig cfg_;
    PacketFormat format_;
    Placement placement_;
    NocFabric fabric_;
    std::vector<std::vector<int>> routes_; ///< per cut
    std::vector<int> ingress_route_;       ///< host -> stage 0
    std::vector<int> egress_route_;        ///< last stage -> host
    std::vector<std::uint64_t> cut_flits_;
    std::uint64_t worst_case_cut_flits_ = 0;
};

} // namespace sushi::noc

#endif // SUSHI_NOC_TRANSPORT_HH
