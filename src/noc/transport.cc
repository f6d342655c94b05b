#include "noc/transport.hh"

#include <algorithm>

namespace sushi::noc {

namespace {

std::vector<CutTraffic>
edgesOf(const compiler::MultiChipPlan &plan)
{
    std::vector<CutTraffic> edges;
    edges.reserve(plan.cuts.size());
    for (std::size_t c = 0; c < plan.cuts.size(); ++c)
        edges.push_back(CutTraffic{static_cast<int>(c),
                                   static_cast<int>(c) + 1,
                                   plan.cuts[c].wires});
    return edges;
}

} // namespace

NocTransport::NocTransport(const compiler::MultiChipPlan &plan,
                           const NocConfig &cfg)
    : cfg_(cfg), format_(cfg.packetFormat()),
      placement_(placeStages(plan.numChips(), edgesOf(plan),
                             cfg.mesh_width, cfg.mesh_height)),
      fabric_(MeshTopology(placement_.width, placement_.height),
              cfg)
{
    const MeshTopology &topo = fabric_.topology();
    routes_.reserve(plan.cuts.size());
    for (std::size_t c = 0; c < plan.cuts.size(); ++c) {
        routes_.push_back(topo.route(
            placement_.stage_node[c], placement_.stage_node[c + 1]));
        worst_case_cut_flits_ = std::max(
            worst_case_cut_flits_,
            format_.worstCaseFlits(plan.cuts[c].wires));
    }
    ingress_route_ = topo.route(placement_.host_node,
                                placement_.stage_node.front());
    egress_route_ = topo.route(placement_.stage_node.back(),
                               placement_.host_node);
    cut_flits_.assign(routes_.size(), 0);
}

std::uint64_t
NocTransport::worstCaseCutFlits() const
{
    return worst_case_cut_flits_;
}

void
NocTransport::beginSample()
{
    fabric_.resetSample();
    std::fill(cut_flits_.begin(), cut_flits_.end(), 0);
}

void
NocTransport::beginStep()
{
    fabric_.beginStep();
}

void
NocTransport::sendPacket(const std::vector<int> &route,
                         std::uint64_t entries, std::uint64_t *cut_counter)
{
    const std::uint64_t flits = format_.flitsFor(entries);
    fabric_.send(route, flits);
    if (cut_counter != nullptr)
        *cut_counter += flits;
}

void
NocTransport::hostIngress(std::span<const std::uint16_t> act)
{
    if (cfg_.model_host_ports)
        sendPacket(ingress_route_, packetOf(act, format_).entries,
                   nullptr);
}

void
NocTransport::hostIngress(std::uint64_t entries)
{
    if (cfg_.model_host_ports)
        sendPacket(ingress_route_, entries, nullptr);
}

void
NocTransport::transferCut(int cut, std::span<const std::uint16_t> act)
{
    transferCut(cut, packetOf(act, format_).entries);
}

void
NocTransport::transferCut(int cut, std::uint64_t entries)
{
    if (cut < 0 || cut >= cuts())
        throw NocError("cut " + std::to_string(cut) +
                       " outside the plan's " +
                       std::to_string(cuts()) + " cuts");
    sendPacket(routes_[static_cast<std::size_t>(cut)], entries,
               &cut_flits_[static_cast<std::size_t>(cut)]);
}

void
NocTransport::hostEgress(std::span<const std::uint16_t> act)
{
    if (cfg_.model_host_ports)
        sendPacket(egress_route_, packetOf(act, format_).entries,
                   nullptr);
}

void
NocTransport::endStep()
{
    fabric_.endStep();
}

NocSampleStats
NocTransport::finishSample()
{
    NocSampleStats stats;
    stats.packets = fabric_.packets();
    stats.flits = fabric_.totalFlits();
    stats.flit_hops = fabric_.flitHops();
    stats.hol_stall_cycles = fabric_.holStallCycles();
    stats.backpressure_stalls = fabric_.backpressureStalls();
    stats.latency_cycles = fabric_.clock().cycles;
    stats.max_step_link_flits = fabric_.maxStepLinkFlits();
    stats.latency_ps = fabric_.clock().ps();
    stats.max_link_utilisation = fabric_.maxLinkUtilisation();
    stats.cut_flits = cut_flits_;
    return stats;
}

} // namespace sushi::noc
