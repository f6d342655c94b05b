#include "noc/fabric.hh"

#include <algorithm>
#include <cmath>

namespace sushi::noc {

NocFabric::NocFabric(const MeshTopology &topo, const NocConfig &cfg)
    : topo_(topo), cfg_(cfg)
{
    if (cfg_.link_latency_cycles < 0)
        throw NocError("link latency must be non-negative");
    if (cfg_.link_bandwidth_flits <= 0)
        throw NocError("link bandwidth must be positive");
    if (cfg_.nic_queue_flits <= 0)
        throw NocError("NIC queue depth must be positive");
    if (!(std::isfinite(cfg_.cycle_ps) && cfg_.cycle_ps > 0.0))
        throw NocError("cycle time must be finite and positive");
    clock_.cycle_ps = cfg_.cycle_ps;
    links_.assign(static_cast<std::size_t>(topo_.numLinks()),
                  LinkCounters{});
    free_at_.assign(links_.size(), 0);
    step_flits_.assign(links_.size(), 0);
}

void
NocFabric::resetSample()
{
    clock_.cycles = 0;
    std::fill(links_.begin(), links_.end(), LinkCounters{});
    std::fill(free_at_.begin(), free_at_.end(), 0);
    std::fill(step_flits_.begin(), step_flits_.end(), 0);
    step_makespan_ = 0;
    step_open_ = false;
    packets_ = 0;
    total_flits_ = 0;
    flit_hops_ = 0;
    hol_stalls_ = 0;
    backpressure_stalls_ = 0;
    max_step_link_flits_ = 0;
}

void
NocFabric::beginStep()
{
    std::fill(free_at_.begin(), free_at_.end(), 0);
    std::fill(step_flits_.begin(), step_flits_.end(), 0);
    step_makespan_ = 0;
    step_open_ = true;
}

std::uint64_t
NocFabric::send(const std::vector<int> &route, std::uint64_t flits)
{
    if (!step_open_)
        throw NocError("send outside an open step");
    const auto bandwidth =
        static_cast<std::uint64_t>(cfg_.link_bandwidth_flits);
    const auto queue =
        static_cast<std::uint64_t>(cfg_.nic_queue_flits);

    // Credit-based NIC backpressure: flits past the queue window
    // each wait one cycle for a returned credit.
    const std::uint64_t over = flits > queue ? flits - queue : 0;
    backpressure_stalls_ += over;
    std::uint64_t t = over;

    for (const int id : route) {
        const auto l = static_cast<std::size_t>(id);
        const std::uint64_t start = std::max(t, free_at_[l]);
        const std::uint64_t stall = start - t;
        links_[l].hol_stall_cycles += stall;
        hol_stalls_ += stall;
        const std::uint64_t serialize =
            (flits + bandwidth - 1) / bandwidth;
        free_at_[l] = start + serialize;
        links_[l].busy_cycles += serialize;
        links_[l].flits += flits;
        step_flits_[l] += flits;
        flit_hops_ += flits;
        t = start + serialize +
            static_cast<std::uint64_t>(cfg_.link_latency_cycles);
    }

    ++packets_;
    total_flits_ += flits;
    step_makespan_ = std::max(step_makespan_, t);
    return t;
}

void
NocFabric::endStep()
{
    if (!step_open_)
        throw NocError("endStep without an open step");
    clock_.cycles += step_makespan_;
    for (const std::uint64_t f : step_flits_)
        max_step_link_flits_ = std::max(max_step_link_flits_, f);
    step_open_ = false;
}

double
NocFabric::maxLinkUtilisation() const
{
    if (clock_.cycles == 0)
        return 0.0;
    std::uint64_t busiest = 0;
    for (const LinkCounters &l : links_)
        busiest = std::max(busiest, l.busy_cycles);
    return static_cast<double>(busiest) /
           static_cast<double>(clock_.cycles);
}

} // namespace sushi::noc
