#include "compiler/compile.hh"

#include <string>

#include "common/logging.hh"
#include "compiler/driver.hh"

namespace sushi::compiler {

long
CompiledNetwork::totalReloads() const
{
    long total = 0;
    for (const auto &layer : layers)
        total += layer.switch_reloads;
    return total;
}

long
CompiledNetwork::disabledNeurons() const
{
    long total = 0;
    for (const auto &layer : layers)
        for (auto d : layer.disabled)
            total += d;
    return total;
}

NpeRemap
planNpeRemap(int n, const std::vector<std::uint8_t> &failed_slots)
{
    sushi_assert(n >= 1);
    sushi_assert(failed_slots.size() == static_cast<std::size_t>(n));
    NpeRemap plan;
    plan.host.resize(static_cast<std::size_t>(n));
    std::vector<int> healthy;
    for (int s = 0; s < n; ++s) {
        if (failed_slots[static_cast<std::size_t>(s)])
            ++plan.failed;
        else
            healthy.push_back(s);
    }
    if (healthy.empty())
        throw CompileError(CompileError::Kind::AllNpesFailed,
                           "all " + std::to_string(n) +
                               " output NPE slots failed: the mesh "
                               "cannot run in degraded mode");
    int next = 0;
    for (int s = 0; s < n; ++s) {
        if (!failed_slots[static_cast<std::size_t>(s)]) {
            plan.host[static_cast<std::size_t>(s)] = s;
            continue;
        }
        // Round-robin the failed slot's neurons over healthy hosts.
        plan.host[static_cast<std::size_t>(s)] =
            healthy[static_cast<std::size_t>(next)];
        next = (next + 1) % static_cast<int>(healthy.size());
    }
    plan.extra_passes =
        (plan.failed + static_cast<int>(healthy.size()) - 1) /
        static_cast<int>(healthy.size());
    return plan;
}

CompiledNetwork
compileNetwork(const snn::BinarySnn &net, const ChipConfig &chip)
{
    return CompilerDriver(DriverOptions::legacy())
        .compileSingle(net, chip);
}

} // namespace sushi::compiler
