#include "compiler/multichip.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "common/union_find.hh"

namespace sushi::compiler {

double
MultiChipPlan::maxJjUtilisation() const
{
    double u = 0.0;
    for (const auto &s : stages)
        u = std::max(u, s->net.budget.jjUtilisation());
    return u;
}

long
MultiChipPlan::crossChipWires() const
{
    long w = 0;
    for (const auto &c : cuts)
        w += c.wires;
    return w;
}

long
MultiChipPlan::cutTrafficPerStep() const
{
    long p = 0;
    for (const auto &c : cuts)
        p += c.est_pulses_per_step;
    return p;
}

StageSplit
splitLayersUnderBudget(const std::vector<LayerCost> &costs,
                       const std::vector<int> &boundary_wires,
                       const CostModel &model,
                       const ChipBudget &budget, int max_chips)
{
    const int n_layers = static_cast<int>(costs.size());
    if (n_layers == 0)
        throw CompileError(CompileError::Kind::EmptyNetwork,
                           "cannot split an empty network");
    sushi_assert(boundary_wires.size() == costs.size());

    // Every layer starts as its own component; contract boundaries
    // heaviest-traffic-first (then by index for determinism) while
    // the merged component still fits one chip. Only adjacent
    // components ever merge, so components stay contiguous layer
    // intervals by construction.
    std::vector<int> parent(costs.size());
    std::iota(parent.begin(), parent.end(), 0);
    std::vector<long> comp_jjs(costs.size());
    std::vector<double> comp_area(costs.size());
    for (std::size_t i = 0; i < costs.size(); ++i) {
        comp_jjs[i] = costs[i].totalJjs();
        comp_area[i] = costs[i].totalAreaMm2();
    }

    std::vector<int> order(
        static_cast<std::size_t>(std::max(0, n_layers - 1)));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return boundary_wires[static_cast<std::size_t>(a)] >
               boundary_wires[static_cast<std::size_t>(b)];
    });

    const long fabric_jjs = model.fabricJjs();
    const double fabric_area = model.fabricAreaMm2();
    for (int b : order) {
        const int ra = findRoot(parent, b);
        const int rb = findRoot(parent, b + 1);
        if (ra == rb)
            continue;
        const long merged_jjs =
            comp_jjs[static_cast<std::size_t>(ra)] +
            comp_jjs[static_cast<std::size_t>(rb)];
        const double merged_area =
            comp_area[static_cast<std::size_t>(ra)] +
            comp_area[static_cast<std::size_t>(rb)];
        if (fabric_jjs + merged_jjs > budget.jj_cap ||
            fabric_area + merged_area > budget.area_cap_mm2)
            continue;
        parent[static_cast<std::size_t>(rb)] = ra;
        comp_jjs[static_cast<std::size_t>(ra)] = merged_jjs;
        comp_area[static_cast<std::size_t>(ra)] = merged_area;
    }

    StageSplit split;
    int begin = 0;
    for (int i = 1; i <= n_layers; ++i) {
        if (i < n_layers &&
            findRoot(parent, i) == findRoot(parent, begin))
            continue;
        split.stages.push_back(Block{begin, i});
        if (i < n_layers) {
            InterChipCut cut;
            cut.boundary_layer = i - 1;
            cut.wires =
                boundary_wires[static_cast<std::size_t>(i - 1)];
            cut.est_pulses_per_step = cut.wires;
            cut.wire_indices.resize(
                static_cast<std::size_t>(cut.wires));
            std::iota(cut.wire_indices.begin(),
                      cut.wire_indices.end(), 0);
            split.cuts.push_back(cut);
        }
        begin = i;
    }

    // Ordering guarantee for NoC packet schedules: cuts ascending by
    // boundary layer, wire lists ascending by index. Both hold by
    // construction above; the sorts pin the contract against future
    // traversal-order changes.
    std::sort(split.cuts.begin(), split.cuts.end(),
              [](const InterChipCut &a, const InterChipCut &b) {
                  return a.boundary_layer < b.boundary_layer;
              });
    for (auto &cut : split.cuts)
        std::sort(cut.wire_indices.begin(), cut.wire_indices.end());

    // A stage that still overflows can only be a single layer the
    // contraction could never have merged — the model is not
    // realizable on this chip at any split.
    for (const auto &st : split.stages) {
        const BudgetReport r = model.rollUp(
            costs, static_cast<std::size_t>(st.begin),
            static_cast<std::size_t>(st.end), budget);
        if (!r.fits())
            throw CompileError(
                CompileError::Kind::BudgetOverflow,
                "layer " + std::to_string(st.begin) + " needs " +
                    std::to_string(r.totalJjs()) + " JJs / " +
                    std::to_string(r.totalAreaMm2()) +
                    " mm^2 alone, over the per-chip cap of " +
                    std::to_string(budget.jj_cap) + " JJs / " +
                    std::to_string(budget.area_cap_mm2) + " mm^2");
    }
    if (static_cast<int>(split.stages.size()) > max_chips)
        throw CompileError(
            CompileError::Kind::BudgetOverflow,
            "model needs " + std::to_string(split.stages.size()) +
                " chips, over the plan limit of " +
                std::to_string(max_chips));
    return split;
}

} // namespace sushi::compiler
