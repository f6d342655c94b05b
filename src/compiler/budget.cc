#include "compiler/budget.hh"

#include "compiler/cost_model.hh"

namespace sushi::compiler {

const char *
CompileError::kindName(Kind kind)
{
    switch (kind) {
      case Kind::BadChipConfig:
        return "BadChipConfig";
      case Kind::BadBudget:
        return "BadBudget";
      case Kind::BudgetOverflow:
        return "BudgetOverflow";
      case Kind::EmptyNetwork:
        return "EmptyNetwork";
      case Kind::AllNpesFailed:
        return "AllNpesFailed";
    }
    return "Unknown";
}

double
BudgetReport::jjUtilisation() const
{
    if (budget.jj_cap <= 0)
        return 0.0;
    return static_cast<double>(totalJjs()) /
           static_cast<double>(budget.jj_cap);
}

double
BudgetReport::areaUtilisation() const
{
    if (budget.area_cap_mm2 <= 0.0)
        return 0.0;
    return totalAreaMm2() / budget.area_cap_mm2;
}

ChipBudget
ChipBudget::tableDefaults(int n, int sc_per_npe)
{
    // The fabric side is the design's own Table 2-calibrated cost;
    // the bank allowance scales with the crosspoint count (n^2), so
    // larger meshes are allowed proportionally larger resident
    // models. 2560 synapse bits and 4 preload words per crosspoint
    // put the flagship 784-800-10 model at ~97 % of the n = 16 JJ
    // cap — one chip, little to spare, exactly the Table 2 story.
    const long bank_synapses = 2560L * n * n;
    const long bank_neurons = 4L * n * n;
    ChipBudget b;
    b.sc_per_npe = sc_per_npe;
    const FabricCost fabric = fabricCost(n);
    b.jj_cap = fabric.jjs +
               bank_synapses * synapseBitCost().jjs +
               bank_neurons * sc_per_npe * preloadBitCost().jjs;
    b.area_cap_mm2 =
        fabric.area_mm2 +
        bank_synapses * synapseBitCost().area_mm2 +
        bank_neurons * sc_per_npe * preloadBitCost().area_mm2;
    return b;
}

} // namespace sushi::compiler
