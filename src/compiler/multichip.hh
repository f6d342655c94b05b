/**
 * @file
 * Multi-chip plans: splitting a model whose resident cost overflows
 * one chip's budget across several chips.
 *
 * The layer chain is cut at layer boundaries only (a dense layer is
 * never split — a single layer that overflows a whole chip is a hard
 * `BudgetOverflow`). The splitter is a union-find contraction
 * (`common/union_find.hh`): every boundary starts cut, then
 * boundaries are contracted heaviest-traffic-first (a cut at a wide
 * activation boundary costs the most inter-chip wiring) whenever the
 * merged component still fits one chip's budget. The surviving cuts
 * become the explicit inter-chip wire lists the NoC work (ROADMAP
 * item 2) will route.
 */

#ifndef SUSHI_COMPILER_MULTICHIP_HH
#define SUSHI_COMPILER_MULTICHIP_HH

#include <memory>
#include <vector>

#include "compiler/compile.hh"
#include "compiler/cost_model.hh"
#include "snn/binarize.hh"

namespace sushi::compiler {

/**
 * One surviving cut between adjacent chip stages.
 *
 * Ordering guarantee (the NoC packet schedule depends on it):
 * `MultiChipPlan::cuts` is sorted ascending by boundary_layer, and
 * each cut's wire_indices list is sorted ascending — both invariants
 * are enforced by construction in splitLayersUnderBudget, so packet
 * serialization order is byte-stable across plan rebuilds.
 */
struct InterChipCut
{
    /** Global index of the layer *producing* the crossing
     *  activations; the cut sits after this layer. */
    int boundary_layer = 0;
    /** Activation lines crossing the cut (producer outDim). */
    int wires = 0;
    /** Worst-case pulses per time step across the cut (binary
     *  activations: one pulse per wire). */
    long est_pulses_per_step = 0;
    /** The crossing activation lines in the producer's index space,
     *  ascending — the order spike-packet entries serialize in. */
    std::vector<int> wire_indices;
};

/**
 * One chip's share of the plan. Held behind a shared_ptr so the
 * `CompiledNetwork::net` pointer into the stage's own subnet stays
 * stable for the lifetime of the plan.
 */
struct ChipStage
{
    /** Global index of the first layer on this chip. */
    int first_layer = 0;
    int num_layers = 0;
    /** The stage's own copy of its layer range. */
    snn::BinarySnn subnet;
    /** Compiled artifact; `net.net == &subnet`. */
    CompiledNetwork net;

    ChipStage() = default;
    ChipStage(const ChipStage &) = delete;
    ChipStage &operator=(const ChipStage &) = delete;
};

/** The compiler's multi-chip output. */
struct MultiChipPlan
{
    ChipConfig chip;
    /** Per-chip caps every stage was planned against. */
    ChipBudget budget;
    std::vector<std::shared_ptr<const ChipStage>> stages;
    /** Cuts between adjacent stages (size stages - 1). */
    std::vector<InterChipCut> cuts;

    int numChips() const { return static_cast<int>(stages.size()); }

    /** Worst per-chip JJ utilisation across stages. */
    double maxJjUtilisation() const;

    /** Total activation wires crossing chip boundaries. */
    long crossChipWires() const;

    /** Total worst-case pulses per time step across all cuts (the
     *  compiler's own traffic estimate the NoC tests cross-check
     *  observed flit counts against). */
    long cutTrafficPerStep() const;
};

/** Layer index ranges of a budget split, before stage compilation. */
struct StageSplit
{
    /** Contiguous [begin, end) layer ranges, in network order. */
    std::vector<Block> stages;
    std::vector<InterChipCut> cuts;
};

/**
 * Partition layers into the fewest contiguous chip stages the
 * contraction heuristic finds under @p budget. @p boundary_wires
 * holds outDim of each layer (boundary b carries boundary_wires[b]
 * wires). Throws CompileError{BudgetOverflow} when a single layer
 * overflows one chip or the split needs more than @p max_chips.
 */
StageSplit splitLayersUnderBudget(
    const std::vector<LayerCost> &costs,
    const std::vector<int> &boundary_wires, const CostModel &model,
    const ChipBudget &budget, int max_chips);

} // namespace sushi::compiler

#endif // SUSHI_COMPILER_MULTICHIP_HH
