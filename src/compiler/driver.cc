#include "compiler/driver.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace sushi::compiler {

void
validateChipConfig(const ChipConfig &chip)
{
    if (chip.n <= 0)
        throw CompileError(
            CompileError::Kind::BadChipConfig,
            "mesh width must be positive, got n = " +
                std::to_string(chip.n));
    if (chip.sc_per_npe <= 0 || chip.sc_per_npe > 30)
        throw CompileError(
            CompileError::Kind::BadChipConfig,
            "sc_per_npe must be in [1, 30], got " +
                std::to_string(chip.sc_per_npe));
    if (chip.bucketing.bucket_size <= 0)
        throw CompileError(
            CompileError::Kind::BadChipConfig,
            "bucket_size must be positive, got " +
                std::to_string(chip.bucketing.bucket_size));
}

void
buildLayerTables(const snn::BinaryLayer &layer, CompiledLayer &out)
{
    const std::size_t in_dim = layer.inDim();
    const std::size_t n_out = layer.outDim();

    // Kernel order: each bucket's inputs ascending, in the bucket's
    // own range; a position no bucket covers keeps its input.
    std::vector<int> input(out.schedule.order);
    for (const Block &bucket : out.schedule.buckets)
        std::sort(input.begin() + bucket.begin, input.begin() + bucket.end);
    out.position.assign(in_dim, 0);
    out.natural_order = true;
    for (std::size_t k = 0; k < in_dim; ++k) {
        out.position[static_cast<std::size_t>(input[k])] =
            static_cast<std::uint32_t>(k);
        out.natural_order &= input[k] == static_cast<int>(k);
    }

    const std::size_t words = (in_dim + 63) / 64;
    out.neg_masks = MaskTable(n_out, words);
    ColumnTable &cols = out.columns;
    cols = ColumnTable{};
    const std::size_t chunks =
        (n_out + ColumnTable::kChunk - 1) / ColumnTable::kChunk;
    // The kernel addresses columns by 32-bit byte offsets.
    if (n_out >= ColumnTable::kMinNeurons &&
        in_dim * chunks * 64 < (std::uint64_t{1} << 32)) {
        cols.chunks = chunks;
        cols.lines.assign(in_dim * chunks * 8, 0);
    }
    for (std::size_t o = 0; o < n_out; ++o) {
        const auto &w = layer.weights[o];
        const std::size_t c = o / ColumnTable::kChunk;
        const std::size_t word = o % ColumnTable::kChunk / 64;
        for (std::size_t k = 0; k < in_dim; ++k) {
            if (w[static_cast<std::size_t>(input[k])] >= 0)
                continue;
            out.neg_masks.set(o, k);
            if (!cols.empty())
                cols.lines[(k * chunks + c) * 8 + word] |=
                    std::uint64_t{1} << (o % 64);
        }
    }
    if (cols.empty())
        return;

    const std::size_t lanes = cols.chunks * ColumnTable::kChunk;
    cols.enabled.assign(cols.chunks * 8, 0);
    AlignedVector<std::uint64_t> start(lanes, 0);
    std::uint64_t max_start = 0;
    for (std::size_t o = 0; o < n_out; ++o) {
        if (out.disabled[o])
            continue;
        cols.enabled[o / 64] |= std::uint64_t{1} << (o % 64);
        start[o] = out.preload[o] +
                   static_cast<std::uint64_t>(out.bias_pulses[o]);
        max_start = std::max(max_start, start[o]);
    }
    // Every counter quantity is at most the start plus the layer's
    // pulses (<= 65,535 per input) plus one wrap of 2^K.
    cols.lanes32 =
        max_start + in_dim * 65535 +
            static_cast<std::uint64_t>(out.range.state_budget) <
        (std::uint64_t{1} << 32);
    if (cols.lanes32)
        cols.start32.assign(start.begin(), start.end());
    else
        cols.start64 = std::move(start);
}

CompilerDriver::CompilerDriver(DriverOptions options)
    : options_(std::move(options))
{}

ChipBudget
CompilerDriver::resolveBudget(const ChipConfig &chip) const
{
    ChipBudget b = options_.budget;
    if (b.jj_cap < 0 || b.area_cap_mm2 < 0.0)
        throw CompileError(
            CompileError::Kind::BadBudget,
            "budget caps must be positive (0 = use table defaults): "
            "jj_cap = " +
                std::to_string(b.jj_cap) + ", area_cap_mm2 = " +
                std::to_string(b.area_cap_mm2));
    if (b.jj_cap == 0 || b.area_cap_mm2 == 0.0) {
        const ChipBudget def =
            ChipBudget::tableDefaults(chip.n, chip.sc_per_npe);
        if (b.jj_cap == 0)
            b.jj_cap = def.jj_cap;
        if (b.area_cap_mm2 == 0.0)
            b.area_cap_mm2 = def.area_cap_mm2;
    }
    b.sc_per_npe = chip.sc_per_npe;
    return b;
}

namespace {

/** One evaluated schedule candidate from the schedule pass. */
struct ScheduleCandidate
{
    BucketingConfig cfg;
    LayerSchedule schedule;
    StateRangeReport range;
    bool bucketed = false;
};

ScheduleCandidate
evaluateCandidate(const snn::BinaryLayer &layer,
                  const BucketingConfig &cfg, bool bucketed)
{
    ScheduleCandidate c;
    c.cfg = cfg;
    c.bucketed = bucketed;
    c.schedule = scheduleLayer(layer, cfg);
    c.range = analyzeStateRange(layer, c.schedule, cfg);
    return c;
}

/** Place pass: preloads, bias pulses and the tables over the chosen
 *  schedule (unchanged from the historical compileLayer). */
void
placeLayer(const snn::BinaryLayer &layer, const ChipConfig &chip,
           CompiledLayer &out)
{
    const std::uint64_t budget = std::uint64_t{1} << chip.sc_per_npe;
    const std::size_t n_out = layer.outDim();
    out.preload.resize(n_out, 0);
    out.bias_pulses.resize(n_out, 0);
    out.disabled.resize(n_out, 0);
    for (std::size_t o = 0; o < n_out; ++o) {
        const int theta = layer.thresholds[o];
        // Thresholds <= 0 must still be able to fire: deliver bias
        // pulses so the effective threshold is at least 1.
        const int bias = std::max(0, 1 - theta);
        const int eff = theta + bias; // >= 1
        if (static_cast<std::uint64_t>(eff) >= budget) {
            // Cannot be represented: the neuron never fires.
            out.disabled[o] = 1;
            continue;
        }
        out.bias_pulses[o] = bias;
        out.preload[o] = budget - static_cast<std::uint64_t>(eff);
    }

    buildLayerTables(layer, out);
}

} // namespace

CompiledLayer
CompilerDriver::compileLayerPasses(const snn::BinaryLayer &layer,
                                   const ChipConfig &chip) const
{
    CompiledLayer out;
    BucketingConfig bcfg = chip.bucketing;
    bcfg.state_bits = chip.sc_per_npe;
    bcfg.mesh_width = chip.n;

    // Slice pass.
    out.slices = sliceLayer(static_cast<int>(layer.inDim()),
                            static_cast<int>(layer.outDim()), chip.n);

    // Schedule pass: build the candidate list in the paper's
    // preference order — the exact unbucketed Sec. 5.1 traversal
    // first (inhibitory synapses first, so the counter crosses the
    // threshold at most once), alternating-polarity buckets as the
    // bounded-excursion fallback.
    std::vector<std::pair<BucketingConfig, bool>> cand_cfgs;
    if (bcfg.bucketing) {
        BucketingConfig single = bcfg;
        single.bucketing = false;
        cand_cfgs.emplace_back(single, false);
        cand_cfgs.emplace_back(bcfg, true);
    } else {
        cand_cfgs.emplace_back(bcfg, false);
    }

    if (!options_.score_schedules) {
        // Legacy selection: the first candidate whose state range
        // fits the budget wins; the last is the unconditional
        // fallback. Candidates are evaluated lazily so the compile
        // work matches the historical path exactly.
        ScheduleCandidate chosen;
        for (std::size_t i = 0; i < cand_cfgs.size(); ++i) {
            chosen = evaluateCandidate(layer, cand_cfgs[i].first,
                                       cand_cfgs[i].second);
            const bool fits = chosen.bucketed
                                  ? chosen.range.fits()
                                  : chosen.range.fitsUnbucketed();
            if (fits || i + 1 == cand_cfgs.size())
                break;
        }
        out.schedule = std::move(chosen.schedule);
        out.range = chosen.range;
        out.switch_reloads =
            countReloads(layer, out.schedule, chip.n);
    } else {
        // Cost-aware selection: among fitting candidates take the
        // cheapest reload count (Sec. 4.2.2); when nothing fits,
        // minimise the state overflow instead. Ties keep the
        // paper's preference order.
        std::vector<ScheduleCandidate> cands;
        std::vector<long> reloads;
        for (const auto &[cfg, bucketed] : cand_cfgs) {
            cands.push_back(evaluateCandidate(layer, cfg, bucketed));
            reloads.push_back(
                countReloads(layer, cands.back().schedule, chip.n));
        }
        std::size_t best = 0;
        bool best_fits = cands[0].range.fits();
        for (std::size_t i = 1; i < cands.size(); ++i) {
            const bool fits = cands[i].range.fits();
            const bool better =
                (fits && !best_fits) ||
                (fits == best_fits &&
                 (fits ? reloads[i] < reloads[best]
                       : cands[i].range.required_states <
                             cands[best].range.required_states));
            if (better) {
                best = i;
                best_fits = fits;
            }
        }
        out.schedule = std::move(cands[best].schedule);
        out.range = cands[best].range;
        out.switch_reloads = reloads[best];
    }

    // Place pass.
    placeLayer(layer, chip, out);
    return out;
}

CompiledNetwork
CompilerDriver::compileSingle(const snn::BinarySnn &net,
                              const ChipConfig &chip) const
{
    validateChipConfig(chip);
    const ChipBudget budget = resolveBudget(chip);
    const CostModel model(chip.n, chip.sc_per_npe);

    CompiledNetwork out;
    out.chip = chip;
    out.net = &net;
    std::vector<LayerCost> costs;
    costs.reserve(net.layers().size());
    for (const auto &layer : net.layers()) {
        out.layers.push_back(compileLayerPasses(layer, chip));
        costs.push_back(model.layerCost(layer));
    }

    // Budget pass: roll the resident cost up against the caps. The
    // report is always attached; only enforcing presets reject.
    out.budget = model.rollUp(costs, budget);
    for (const auto &layer : out.layers)
        out.budget.required_states =
            std::max(out.budget.required_states,
                     layer.range.required_states);
    out.disabled_count = out.disabledNeurons();
    out.plan_reloads = out.totalReloads();
    if (options_.enforce_budget && !out.budget.fits())
        throw CompileError(
            CompileError::Kind::BudgetOverflow,
            "model needs " + std::to_string(out.budget.totalJjs()) +
                " JJs on one chip, over the cap of " +
                std::to_string(budget.jj_cap) +
                " (use a multi-chip plan)");
    return out;
}

MultiChipPlan
CompilerDriver::compilePlan(const snn::BinarySnn &net,
                            const ChipConfig &chip) const
{
    validateChipConfig(chip);
    if (net.layers().empty())
        throw CompileError(CompileError::Kind::EmptyNetwork,
                           "cannot plan an empty network");
    const ChipBudget budget = resolveBudget(chip);
    const CostModel model(chip.n, chip.sc_per_npe);

    std::vector<LayerCost> costs;
    std::vector<int> wires;
    for (const auto &layer : net.layers()) {
        costs.push_back(model.layerCost(layer));
        wires.push_back(static_cast<int>(layer.outDim()));
    }

    MultiChipPlan plan;
    plan.chip = chip;
    plan.budget = budget;

    StageSplit split;
    const BudgetReport whole = model.rollUp(costs, budget);
    if (!options_.enforce_budget || whole.fits()) {
        split.stages.push_back(
            Block{0, static_cast<int>(net.layers().size())});
    } else if (!options_.allow_multichip) {
        throw CompileError(
            CompileError::Kind::BudgetOverflow,
            "model needs " + std::to_string(whole.totalJjs()) +
                " JJs on one chip, over the cap of " +
                std::to_string(budget.jj_cap) +
                " (multi-chip splitting disabled)");
    } else {
        split = splitLayersUnderBudget(costs, wires, model, budget,
                                       options_.max_chips);
    }

    for (const auto &range : split.stages) {
        auto stage = std::make_shared<ChipStage>();
        stage->first_layer = range.begin;
        stage->num_layers = range.end - range.begin;
        std::vector<snn::BinaryLayer> sub(
            net.layers().begin() + range.begin,
            net.layers().begin() + range.end);
        stage->subnet =
            snn::BinarySnn::fromLayers(std::move(sub), net.tSteps());
        stage->net = compileSingle(stage->subnet, chip);
        plan.stages.push_back(std::move(stage));
    }
    plan.cuts = split.cuts;
    return plan;
}

} // namespace sushi::compiler
