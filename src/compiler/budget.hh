/**
 * @file
 * Chip resource budgets and typed compiler errors.
 *
 * Table 2 gives the realizability envelope of one chip: total JJ
 * count and die area for the fabric, plus the 2^sc_per_npe state
 * budget per NPE. `ChipBudget` carries those caps; `BudgetReport` is
 * the cost model's roll-up of a (sub)network against them. The
 * default caps (`ChipBudget::tableDefaults`) are the actual fabric
 * cost from `fabric::designPoint` — Table 2-calibrated — plus a
 * weight/preload bank allowance sized so the paper's flagship
 * 784-800-10 model fits a single 16x16 chip (see DESIGN.md Sec 4.12
 * for the Table 2 -> budget mapping).
 */

#ifndef SUSHI_COMPILER_BUDGET_HH
#define SUSHI_COMPILER_BUDGET_HH

#include <stdexcept>
#include <string>

namespace sushi::compiler {

/**
 * Typed compile-entry error. Unlike `sushi_fatal` (which exits) these
 * are thrown so serving layers can reject a bad model or an
 * unrealizable plan without taking the process down.
 */
class CompileError : public std::runtime_error
{
  public:
    enum class Kind
    {
        BadChipConfig,  ///< n <= 0, sc_per_npe out of [1, 30], ...
        BadBudget,      ///< negative/zero caps handed to the driver
        BudgetOverflow, ///< model cannot fit the allowed chips
        EmptyNetwork,   ///< network with no layers
        AllNpesFailed,  ///< degraded-mode remap with no healthy slot
    };

    CompileError(Kind kind, const std::string &what)
        : std::runtime_error(what), kind_(kind)
    {}

    Kind kind() const noexcept { return kind_; }

    /** Stable name for logs/tests ("BadChipConfig", ...). */
    static const char *kindName(Kind kind);

  private:
    Kind kind_;
};

/** Per-chip resource caps the compiler plans against. */
struct ChipBudget
{
    /** Total JJs one chip may carry (fabric + resident model). */
    long jj_cap = 0;
    /** Die area cap, mm^2. */
    double area_cap_mm2 = 0.0;
    /** SC bits per NPE (state budget 2^sc_per_npe). */
    int sc_per_npe = 10;

    /**
     * Default caps for an @p n wide mesh: the design's own fabric
     * cost plus a banked-storage allowance of 2560*n^2 synapse bits
     * and 4*n^2 neuron preload words (the flagship 784-800-10 model
     * fills ~97 % of the n = 16 allowance).
     */
    static ChipBudget tableDefaults(int n, int sc_per_npe);
};

/** Cost roll-up of a (sub)network against one chip's budget. */
struct BudgetReport
{
    /** The caps this report was checked against. */
    ChipBudget budget{};

    /** Mesh fabric cost (crosspoints, NPEs, wiring). */
    long fabric_jjs = 0;
    double fabric_area_mm2 = 0.0;

    /** Resident model cost (weight bank + preload bank). */
    long model_jjs = 0;
    double model_area_mm2 = 0.0;

    /** Synapse count rolled into model_jjs. */
    long synapses = 0;

    /** Max over layers of the scheduled state range (informational:
     *  overflow shows up as disabled neurons, not a hard failure). */
    int required_states = 0;

    long totalJjs() const { return fabric_jjs + model_jjs; }
    double totalAreaMm2() const
    {
        return fabric_area_mm2 + model_area_mm2;
    }

    /** Utilisation fractions against the caps (0 when uncapped). */
    double jjUtilisation() const;
    double areaUtilisation() const;

    bool fitsJjs() const { return totalJjs() <= budget.jj_cap; }
    bool fitsArea() const
    {
        return totalAreaMm2() <= budget.area_cap_mm2;
    }
    /** Hard realizability: JJ and area caps both respected. */
    bool fits() const { return fitsJjs() && fitsArea(); }
};

} // namespace sushi::compiler

#endif // SUSHI_COMPILER_BUDGET_HH
