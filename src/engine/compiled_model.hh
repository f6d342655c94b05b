/**
 * @file
 * The shared compiled-model artifact.
 *
 * Compiling a binarized SSNN (bit-slicing, bucketing, scheduling,
 * preload computation) is pure and deterministic in the network and
 * chip geometry, so a replica pool must do it exactly once: every
 * SushiChip replica executes the same immutable CompiledModel. The
 * artifact owns its BinarySnn — compiler::CompiledNetwork points
 * back into the network it was compiled from, so the two must live
 * (and die) together; CompiledModel pins both behind one
 * shared_ptr and is neither copyable nor movable.
 *
 * A model compiled through a budget-enforcing DriverOptions preset
 * may come out as a multi-chip plan: stageCount() > 1, each stage an
 * immutable per-chip CompiledNetwork owning its own layer range (the
 * plan's ChipStage keeps the subnet alive behind a shared_ptr). The
 * engine pins each stage to one chip of a replica group and chains
 * them per time step.
 */

#ifndef SUSHI_ENGINE_COMPILED_MODEL_HH
#define SUSHI_ENGINE_COMPILED_MODEL_HH

#include <memory>
#include <optional>

#include "compiler/compile.hh"
#include "compiler/driver.hh"
#include "snn/binarize.hh"

namespace sushi::engine {

/** An immutable, shareable compile artifact. */
class CompiledModel
{
  public:
    /** Compile @p net for @p chip and wrap the result (the legacy
     *  single-chip driver preset, bit-identical to the historical
     *  compiler; always one stage). */
    static std::shared_ptr<const CompiledModel>
    compile(snn::BinarySnn net, const compiler::ChipConfig &chip);

    /**
     * Compile through an explicit driver preset. A budget-enforcing
     * preset may split the model into a multi-chip plan; throws
     * compiler::CompileError when the model cannot be realized.
     */
    static std::shared_ptr<const CompiledModel>
    compile(snn::BinarySnn net, const compiler::ChipConfig &chip,
            const compiler::DriverOptions &options);

    CompiledModel(const CompiledModel &) = delete;
    CompiledModel &operator=(const CompiledModel &) = delete;

    const snn::BinarySnn &network() const { return net_; }

    /** The single-chip artifact; asserts stageCount() == 1. */
    const compiler::CompiledNetwork &compiled() const;

    const compiler::ChipConfig &chip() const;

    /** Chips the plan needs (1 for every legacy-compiled model). */
    int stageCount() const;
    bool multiChip() const { return stageCount() > 1; }

    /** Compiled artifact of stage @p s (0 <= s < stageCount()). */
    const compiler::CompiledNetwork &stageNet(int s) const;

    /** The multi-chip plan, or nullptr for legacy-compiled models. */
    const compiler::MultiChipPlan *plan() const
    {
        return plan_ ? &*plan_ : nullptr;
    }

  private:
    struct Key
    {
    }; // make_shared needs a public ctor; Key keeps it internal

  public:
    CompiledModel(Key, snn::BinarySnn net,
                  const compiler::ChipConfig &chip);
    CompiledModel(Key, snn::BinarySnn net,
                  const compiler::ChipConfig &chip,
                  const compiler::DriverOptions &options);

  private:
    snn::BinarySnn net_;
    /** Legacy single-chip artifact (unused when plan_ is set). */
    compiler::CompiledNetwork compiled_;
    /** Driver-preset plan (set by the options overload). */
    std::optional<compiler::MultiChipPlan> plan_;
};

} // namespace sushi::engine

#endif // SUSHI_ENGINE_COMPILED_MODEL_HH
