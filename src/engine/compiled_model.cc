#include "engine/compiled_model.hh"

#include "common/logging.hh"

namespace sushi::engine {

CompiledModel::CompiledModel(Key, snn::BinarySnn net,
                             const compiler::ChipConfig &chip)
    : net_(std::move(net)),
      compiled_(compiler::compileNetwork(net_, chip))
{
}

CompiledModel::CompiledModel(Key, snn::BinarySnn net,
                             const compiler::ChipConfig &chip,
                             const compiler::DriverOptions &options)
    : net_(std::move(net)),
      plan_(compiler::CompilerDriver(options).compilePlan(net_,
                                                          chip))
{
}

const compiler::CompiledNetwork &
CompiledModel::compiled() const
{
    sushi_assert(stageCount() == 1);
    return stageNet(0);
}

const compiler::ChipConfig &
CompiledModel::chip() const
{
    return plan_ ? plan_->chip : compiled_.chip;
}

int
CompiledModel::stageCount() const
{
    return plan_ ? plan_->numChips() : 1;
}

const compiler::CompiledNetwork &
CompiledModel::stageNet(int s) const
{
    if (plan_) {
        sushi_assert(s >= 0 && s < plan_->numChips());
        return plan_->stages[static_cast<std::size_t>(s)]->net;
    }
    sushi_assert(s == 0);
    return compiled_;
}

std::shared_ptr<const CompiledModel>
CompiledModel::compile(snn::BinarySnn net,
                       const compiler::ChipConfig &chip)
{
    return std::make_shared<CompiledModel>(Key{}, std::move(net),
                                           chip);
}

std::shared_ptr<const CompiledModel>
CompiledModel::compile(snn::BinarySnn net,
                       const compiler::ChipConfig &chip,
                       const compiler::DriverOptions &options)
{
    return std::make_shared<CompiledModel>(Key{}, std::move(net),
                                           chip, options);
}

} // namespace sushi::engine
