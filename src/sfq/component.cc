#include "sfq/component.hh"

#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace sushi::sfq {

namespace {

/** Throw std::out_of_range unless 0 <= @p port < @p count. */
void
checkPort(std::string_view cell, const char *what, int port,
          int count)
{
    if (port < 0 || port >= count)
        throw std::out_of_range(
            std::string(cell) + ": " + what + " " +
            std::to_string(port) + " outside [0, " +
            std::to_string(count) + ")");
}

} // namespace

Component::Component(Simulator &sim, std::string_view name,
                     int num_inputs, int num_outputs,
                     std::uint8_t exec_kind)
    : sim_(sim),
      id_(sim.core().addCell(name, exec_kind, num_inputs, num_outputs)),
      num_inputs_(num_inputs), num_outputs_(num_outputs)
{
    sushi_assert(num_inputs >= 0 && num_outputs >= 0);
}

void
Component::connect(int out_port, Component &dst, int dst_port,
                   Tick wire_delay)
{
    checkPort(name(), "output", out_port, num_outputs_);
    checkPort(dst.name(), "input", dst_port, dst.numInputs());
    if (sim_.core().outputConnected(id_, out_port))
        throw std::invalid_argument(
            std::string(name()) + " output " +
            std::to_string(out_port) +
            " already driven; RSFQ fan-out is 1 — insert an SPL");
    sim_.core().connect(id_, out_port, dst.id_, dst_port, wire_delay);
}

bool
Component::outputConnected(int out_port) const
{
    checkPort(name(), "output", out_port, num_outputs_);
    return sim_.core().outputConnected(id_, out_port);
}

void
Component::inject(int port, Tick when)
{
    checkPort(name(), "input", port, num_inputs_);
    sim_.schedulePulse(when, id_, port);
}

PulseSink::PulseSink(Simulator &sim, std::string_view name)
    : Component(sim, name, 1, 0,
                CompiledNetlist::kKindSink)
{
}

PulseSource::PulseSource(Simulator &sim, std::string_view name)
    : Component(sim, name, 0, 1,
                CompiledNetlist::kKindSource)
{
}

void
PulseSource::pulseAt(Tick when)
{
    // A source firing is an event targeting the source cell itself;
    // delivery emits through output 0 (port is ignored).
    sim_.schedulePulse(when, id_, 0);
}

} // namespace sushi::sfq
