#include "sfq/component.hh"

#include "common/logging.hh"

namespace sushi::sfq {

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
    sushi_assert(out_port >= 0 && out_port < num_outputs_);
    sushi_assert(dst_port >= 0 && dst_port < dst.numInputs());
    if (sim_.core().outputConnected(id_, out_port)) {
        sushi_fatal("%.*s output %d already driven; RSFQ fan-out is "
                    "1 — insert an SPL",
                    static_cast<int>(name().size()), name().data(),
                    out_port);
    }
    sim_.core().connect(id_, out_port, dst.id_, dst_port, wire_delay);
}

bool
Component::outputConnected(int out_port) const
{
    sushi_assert(out_port >= 0 && out_port < num_outputs_);
    return sim_.core().outputConnected(id_, out_port);
}

void
Component::inject(int port, Tick when)
{
    sushi_assert(port >= 0 && port < num_inputs_);
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

void
PulseSource::pulseTrain(const std::vector<Tick> &times)
{
    for (Tick t : times)
        pulseAt(t);
}

} // namespace sushi::sfq
