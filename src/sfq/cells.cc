#include "sfq/cells.hh"

namespace sushi::sfq {

Cell::Cell(Simulator &sim, std::string_view name, CellKind kind,
           int num_inputs, int num_outputs)
    : Component(sim, name, num_inputs, num_outputs,
                static_cast<std::uint8_t>(kind)),
      kind_(kind)
{
}

Jtl::Jtl(Simulator &sim, std::string_view name)
    : Cell(sim, name, CellKind::JTL, 1, 1)
{
}

Spl::Spl(Simulator &sim, std::string_view name)
    : Cell(sim, name, CellKind::SPL, 1, 2)
{
}

Spl3::Spl3(Simulator &sim, std::string_view name)
    : Cell(sim, name, CellKind::SPL3, 1, 3)
{
}

Cb::Cb(Simulator &sim, std::string_view name)
    : Cell(sim, name, CellKind::CB, 2, 1)
{
}

Cb3::Cb3(Simulator &sim, std::string_view name)
    : Cell(sim, name, CellKind::CB3, 3, 1)
{
}

Dff::Dff(Simulator &sim, std::string_view name)
    : Cell(sim, name, CellKind::DFF, 2, 1)
{
}

Ndro::Ndro(Simulator &sim, std::string_view name)
    : Cell(sim, name, CellKind::NDRO, 3, 1)
{
}

Tffl::Tffl(Simulator &sim, std::string_view name)
    : Cell(sim, name, CellKind::TFFL, 1, 1)
{
}

Tffr::Tffr(Simulator &sim, std::string_view name)
    : Cell(sim, name, CellKind::TFFR, 1, 1)
{
}

DcSfq::DcSfq(Simulator &sim, std::string_view name)
    : Cell(sim, name, CellKind::DCSFQ, 1, 1)
{
}

SfqDc::SfqDc(Simulator &sim, std::string_view name)
    : Cell(sim, name, CellKind::SFQDC, 1, 0)
{
}

} // namespace sushi::sfq
