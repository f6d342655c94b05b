#include "sfq/netlist.hh"

#include <new>
#include <string>
#include <type_traits>

#include "common/logging.hh"

namespace sushi::sfq {

namespace {

/** Netlist::fanout over @p dsts; @p name is the running instance
 *  prefix, extended in place and restored before returning. */
void
fanoutTree(Netlist &net, std::string &name, Component &src,
           int out_port, std::span<const PortRef> dsts,
           int jtl_per_hop)
{
    sushi_assert(!dsts.empty());
    if (dsts.size() == 1) {
        net.connectWire(src, out_port, *dsts[0].first, dsts[0].second,
                        jtl_per_hop);
        return;
    }
    // Binary splitter tree: split the destination list in half and
    // recurse; each split point is one SPL.
    const std::size_t len = name.size();
    Spl &spl = net.makeSpl(name.append(".spl"));
    name.resize(len);
    net.connectWire(src, out_port, spl, 0, jtl_per_hop);
    const std::size_t mid = dsts.size() / 2;
    fanoutTree(net, name.append(".l"), spl, 0, dsts.first(mid),
               jtl_per_hop);
    name.resize(len);
    fanoutTree(net, name.append(".r"), spl, 1, dsts.subspan(mid),
               jtl_per_hop);
    name.resize(len);
}

/** Netlist::mergeTree over @p srcs, with fanoutTree's name buffer. */
void
mergeTreeInto(Netlist &net, std::string &name,
              std::span<const PortRef> srcs, Component &dst,
              int dst_port, int jtl_per_hop)
{
    sushi_assert(!srcs.empty());
    if (srcs.size() == 1) {
        net.connectWire(*srcs[0].first, srcs[0].second, dst, dst_port,
                        jtl_per_hop);
        return;
    }
    const std::size_t len = name.size();
    Cb &cb = net.makeCb(name.append(".cb"));
    name.resize(len);
    const std::size_t mid = srcs.size() / 2;
    mergeTreeInto(net, name.append(".l"), srcs.first(mid), cb, 0,
                  jtl_per_hop);
    name.resize(len);
    mergeTreeInto(net, name.append(".r"), srcs.subspan(mid), cb, 1,
                  jtl_per_hop);
    name.resize(len);
    net.connectWire(cb, 0, dst, dst_port, jtl_per_hop);
}

} // namespace

ResourceTally &
ResourceTally::operator+=(const ResourceTally &other)
{
    logic_jjs += other.logic_jjs;
    wiring_jjs += other.wiring_jjs;
    logic_area_um2 += other.logic_area_um2;
    wiring_area_um2 += other.wiring_area_um2;
    for (std::size_t i = 0; i < cells_by_kind.size(); ++i)
        cells_by_kind[i] += other.cells_by_kind[i];
    return *this;
}

template <typename T>
T &
Netlist::place(std::string_view name)
{
    // The arena releases its memory without running destructors.
    static_assert(std::is_trivially_destructible_v<T>);
    void *mem = arena_.allocate(sizeof(T), alignof(T));
    T &cell = *::new (mem) T(sim_, name);
    ++num_cells_;
    return cell;
}

template <typename T>
T &
Netlist::addCell(std::string_view name, CellKind kind)
{
    T &cell = place<T>(name);
    accountCell(kind, /*wiring=*/kind == CellKind::JTL);
    return cell;
}

void
Netlist::accountCell(CellKind kind, bool wiring)
{
    const CellParams &p = cellParams(kind);
    ++tally_.cells_by_kind[static_cast<std::size_t>(kind)];
    if (wiring) {
        tally_.wiring_jjs += p.jjs;
        tally_.wiring_area_um2 += p.jjs * wiringAreaPerJj();
    } else {
        tally_.logic_jjs += p.jjs;
        tally_.logic_area_um2 += p.area_um2;
    }
}

Jtl &
Netlist::makeJtl(std::string_view name)
{
    return addCell<Jtl>(name, CellKind::JTL);
}

Spl &
Netlist::makeSpl(std::string_view name)
{
    return addCell<Spl>(name, CellKind::SPL);
}

Spl3 &
Netlist::makeSpl3(std::string_view name)
{
    return addCell<Spl3>(name, CellKind::SPL3);
}

Cb &
Netlist::makeCb(std::string_view name)
{
    return addCell<Cb>(name, CellKind::CB);
}

Cb3 &
Netlist::makeCb3(std::string_view name)
{
    return addCell<Cb3>(name, CellKind::CB3);
}

Dff &
Netlist::makeDff(std::string_view name)
{
    return addCell<Dff>(name, CellKind::DFF);
}

Ndro &
Netlist::makeNdro(std::string_view name)
{
    return addCell<Ndro>(name, CellKind::NDRO);
}

Tffl &
Netlist::makeTffl(std::string_view name)
{
    return addCell<Tffl>(name, CellKind::TFFL);
}

Tffr &
Netlist::makeTffr(std::string_view name)
{
    return addCell<Tffr>(name, CellKind::TFFR);
}

DcSfq &
Netlist::makeDcSfq(std::string_view name)
{
    return addCell<DcSfq>(name, CellKind::DCSFQ);
}

SfqDc &
Netlist::makeSfqDc(std::string_view name)
{
    return addCell<SfqDc>(name, CellKind::SFQDC);
}

PulseSource &
Netlist::makeSource(std::string_view name)
{
    return place<PulseSource>(name); // IO pads carry no resources
}

PulseSink &
Netlist::makeSink(std::string_view name)
{
    return place<PulseSink>(name);
}

void
Netlist::connectWire(Component &src, int out_port,
                     Component &dst, int in_port, int jtl_stages)
{
    sushi_assert(jtl_stages >= 0);
    const CellParams &jtl = cellParams(CellKind::JTL);
    const Tick delay = jtl_stages * jtl.delay;
    src.connect(out_port, dst, in_port, delay);
    tally_.wiring_jjs += static_cast<long>(jtl_stages) * jtl.jjs;
    tally_.wiring_area_um2 +=
        static_cast<double>(jtl_stages) * jtl.jjs * wiringAreaPerJj();
    tally_.cells_by_kind[static_cast<std::size_t>(CellKind::JTL)] +=
        jtl_stages;
}

void
Netlist::makeJtlChain(std::string_view name, Component &src,
                      int out_port, Component &dst, int in_port,
                      int stages)
{
    sushi_assert(stages >= 1);
    Component *prev = &src;
    int prev_port = out_port;
    CellNamer n(name);
    for (int i = 0; i < stages; ++i) {
        Jtl &j = makeJtl(n(".jtl", i));
        // The chain's JTLs are wiring, but makeJtl accounted them as
        // wiring already via the kind check.
        prev->connect(prev_port, j, 0, 0);
        prev = &j;
        prev_port = 0;
    }
    prev->connect(prev_port, dst, in_port, 0);
}

void
Netlist::fanout(std::string_view name, Component &src, int out_port,
                std::span<const PortRef> dsts, int jtl_per_hop)
{
    std::string buf(name);
    fanoutTree(*this, buf, src, out_port, dsts, jtl_per_hop);
}

void
Netlist::mergeTree(std::string_view name, std::span<const PortRef> srcs,
                   Component &dst, int dst_port, int jtl_per_hop)
{
    std::string buf(name);
    mergeTreeInto(*this, buf, srcs, dst, dst_port, jtl_per_hop);
}

void
Netlist::addWiringOverhead(int jjs)
{
    sushi_assert(jjs >= 0);
    tally_.wiring_jjs += jjs;
    tally_.wiring_area_um2 += jjs * wiringAreaPerJj();
}

void
Netlist::addLogicOverhead(int jjs)
{
    sushi_assert(jjs >= 0);
    tally_.logic_jjs += jjs;
    tally_.logic_area_um2 += jjs * cellParams(CellKind::JTL).area_um2 /
                             cellParams(CellKind::JTL).jjs * 1.0;
}

} // namespace sushi::sfq
