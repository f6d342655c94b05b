#include "noc/packet.hh"

#include "noc/topology.hh"

namespace sushi::noc {

int
PacketFormat::entriesPerFlit() const
{
    if (flit_payload_bits <= 0 || entry_bits <= 0)
        throw NocError("packet format needs positive flit and entry "
                       "widths");
    const int per = flit_payload_bits / entry_bits;
    return per > 0 ? per : 1;
}

std::uint64_t
PacketFormat::flitsFor(std::uint64_t entries) const
{
    const auto per = static_cast<std::uint64_t>(entriesPerFlit());
    return 1 + (entries + per - 1) / per;
}

std::uint64_t
PacketFormat::worstCaseFlits(int wires) const
{
    return flitsFor(
        static_cast<std::uint64_t>(wires > 0 ? wires : 0));
}

PacketSize
packetOf(std::span<const std::uint16_t> act, const PacketFormat &format)
{
    // A 32-bit count over 16-bit compares keeps the loop in vector
    // lanes; it cannot overflow for any real activation width.
    std::uint32_t entries = 0;
    for (const std::uint16_t v : act)
        entries += v != 0 ? 1u : 0u;
    PacketSize size;
    size.entries = entries;
    size.flits = format.flitsFor(size.entries);
    return size;
}

} // namespace sushi::noc
