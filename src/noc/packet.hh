/**
 * @file
 * Spike-packet format: how one time step's activations crossing an
 * inter-chip cut serialize into link flits.
 *
 * A packet carries the nonzero pulse counts of one activation
 * vector, as (wire index, count) entries in ascending wire order —
 * the deterministic order guaranteed by `InterChipCut`'s sorted wire
 * list, so the flit schedule of a rebuilt plan is byte-stable. Every
 * packet pays one header flit (cut id, time step, entry count); the
 * payload packs `entry_bits`-wide entries into `flit_payload_bits`
 * flits. An all-silent step still sends the header — the downstream
 * stage needs the step boundary either way.
 */

#ifndef SUSHI_NOC_PACKET_HH
#define SUSHI_NOC_PACKET_HH

#include <cstdint>
#include <span>

namespace sushi::noc {

/** Serialization geometry of the spike-packet format. */
struct PacketFormat
{
    /** Payload bits per flit. */
    int flit_payload_bits = 64;
    /** Bits per (wire index, pulse count) entry. */
    int entry_bits = 32;

    /** Entries one flit carries (at least one). */
    int entriesPerFlit() const;

    /** Flits for @p entries payload entries, header included. */
    std::uint64_t flitsFor(std::uint64_t entries) const;

    /**
     * Worst-case flits of a cut carrying @p wires lines (every wire
     * fires): the per-step link demand the scaling bench compares
     * bandwidth against.
     */
    std::uint64_t worstCaseFlits(int wires) const;
};

/** Flit accounting of one serialized activation vector. */
struct PacketSize
{
    std::uint64_t entries = 0; ///< nonzero wires
    std::uint64_t flits = 0;   ///< header + payload flits
};

/** Serialize @p act (per-wire pulse counts) under @p format. */
PacketSize packetOf(std::span<const std::uint16_t> act,
                    const PacketFormat &format);

} // namespace sushi::noc

#endif // SUSHI_NOC_PACKET_HH
