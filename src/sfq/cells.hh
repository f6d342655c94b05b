/**
 * @file
 * The RSFQ standard-cell library (paper Sec. 2.1.2, Fig. 3).
 *
 * Every cell checks its Table-1 input-timing constraints on each
 * arrival and accounts its switching energy to the simulator. Output
 * fan-out is one everywhere (enforced by Component::connect).
 *
 * These classes are construction-time facades: the per-cell behaviour
 * (DFF latch, NDRO flux loop, TFF phase, splitter/confluence routing)
 * executes inside CompiledNetlist::deliver()'s kind switch, and the
 * accessors here read the one-bit storage state back out of the
 * compiled SoA tables.
 */

#ifndef SUSHI_SFQ_CELLS_HH
#define SUSHI_SFQ_CELLS_HH

#include <string_view>
#include <vector>

#include "sfq/cell_params.hh"
#include "sfq/component.hh"
#include "sfq/constraints.hh"

namespace sushi::sfq {

/** Common base of all library cells. */
class Cell : public Component
{
  public:
    Cell(Simulator &sim, std::string_view name, CellKind kind,
         int num_inputs, int num_outputs);

    /** The library cell type. */
    CellKind kind() const { return kind_; }

    /** Convenience: this cell's parameter record. */
    const CellParams &params() const { return cellParams(kind_); }

  private:
    CellKind kind_;
};

/** Josephson transmission line stage: pure unit-delay repeater. */
class Jtl : public Cell
{
  public:
    Jtl(Simulator &sim, std::string_view name);
};

/** 1-to-2 splitter. Ports: in 0 -> out 0 (A), out 1 (B). */
class Spl : public Cell
{
  public:
    Spl(Simulator &sim, std::string_view name);
};

/** 1-to-3 splitter. */
class Spl3 : public Cell
{
  public:
    Spl3(Simulator &sim, std::string_view name);
};

/** 2-to-1 confluence buffer. Inputs 0 (dinA), 1 (dinB) -> out 0. */
class Cb : public Cell
{
  public:
    Cb(Simulator &sim, std::string_view name);
};

/** 3-to-1 confluence buffer. */
class Cb3 : public Cell
{
  public:
    Cb3(Simulator &sim, std::string_view name);
};

/**
 * D flip-flop: destructive-readout storage (Fig. 3(a)(e)).
 * Inputs: 0 din, 1 clk. Output 0: dout.
 * A pulse appears on dout only when both din and clk have arrived;
 * clk releases (destroys) the stored flux.
 */
class Dff : public Cell
{
  public:
    Dff(Simulator &sim, std::string_view name);

    /** True if a flux quantum is currently stored. */
    bool stored() const { return sim_.core().stateBit(id_); }
};

/**
 * Non-destructive readout cell (Fig. 3(b)(f)).
 * Inputs: 0 din (set), 1 rst (reset), 2 clk (read).
 * Output 0: dout — a pulse per clk while the cell holds a 1.
 * Also usable as a configurable switch (paper Sec. 4.1.1): din arms
 * it, clk pulses pass through while armed.
 */
class Ndro : public Cell
{
  public:
    Ndro(Simulator &sim, std::string_view name);

    /** Current stored state. */
    bool state() const { return sim_.core().stateBit(id_); }
};

/**
 * Toggle flip-flop, L variant: emits a pulse on the 0 -> 1 internal
 * flip (paper Sec. 2.1.2 E). Input 0: clk. Output 0: dout.
 */
class Tffl : public Cell
{
  public:
    Tffl(Simulator &sim, std::string_view name);

    bool state() const { return sim_.core().stateBit(id_); }
};

/** Toggle flip-flop, R variant: emits a pulse on the 1 -> 0 flip. */
class Tffr : public Cell
{
  public:
    Tffr(Simulator &sim, std::string_view name);

    bool state() const { return sim_.core().stateBit(id_); }
};

/**
 * DC-to-SFQ converter: the chip input interface. Each call of
 * edge() (a level transition on the room-temperature side) produces
 * one SFQ pulse (Fig. 14 "input" -> "real input").
 */
class DcSfq : public Cell
{
  public:
    DcSfq(Simulator &sim, std::string_view name);

    /** Drive a level edge at absolute time @p when. */
    void edge(Tick when) { inject(0, when); }
};

/**
 * SFQ-to-DC converter: the chip output driver. Every incoming SFQ
 * pulse toggles an output voltage level, which is what an
 * oscilloscope sees (Fig. 14 "output" -> "real output", Fig. 16).
 */
class SfqDc : public Cell
{
  public:
    SfqDc(Simulator &sim, std::string_view name);

    /** Current output level. */
    bool level() const { return sim_.core().stateBit(id_); }

    /** Times of all level toggles so far. */
    const std::vector<Tick> &toggles() const
    {
        return sim_.core().trace(id_);
    }

    /** Number of pulses received (= number of toggles). */
    std::size_t pulseCount() const { return toggles().size(); }
};

} // namespace sushi::sfq

#endif // SUSHI_SFQ_CELLS_HH
