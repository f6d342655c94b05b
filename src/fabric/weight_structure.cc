#include "fabric/weight_structure.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sfq/cell_params.hh"
#include "sfq/constraints.hh"

namespace sushi::fabric {

using sfq::chan::kNdroClk;
using sfq::chan::kNdroDin;
using sfq::chan::kNdroRst;

namespace {

/**
 * JTL stages that delay tap @p i of a structure with @p w_max taps.
 *
 * Computed so every merged pulse is constraint-clean at every CB of
 * the merge chain for any gain: tap i must arrive at the output
 * exactly i staggers after the main pulse. Balancing the path
 * lengths (main: the SPL chain plus one CB; tap i: i SPLs, the gate
 * NDRO, this delay line and i+1 CBs) gives
 *
 *   stages(i) = ((w-1-i) * (d_spl) - d_ndro
 *                + i * (stagger - d_cb)) / d_jtl
 *
 * plus a routing-margin term that grows with the structure's span
 * (calibrated against the Table 2 wiring anchor).
 */
int
tapDelayStages(int w_max, int i)
{
    const double d_spl =
        ticksToPs(sfq::cellParams(sfq::CellKind::SPL).delay);
    const double d_cb =
        ticksToPs(sfq::cellParams(sfq::CellKind::CB).delay);
    const double d_ndro =
        ticksToPs(sfq::cellParams(sfq::CellKind::NDRO).delay);
    const double d_jtl =
        ticksToPs(sfq::cellParams(sfq::CellKind::JTL).delay);
    const double stagger = kTapDelayStages * d_jtl; // ~24.5 ps
    const double need = (w_max - 1 - i) * d_spl - d_ndro +
                        i * (stagger - d_cb);
    const int balanced =
        std::max(2, static_cast<int>(need / d_jtl) + 2);
    // Routing margin: outer taps route around the inner taps; the
    // per-tap allowance shrinks for wide structures whose balanced
    // delay lines already provide slack (fit to the Table 2 / peak
    // wiring anchors).
    const int margin = std::max(0, (i * (264 - 11 * w_max)) / 100);
    return balanced + margin;
}

/** Per-synapse configuration/polarity addressing logic (JJs). */
long
configExtrasJjs(int w_max)
{
    // One addressing SPL/NDRO pair per four taps, calibrated against
    // the Table 2 logic-JJ anchor.
    return std::max(0, 4 * w_max - 12);
}

} // namespace

WeightStructure::WeightStructure(int w_max) : w_max_(w_max)
{
    sushi_assert(w_max >= 1);
}

void
WeightStructure::configure(int strength)
{
    sushi_assert(strength >= 0 && strength <= w_max_);
    if (strength != strength_) {
        strength_ = strength;
        ++reloads_;
    }
}

WeightStructureGate::WeightStructureGate(sfq::Netlist &net,
                                         std::string_view name,
                                         int w_max)
    : w_max_(w_max)
{
    sushi_assert(w_max >= 1);
    sfq::CellNamer n(name);
    switch_ndro_ = &net.makeNdro(n(".sw"));
    // Weight-configuration addressing cells (polarity pair + the
    // routing that delivers the per-synapse control stream of
    // Fig. 12(e)); carried as accounted logic, driven directly in
    // the behavioural model.
    net.addLogicOverhead(static_cast<int>(configExtrasJjs(w_max)));

    if (w_max == 1) {
        out_cell_ = switch_ndro_;
        out_port_ = 0;
        return;
    }

    // Split chain peeling one tap per SPL; the final through-output
    // is the main branch.
    sfq::Component *main_src = switch_ndro_;
    int main_port = 0;
    for (int i = 1; i < w_max; ++i) {
        sfq::Spl &spl =
            net.makeSpl(n(".spl", i));
        net.connectWire(*main_src, main_port, spl, 0);
        tap_spls_.push_back(&spl);
        main_src = &spl;
        main_port = 0; // out 0 continues the main line
    }

    // Merge chain: the taps merge among themselves from the deepest
    // CB down, and the *main* branch enters through the final CB so
    // it reaches the output first; each tap's delay line is balanced
    // so the merged pulses arrive one stagger apart.
    sfq::Component *merge_src = nullptr;
    int merge_port = 0;
    for (int i = w_max - 1; i >= 1; --i) {
        sfq::Ndro &tap =
            net.makeNdro(n(".tap", i));
        net.connectWire(*tap_spls_[static_cast<std::size_t>(i - 1)], 1,
                        tap, kNdroClk);
        tap_ndros_.push_back(&tap);
        if (merge_src == nullptr) {
            // Deepest tap: starts the chain on its own.
            merge_src = &tap;
            merge_port = 0;
            // Its stagger is realised on the chain entry below.
            continue;
        }
        sfq::Cb &cb = net.makeCb(n(".cb", i));
        net.connectWire(*merge_src, merge_port, cb, 0,
                        merge_src == tap_ndros_.front()
                            ? tapDelayStages(w_max, w_max - 1)
                            : 0);
        net.connectWire(tap, 0, cb, 1, tapDelayStages(w_max, i));
        tap_cbs_.push_back(&cb);
        merge_src = &cb;
        merge_port = 0;
    }
    // Final CB: the always-on main branch joins the tap chain.
    sfq::Cb &cb_main = net.makeCb(n(".cb0"));
    if (merge_src == tap_ndros_.front() && w_max == 2) {
        // Single tap: delay applied directly on its link.
        net.connectWire(*merge_src, merge_port, cb_main, 0,
                        tapDelayStages(w_max, 1));
    } else {
        net.connectWire(*merge_src, merge_port, cb_main, 0);
    }
    net.connectWire(*main_src, main_port, cb_main, 1);
    tap_cbs_.push_back(&cb_main);
    out_cell_ = &cb_main;
    out_port_ = 0;
}

sfq::Component &
WeightStructureGate::inPort()
{
    // Pulses enter through the series switch's read (clk) channel:
    // an armed switch passes them, a clear switch blocks the synapse.
    return *switch_ndro_;
}

void
WeightStructureGate::connectOut(sfq::Component &dst, int port,
                                int jtl_stages)
{
    out_cell_->connect(out_port_, dst, port,
                       jtl_stages *
                           sfq::cellParams(sfq::CellKind::JTL).delay);
}

Tick
WeightStructureGate::configure(int strength, Tick start, Tick spacing)
{
    sushi_assert(strength >= 0 && strength <= w_max_);
    Tick t = start;
    // Clear everything first (weights are reloaded through din/rst,
    // Sec. 4.2.1), then arm the switch and strength-1 taps.
    switch_ndro_->inject(kNdroRst, t);
    t += spacing;
    for (auto *tap : tap_ndros_) {
        tap->inject(kNdroRst, t);
        t += spacing;
    }
    if (strength >= 1) {
        switch_ndro_->inject(kNdroDin, t);
        t += spacing;
    }
    for (int i = 0; i < strength - 1; ++i) {
        tap_ndros_[static_cast<std::size_t>(i)]->inject(kNdroDin, t);
        t += spacing;
    }
    return t;
}

void
WeightStructureGate::injectSwitchClear(Tick when)
{
    switch_ndro_->inject(kNdroRst, when);
}

void
WeightStructureGate::injectSwitchArm(Tick when)
{
    switch_ndro_->inject(kNdroDin, when);
}

int
WeightStructureGate::strength() const
{
    if (!switch_ndro_->state())
        return 0;
    int s = 1;
    for (const auto *tap : tap_ndros_)
        s += tap->state() ? 1 : 0;
    return s;
}

long
weightStructureLogicJjs(int w_max)
{
    using sfq::CellKind;
    using sfq::cellParams;
    // Series switch + per-tap SPL/NDRO/CB + the per-synapse polarity
    // and configuration-addressing cells that route the
    // weight-control stream (Fig. 12(e)).
    return cellParams(CellKind::NDRO).jjs +
           static_cast<long>(w_max - 1) *
               (cellParams(CellKind::SPL).jjs +
                cellParams(CellKind::NDRO).jjs +
                cellParams(CellKind::CB).jjs) +
           configExtrasJjs(w_max);
}

long
weightStructureWiringJjs(int w_max)
{
    const long jj_per_stage =
        sfq::cellParams(sfq::CellKind::JTL).jjs;
    long stages = 0;
    for (int i = 1; i < w_max; ++i)
        stages += tapDelayStages(w_max, i);
    return stages * jj_per_stage;
}

} // namespace sushi::fabric
