/**
 * @file
 * Cross-module property tests: invariants that must hold across
 * random inputs and parameter sweeps, beyond the per-module unit
 * tests.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "chip/sushi_chip.hh"
#include "common/rng.hh"
#include "engine/inference_engine.hh"
#include "fabric/resource_model.hh"
#include "fabric/timing_model.hh"
#include "npe/npe.hh"
#include "sfq/constraints.hh"
#include "sfq/waveform.hh"
#include "snn/binarize.hh"

namespace sushi {
namespace {

TEST(Property, NpeCounterIsModularArithmetic)
{
    // For any preload, polarity sequence and pulse counts, the NPE
    // value equals the signed sum mod 2^K, and the emitted spikes
    // equal the number of boundary wraps.
    Rng rng(404);
    for (int trial = 0; trial < 200; ++trial) {
        const int k = 3 + static_cast<int>(rng.below(8));
        const std::int64_t modulus = std::int64_t{1} << k;
        npe::Npe npe(k);
        npe.rst();
        const std::uint64_t preload =
            rng.below(static_cast<std::uint64_t>(modulus));
        npe.write(preload);

        std::int64_t signed_sum = static_cast<std::int64_t>(preload);
        std::uint64_t wraps = 0;
        for (int burst = 0; burst < 6; ++burst) {
            const bool up = rng.chance(0.5);
            const std::uint64_t count = rng.below(3 * modulus);
            npe.setPolarity(up ? npe::Polarity::Excitatory
                               : npe::Polarity::Inhibitory);
            wraps += npe.addPulses(count);
            signed_sum += up ? static_cast<std::int64_t>(count)
                             : -static_cast<std::int64_t>(count);
        }
        const std::int64_t expect =
            ((signed_sum % modulus) + modulus) % modulus;
        EXPECT_EQ(npe.value(),
                  static_cast<std::uint64_t>(expect))
            << "trial " << trial;
        EXPECT_GT(wraps + 1, 0u); // wraps consistent (smoke)
    }
}

TEST(Property, WaveformRoundTripRandom)
{
    Rng rng(405);
    for (int trial = 0; trial < 50; ++trial) {
        sfq::PulseTrace pulses;
        Tick t = 0;
        const int n = static_cast<int>(rng.below(40));
        for (int i = 0; i < n; ++i) {
            t += 1 + static_cast<Tick>(rng.below(100000));
            pulses.push_back(t);
        }
        EXPECT_EQ(sfq::levelsToPulses(sfq::pulsesToLevels(pulses)),
                  pulses);
    }
}

TEST(Property, SafeSpacingNeverViolatesAnyCell)
{
    // Protocol-legal random traffic at >= safe spacing produces zero
    // constraint violations through a pipeline of every asynchronous
    // cell type.
    Rng rng(406);
    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
    sfq::Netlist net(sim);
    const Tick gap = sfq::safePulseSpacing();

    auto &spl = net.makeSpl("spl");
    auto &cb = net.makeCb("cb");
    auto &tff = net.makeTffl("tff");
    auto &ndro = net.makeNdro("ndro");
    net.connectWire(spl, 0, cb, 0);
    // Delay the second branch past the CB cross-channel constraint
    // AND far enough that the two merged pulses respect the TFF's
    // 39.9 ps clk-clk interval (12 JTL stages = 42 ps).
    net.connectWire(spl, 1, cb, 1, 12);
    net.connectWire(cb, 0, tff, 0);
    net.connectWire(tff, 0, ndro, sfq::chan::kNdroClk);
    auto &sink = net.makeSink("sink");
    net.connectWire(ndro, 0, sink, 0);

    Tick t = gap;
    bool armed = false;
    for (int i = 0; i < 300; ++i) {
        switch (rng.below(3)) {
          case 0:
            spl.inject(0, t);
            break;
          case 1:
            ndro.inject(armed ? sfq::chan::kNdroRst
                              : sfq::chan::kNdroDin,
                        t);
            armed = !armed;
            break;
          case 2:
            spl.inject(0, t);
            break;
        }
        // Two injections through the split/merge interleave a
        // 42 ps-delayed branch between direct branches; keep the
        // injection spacing comfortably above gap + that stagger.
        t += 2 * gap + static_cast<Tick>(rng.below(50000));
    }
    sim.run();
    EXPECT_EQ(sim.violations(), 0u);
}

TEST(Property, ResourceModelMonotoneInWmax)
{
    using fabric::weightStructureLogicJjs;
    using fabric::weightStructureWiringJjs;
    for (int w = 2; w <= 16; ++w) {
        EXPECT_GT(weightStructureLogicJjs(w),
                  weightStructureLogicJjs(w - 1));
        EXPECT_GE(weightStructureWiringJjs(w),
                  weightStructureWiringJjs(w - 1));
    }
}

TEST(Property, PulseTimeMonotoneInMeshSize)
{
    // Transmission time rises with the die; the total per-pulse time
    // is dominated by it at scale.
    double prev_trans = 0.0;
    for (int n : {1, 2, 4, 8, 16}) {
        const double trans = fabric::transmissionDelayPs(n);
        EXPECT_GT(trans, prev_trans);
        prev_trans = trans;
    }
}

TEST(Property, ChipDeterministic)
{
    // Identical compiled networks and frames give identical counts
    // and identical stats across runs.
    snn::SnnConfig cfg;
    cfg.input = 30;
    cfg.hidden = 12;
    cfg.output = 4;
    cfg.t_steps = 4;
    cfg.stateless = true;
    snn::SnnMlp mlp(cfg, 3);
    auto bin = snn::BinarySnn::fromFloat(mlp);
    compiler::ChipConfig chip_cfg;
    chip_cfg.n = 8;
    auto compiled = compiler::compileNetwork(bin, chip_cfg);

    Rng rng(407);
    std::vector<std::vector<std::uint8_t>> frames;
    for (int t = 0; t < 4; ++t) {
        std::vector<std::uint8_t> f(30);
        for (auto &v : f)
            v = rng.chance(0.5);
        frames.push_back(std::move(f));
    }
    chip::SushiChip a(chip_cfg), b(chip_cfg);
    EXPECT_EQ(a.inferCounts(compiled, frames),
              b.inferCounts(compiled, frames));
    EXPECT_EQ(a.stats().synaptic_ops, b.stats().synaptic_ops);
    EXPECT_EQ(a.stats().est_time_ps, b.stats().est_time_ps);
}

TEST(Property, ChipMatchesSoftwareAcrossMeshWidths)
{
    // The bit-slice decomposition must not change results: any mesh
    // width gives the same counts as the software model (ample state
    // budget).
    snn::SnnConfig cfg;
    cfg.input = 40;
    cfg.hidden = 16;
    cfg.output = 5;
    cfg.t_steps = 3;
    cfg.stateless = true;
    snn::SnnMlp mlp(cfg, 9);
    auto bin = snn::BinarySnn::fromFloat(mlp);

    Rng rng(408);
    std::vector<std::vector<std::uint8_t>> frames;
    for (int t = 0; t < 3; ++t) {
        std::vector<std::uint8_t> f(40);
        for (auto &v : f)
            v = rng.chance(0.4);
        frames.push_back(std::move(f));
    }
    const auto sw = bin.forwardCounts(frames);
    for (int n : {2, 4, 8, 16, 64}) {
        compiler::ChipConfig chip_cfg;
        chip_cfg.n = n;
        chip_cfg.sc_per_npe = 12;
        auto compiled = compiler::compileNetwork(bin, chip_cfg);
        chip::SushiChip chip(chip_cfg);
        EXPECT_EQ(chip.inferCounts(compiled, frames), sw)
            << "mesh width " << n;
    }
}

TEST(Property, BinaryPredictionInRange)
{
    Rng rng(409);
    snn::SnnConfig cfg;
    cfg.input = 20;
    cfg.hidden = 10;
    cfg.output = 7;
    cfg.stateless = true;
    snn::SnnMlp mlp(cfg, 5);
    auto bin = snn::BinarySnn::fromFloat(mlp);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<std::vector<std::uint8_t>> frames;
        for (int t = 0; t < cfg.t_steps; ++t) {
            std::vector<std::uint8_t> f(20);
            for (auto &v : f)
                v = rng.chance(0.5);
            frames.push_back(std::move(f));
        }
        const int p = bin.predict(frames);
        EXPECT_GE(p, 0);
        EXPECT_LT(p, 7);
    }
}

TEST(Property, DesignPointsInternallyConsistent)
{
    for (int n : {1, 2, 4, 8, 16}) {
        const auto p = fabric::designPoint(n);
        EXPECT_EQ(p.total_jjs, p.logic_jjs + p.wiring_jjs);
        EXPECT_NEAR(p.wiring_fraction,
                    static_cast<double>(p.wiring_jjs) /
                        static_cast<double>(p.total_jjs),
                    1e-12);
        EXPECT_GT(p.area_mm2, 0.0);
        EXPECT_EQ(p.npes, 2 * n);
    }
}


/** Reseeded fault model with one untargeted PulseDrop at @p rate. */
void
dropPulses(sfq::Simulator &sim, double rate, std::uint64_t seed)
{
    sim.faults().clearFaults();
    sim.faults().reseed(seed);
    sfq::FaultSpec drop;
    drop.kind = sfq::FaultKind::PulseDrop;
    drop.rate = rate;
    sim.faults().addFault(std::move(drop));
}

TEST(Property, FaultInjectionDropsPulsesDeterministically)
{
    // Same seed, same faults; higher rates lose more pulses; the
    // lost pulses change observable behaviour (the chip verification
    // of Sec. 6.2 would catch such a part).
    auto run = [](double rate, std::uint64_t seed) {
        sfq::Simulator sim;
        sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
        dropPulses(sim, rate, seed);
        sfq::Netlist net(sim);
        npe::NpeGate npe(net, "npe", 4);
        const Tick gap = sfq::safePulseSpacing();
        npe.injectSet1(gap);
        for (int i = 0; i < 64; ++i)
            npe.injectIn((i + 2) * gap);
        sim.run();
        return std::make_pair(npe.outSink().count(),
                              sim.droppedPulses());
    };
    const auto clean = run(0.0, 1);
    EXPECT_EQ(clean.second, 0u);
    EXPECT_EQ(clean.first, 4u); // 64 pulses through 16 states

    const auto faulty_a = run(0.05, 7);
    const auto faulty_b = run(0.05, 7);
    EXPECT_EQ(faulty_a, faulty_b); // deterministic in the seed
    EXPECT_GT(faulty_a.second, 0u);

    const auto heavy = run(0.5, 7);
    EXPECT_GT(heavy.second, faulty_a.second);
    EXPECT_LT(heavy.first, clean.first);
}

TEST(Property, EngineEqualsSequentialSingleChip)
{
    // For any replica count, sharding a batch across the engine's
    // chip pool is observationally identical to one chip running the
    // batch sequentially: same per-sample counts and predictions,
    // same merged counters.
    snn::SnnConfig cfg;
    cfg.input = 24;
    cfg.hidden = 10;
    cfg.output = 4;
    cfg.t_steps = 3;
    cfg.stateless = true;
    snn::SnnMlp mlp(cfg, 13);
    auto bin = snn::BinarySnn::fromFloat(mlp);
    compiler::ChipConfig chip_cfg;
    chip_cfg.n = 8;
    auto model = engine::CompiledModel::compile(bin, chip_cfg);

    Rng rng(410);
    std::vector<engine::Sample> samples(21);
    for (auto &s : samples) {
        for (int t = 0; t < cfg.t_steps; ++t) {
            std::vector<std::uint8_t> f(24);
            for (auto &v : f)
                v = rng.chance(0.5);
            s.push_back(std::move(f));
        }
    }

    chip::SushiChip single(chip_cfg);
    std::vector<std::vector<int>> seq;
    chip::InferenceStats seq_merged;
    for (const auto &s : samples) {
        single.resetStats();
        seq.push_back(single.inferCounts(model->compiled(), s));
        seq_merged.accumulate(single.stats());
    }

    for (int replicas : {1, 2, 5}) {
        engine::EngineConfig ecfg;
        ecfg.replicas = replicas;
        engine::InferenceEngine eng(model, ecfg);
        const auto run = eng.run(samples);
        for (std::size_t i = 0; i < samples.size(); ++i)
            EXPECT_EQ(run.samples[i].counts, seq[i])
                << "replicas " << replicas << " sample " << i;
        EXPECT_EQ(run.merged.synaptic_ops, seq_merged.synaptic_ops)
            << "replicas " << replicas;
        EXPECT_EQ(run.merged.output_spikes, seq_merged.output_spikes)
            << "replicas " << replicas;
        EXPECT_EQ(run.merged.reload_events, seq_merged.reload_events)
            << "replicas " << replicas;
    }
}

TEST(Property, FaultInjectionBreaksCosimEquivalence)
{
    // A lossy gate-level chip must diverge from the ideal
    // behavioural model — the check the paper's waveform comparison
    // performs on fabricated parts.
    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
    dropPulses(sim, 0.3, 3);
    sfq::Netlist net(sim);
    npe::NpeGate gate(net, "npe", 5);
    npe::Npe ref(5);
    ref.setPolarity(npe::Polarity::Excitatory);
    const Tick gap = sfq::safePulseSpacing();
    gate.injectSet1(gap);
    for (int i = 0; i < 40; ++i) {
        gate.injectIn((i + 2) * gap);
        ref.in();
    }
    sim.run();
    EXPECT_NE(gate.value(), ref.value());
}

} // namespace
} // namespace sushi
