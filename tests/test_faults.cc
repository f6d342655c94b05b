/**
 * @file
 * Fault-injection and resilience subsystem tests: deterministic
 * per-seed fault streams, targeted cell faults with flux-trap
 * windows, stuck-at NDRO behaviour, the Recover violation policy and
 * the typed TimingFault exception, Simulator::reset() reuse, the
 * Monte-Carlo fault campaign, and the chip's degraded (failed-NPE)
 * mode.
 */

#include <gtest/gtest.h>

#include <vector>

#include "chip/sushi_chip.hh"
#include "data/synth_digits.hh"
#include "npe/npe.hh"
#include "npe/state_controller.hh"
#include "perf/fault_campaign.hh"
#include "sfq/cells.hh"
#include "sfq/constraints.hh"
#include "sfq/netlist.hh"
#include "sfq/simulator.hh"
#include "snn/train.hh"

namespace sushi {
namespace {

using sfq::FaultKind;
using sfq::FaultSpec;

/** A source -> JTL chain -> sink fixture. */
struct Chain
{
    sfq::Simulator sim;
    sfq::PulseSource *src = nullptr;
    sfq::PulseSink *sink = nullptr;
    std::vector<sfq::Jtl *> jtls;

    explicit Chain(int stages)
    {
        sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
        src = new sfq::PulseSource(sim, "src");
        sfq::Component *prev = src;
        for (int i = 0; i < stages; ++i) {
            jtls.push_back(
                new sfq::Jtl(sim, "jtl" + std::to_string(i)));
            prev->connect(0, *jtls.back(), 0);
            prev = jtls.back();
        }
        sink = new sfq::PulseSink(sim, "sink");
        prev->connect(0, *sink, 0);
    }

    ~Chain()
    {
        delete src;
        delete sink;
        for (auto *j : jtls)
            delete j;
    }
};

TEST(FaultModel, SameSeedSameDropInsertSequence)
{
    auto run = [](std::uint64_t seed) {
        Chain c(6);
        c.sim.faults().reseed(seed);
        FaultSpec drop;
        drop.kind = FaultKind::PulseDrop;
        drop.rate = 0.2;
        c.sim.faults().addFault(drop);
        FaultSpec spur;
        spur.kind = FaultKind::SpuriousPulse;
        spur.rate = 0.1;
        c.sim.faults().addFault(spur);
        const Tick gap = sfq::safePulseSpacing();
        for (int i = 1; i <= 40; ++i)
            c.src->pulseAt(i * gap);
        c.sim.run();
        return std::make_tuple(c.sink->pulsesSeen(),
                               c.sim.faults().counters().dropped,
                               c.sim.faults().counters().inserted);
    };
    const auto a = run(42);
    const auto b = run(42);
    EXPECT_EQ(a, b);
    EXPECT_GT(std::get<1>(a), 0u);
    EXPECT_GT(std::get<2>(a), 0u);
    // A different seed realises a different fault pattern.
    const auto c = run(43);
    EXPECT_NE(std::get<0>(a), std::get<0>(c));
}

TEST(FaultModel, SpuriousPulsesTrailTheRealDelivery)
{
    Chain c(1);
    FaultSpec spur;
    spur.kind = FaultKind::SpuriousPulse;
    spur.rate = 1.0;
    spur.target = "jtl0";
    c.sim.faults().addFault(spur);
    const Tick t = 1000;
    c.src->pulseAt(t);
    c.sim.run();
    const Tick d = sfq::cellParams(sfq::CellKind::JTL).delay;
    EXPECT_EQ(c.sink->pulsesSeen(), (std::vector<Tick>{t + d, t + d + 1}));
    EXPECT_EQ(c.sim.faults().counters().inserted, 1u);
}

TEST(FaultModel, JitterNeverDeliversIntoThePast)
{
    // A sigma far above the JTL delay makes about half the shifts
    // negative enough to land before the firing; those are clamped
    // to arrive at the firing tick itself.
    Chain c(1);
    FaultSpec jit;
    jit.kind = FaultKind::TimingJitter;
    jit.jitter_sigma = 1e6;
    jit.target = "jtl0";
    c.sim.faults().addFault(jit);
    const Tick gap = 100'000'000;
    const int pulses = 40;
    for (int i = 0; i < pulses; ++i)
        c.src->pulseAt(i * gap);
    c.sim.run();
    const auto &seen = c.sink->pulsesSeen();
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(pulses));
    int clamped = 0;
    for (int i = 0; i < pulses; ++i) {
        EXPECT_GE(seen[static_cast<std::size_t>(i)], i * gap);
        clamped += seen[static_cast<std::size_t>(i)] == i * gap ? 1 : 0;
    }
    EXPECT_GT(clamped, 0);
}

TEST(FaultModel, TargetedDeadCellKillsOnlyItsPath)
{
    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
    FaultSpec dead;
    dead.kind = FaultKind::DeadCell;
    dead.target = "path_a.jtl";
    sim.faults().addFault(dead);

    sfq::PulseSource src(sim, "src");
    sfq::Spl spl(sim, "spl");
    sfq::Jtl ja(sim, "path_a.jtl");
    sfq::Jtl jb(sim, "path_b.jtl");
    sfq::PulseSink sa(sim, "sink_a");
    sfq::PulseSink sb(sim, "sink_b");
    src.connect(0, spl, 0);
    spl.connect(0, ja, 0);
    spl.connect(1, jb, 0);
    ja.connect(0, sa, 0);
    jb.connect(0, sb, 0);

    const Tick gap = sfq::safePulseSpacing();
    for (int i = 1; i <= 10; ++i)
        src.pulseAt(i * gap);
    sim.run();

    EXPECT_EQ(sa.count(), 0u); // the dead JTL ate every pulse
    EXPECT_EQ(sb.count(), 10u);
    EXPECT_EQ(sim.faults().counters().suppressed, 10u);
}

TEST(FaultModel, FluxTrapWindowIsTransient)
{
    Chain c(2);
    const Tick gap = sfq::safePulseSpacing();
    // A trapped fluxon blocks the whole chain for pulses 4..7, then
    // escapes.
    FaultSpec trap;
    trap.kind = FaultKind::PulseDrop;
    trap.rate = 1.0;
    trap.target = "jtl0";
    trap.from = 4 * gap;
    trap.until = 8 * gap;
    c.sim.faults().addFault(trap);

    for (int i = 1; i <= 10; ++i)
        c.src->pulseAt(i * gap);
    c.sim.run();

    // 10 pulses, minus the ones emitted by jtl0 inside the window.
    EXPECT_LT(c.sink->count(), 10u);
    EXPECT_GE(c.sink->count(), 6u);
    EXPECT_EQ(c.sink->count() +
                  c.sim.faults().counters().dropped,
              10u);
}

TEST(FaultModel, StuckSetNdroIgnoresReset)
{
    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
    FaultSpec stuck;
    stuck.kind = FaultKind::StuckSet;
    stuck.target = "ndro";
    sim.faults().addFault(stuck);

    sfq::Ndro ndro(sim, "ndro");
    sfq::PulseSink sink(sim, "sink");
    ndro.connect(0, sink, 0);

    const Tick gap = sfq::safePulseSpacing();
    // Never set, only reset — then read. Flux is trapped: the NDRO
    // reads 1 anyway.
    ndro.inject(sfq::chan::kNdroRst, gap);
    ndro.inject(sfq::chan::kNdroClk, 2 * gap);
    sim.run();
    EXPECT_EQ(sink.count(), 1u);
    EXPECT_TRUE(ndro.state());
}

TEST(FaultModel, StuckResetNdroNeverStores)
{
    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
    FaultSpec stuck;
    stuck.kind = FaultKind::StuckReset;
    stuck.target = "ndro";
    sim.faults().addFault(stuck);

    sfq::Ndro ndro(sim, "ndro");
    sfq::PulseSink sink(sim, "sink");
    ndro.connect(0, sink, 0);

    const Tick gap = sfq::safePulseSpacing();
    ndro.inject(sfq::chan::kNdroDin, gap);
    ndro.inject(sfq::chan::kNdroClk, 2 * gap);
    sim.run();
    EXPECT_EQ(sink.count(), 0u);
    EXPECT_FALSE(ndro.state());
}

TEST(FaultModel, StuckNdroBreaksScAgainstFsmReference)
{
    // The SC stores the neuron state bit (Sec. 4.1.1): its NDROs arm
    // the flip outputs the NeuronFsm/NeuronMapper path relies on for
    // spike emission. With the fall-arm NDRO stuck-reset, the
    // gate-level SC diverges from the behavioural FSM reference —
    // the chain never emits the carry the neuron's fire transition
    // needs.
    auto run = [](bool stuck) {
        sfq::Simulator sim;
        sim.setViolationPolicy(sfq::ViolationPolicy::Ignore);
        if (stuck) {
            FaultSpec spec;
            spec.kind = FaultKind::StuckReset;
            spec.target = "npe.sc0.ndro1"; // SC0's fall-arm NDRO
            sim.faults().addFault(spec);
        }
        sfq::Netlist net(sim);
        npe::NpeGate gate(net, "npe", 3);
        const Tick gap = sfq::safePulseSpacing();
        gate.injectSet1(gap);
        for (int i = 0; i < 11; ++i)
            gate.injectIn((i + 2) * gap);
        sim.run();
        return std::make_pair(gate.outSink().count(), gate.value());
    };

    npe::Npe ref(3);
    ref.setPolarity(npe::Polarity::Excitatory);
    const std::uint64_t ref_spikes = ref.addPulses(11);

    const auto healthy = run(false);
    EXPECT_EQ(healthy.first, ref_spikes);
    EXPECT_EQ(healthy.second, ref.value());

    const auto faulty = run(true);
    // SC0 can never propagate a carry: the counter is cut at bit 0.
    EXPECT_EQ(faulty.first, 0u);
    EXPECT_NE(faulty.second, ref.value());
}

TEST(Violation, FatalThrowsTypedTimingFault)
{
    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Fatal);
    sfq::Jtl jtl(sim, "jtl");
    sfq::PulseSink sink(sim, "sink");
    jtl.connect(0, sink, 0);
    jtl.inject(0, 1000);
    jtl.inject(0, 1001); // far below the 19.9 ps din-din interval
    try {
        sim.run();
        FAIL() << "expected TimingFault";
    } catch (const sfq::TimingFault &e) {
        EXPECT_EQ(e.cell(), "jtl");
        EXPECT_NE(std::string(e.what()).find("jtl"),
                  std::string::npos);
        // Full attribution: which constraint, and the two offending
        // pulse times.
        EXPECT_EQ(e.constraint(), "din-din");
        EXPECT_EQ(e.prevPulse(), 1000);
        EXPECT_EQ(e.violatingPulse(), 1001);
        EXPECT_NE(std::string(e.what()).find("pulses at 1000 fs"),
                  std::string::npos);
    }
}

TEST(Violation, RecoverDropsOffendingPulseAndAttributes)
{
    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Recover);
    sfq::Jtl jtl(sim, "jtl");
    sfq::PulseSink sink(sim, "sink");
    jtl.connect(0, sink, 0);
    jtl.inject(0, 1000);
    jtl.inject(0, 1001);
    EXPECT_NO_THROW(sim.run());
    EXPECT_EQ(sink.count(), 1u); // the marginal second pulse is gone
    EXPECT_EQ(sim.violations(), 1u);
    EXPECT_EQ(sim.recoveredPulses(), 1u);
    ASSERT_EQ(sim.violationsByCell().count("jtl"), 1u);
    EXPECT_EQ(sim.violationsByCell().at("jtl"), 1u);
}

TEST(Simulator, ResetClearsStateForReuse)
{
    Chain c(3);
    c.sim.faults().clearFaults();
    c.sim.faults().reseed(9);
    FaultSpec drop;
    drop.kind = FaultKind::PulseDrop;
    drop.rate = 0.5;
    c.sim.faults().addFault(std::move(drop));
    const Tick gap = sfq::safePulseSpacing();
    for (int i = 1; i <= 20; ++i)
        c.src->pulseAt(i * gap);
    c.jtls[0]->inject(0, 10); // provoke a violation vs the train
    c.sim.run();
    EXPECT_GT(c.sim.pulses(), 0u);
    EXPECT_GT(c.sim.droppedPulses(), 0u);
    EXPECT_GT(c.sim.switchEnergy(), 0.0);

    c.sim.reset();
    EXPECT_EQ(c.sim.now(), 0);
    EXPECT_TRUE(c.sim.idle());
    EXPECT_EQ(c.sim.pulses(), 0u);
    EXPECT_EQ(c.sim.droppedPulses(), 0u);
    EXPECT_EQ(c.sim.violations(), 0u);
    EXPECT_EQ(c.sim.recoveredPulses(), 0u);
    EXPECT_EQ(c.sim.switchEnergy(), 0.0);
    EXPECT_TRUE(c.sim.violationsByCell().empty());

    // The circuit is reusable: a clean run after disabling faults.
    c.sim.faults().clearFaults();
    c.sink->clear();
    for (int i = 1; i <= 5; ++i)
        c.src->pulseAt(i * gap);
    c.sim.run();
    EXPECT_EQ(c.sink->count(), 5u);
}

TEST(Campaign, DeterministicAndDegrading)
{
    perf::FaultCampaignConfig cfg;
    cfg.kinds = {FaultKind::PulseDrop, FaultKind::SpuriousPulse};
    cfg.rates = {0.0, 0.01, 0.2};
    cfg.seeds = 4;
    cfg.campaign_seed = 7;
    cfg.num_sc = 4;
    cfg.pulses = 32;

    const auto a = perf::runFaultCampaign(cfg);
    const auto b = perf::runFaultCampaign(cfg);
    EXPECT_EQ(perf::campaignToJson(a), perf::campaignToJson(b));

    ASSERT_EQ(a.points.size(), 6u);
    // Fault-free trials are pulse-exact; heavy drop rates are not.
    EXPECT_DOUBLE_EQ(a.points[0].accuracy, 1.0);
    EXPECT_LT(a.points[2].accuracy, 1.0);
    EXPECT_TRUE(perf::accuracyMonotone(a));

    const std::string json = perf::campaignToJson(a);
    EXPECT_NE(json.find("\"pulse_drop\""), std::string::npos);
    EXPECT_NE(json.find("\"accuracy\""), std::string::npos);
}

TEST(Compiler, PlanNpeRemapRoundRobinsOntoHealthySlots)
{
    const auto plan =
        compiler::planNpeRemap(4, {0, 1, 1, 0});
    EXPECT_EQ(plan.failed, 2);
    EXPECT_EQ(plan.extra_passes, 1);
    EXPECT_EQ(plan.host[0], 0);
    EXPECT_EQ(plan.host[1], 0); // first healthy host
    EXPECT_EQ(plan.host[2], 3); // next healthy host
    EXPECT_EQ(plan.host[3], 3);

    const auto identity = compiler::planNpeRemap(3, {0, 0, 0});
    EXPECT_EQ(identity.failed, 0);
    EXPECT_EQ(identity.extra_passes, 0);
}

TEST(Chip, DegradedModeRemapsAndStillClassifies)
{
    // Train a small SSNN, then run the same test set on a healthy
    // chip and on one with a failed output NPE: degraded mode must
    // complete (no abort), report the remap, charge extra time, and
    // classify identically — the remap host NPEs are bit-exact.
    auto all = data::synthDigits(2500, 17);
    auto [test, train] = data::split(all, 100);

    snn::SnnConfig cfg;
    cfg.hidden = 64;
    cfg.t_steps = 5;
    cfg.stateless = true;
    snn::SnnMlp mlp(cfg, 4);
    snn::TrainConfig tc;
    tc.epochs = 2;
    snn::Trainer(mlp, tc).fit(train.images, train.labels);
    auto bin = snn::BinarySnn::fromFloat(mlp);

    compiler::ChipConfig chip_cfg;
    chip_cfg.n = 16;
    chip_cfg.sc_per_npe = 10;
    auto compiled = compiler::compileNetwork(bin, chip_cfg);

    chip::SushiChip healthy(chip_cfg);
    chip::SushiChip degraded(chip_cfg);
    degraded.markNpeFailed(3);
    ASSERT_EQ(degraded.remapPlan().failed, 1);
    EXPECT_NE(degraded.remapPlan().host[3], 3);

    snn::PoissonEncoder enc(99);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
        std::vector<float> pix(test.images.row(i),
                               test.images.row(i) + 784);
        snn::Tensor fr = enc.encode(pix, cfg.t_steps);
        std::vector<std::vector<std::uint8_t>> frames;
        for (int t = 0; t < cfg.t_steps; ++t) {
            std::vector<std::uint8_t> f(784);
            for (std::size_t d = 0; d < 784; ++d)
                f[d] = fr.at(static_cast<std::size_t>(t), d) > 0.5f;
            frames.push_back(std::move(f));
        }
        const int hp = healthy.predict(compiled, frames);
        const int dp = degraded.predict(compiled, frames);
        EXPECT_EQ(hp, dp) << "degraded remap must be bit-exact";
        hits += dp == test.labels[i] ? 1 : 0;
    }
    const double acc =
        static_cast<double>(hits) / static_cast<double>(test.size());
    EXPECT_GT(acc, 0.5); // well above the 10 % chance floor

    const auto &ds = degraded.stats();
    EXPECT_EQ(ds.failed_npes, 1u);
    EXPECT_GT(ds.remapped_neurons, 0u);
    EXPECT_GT(ds.degraded_passes, 0u);
    EXPECT_TRUE(ds.degraded());
    EXPECT_FALSE(healthy.stats().degraded());
    // The remap is reload-aware: extra passes cost configuration
    // batches and serialized time.
    EXPECT_GT(ds.reload_events, healthy.stats().reload_events);
    EXPECT_GT(ds.est_time_ps, healthy.stats().est_time_ps);

    // Clearing the failure restores the identity plan.
    degraded.clearFailedNpes();
    EXPECT_EQ(degraded.remapPlan().failed, 0);
}

} // namespace
} // namespace sushi
