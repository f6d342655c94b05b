/**
 * @file
 * gate_cosim: the paper's chip-vs-simulation validation flow.
 *
 * Random +/-1 single-layer nets on a 16x16 mesh (sc_per_npe 5, T = 5)
 * are compiled, encoded into the open-loop pulse program, executed on
 * a fresh cell-level GateChip under ViolationPolicy::Fatal, and
 * compared spike for spike with the behavioural SushiChip::stepLayer.
 * One verified net is one operation and one timed block.
 */

#include <memory>

#include "bench.hh"
#include "chip/gate_sim.hh"
#include "chip/sushi_chip.hh"
#include "common/rng.hh"
#include "common/time.hh"
#include "compiler/pulse_encoder.hh"
#include "sfq/netlist.hh"
#include "sfq/simulator.hh"

namespace perfbench {

using namespace sushi;

namespace {

constexpr int kMesh = 16;
constexpr int kTSteps = 5;
/** Nets whose modelled figures are reported (fixed, so they repeat
 *  exactly for a seed however many nets the host fits in). */
constexpr std::size_t kModelledNets = 256;

compiler::ChipConfig
cosimChip()
{
    compiler::ChipConfig cfg;
    cfg.n = kMesh;
    cfg.sc_per_npe = 5;
    return cfg;
}

/** Random net @p i of the seed, with its input frames. */
struct NetCase
{
    snn::BinarySnn net;
    std::vector<std::vector<std::uint8_t>> frames;
};

NetCase
makeNet(std::uint64_t seed, std::uint64_t i)
{
    Rng rng(keyedBits(seed, 0xC051, i));
    snn::BinaryLayer layer;
    layer.weights.assign(kMesh, {});
    layer.thresholds.assign(kMesh, 0);
    for (int o = 0; o < kMesh; ++o) {
        for (int k = 0; k < kMesh; ++k)
            layer.weights[static_cast<std::size_t>(o)].push_back(
                rng.chance(0.5) ? -1 : 1);
        layer.thresholds[static_cast<std::size_t>(o)] =
            1 + static_cast<int>(rng.below(3));
    }
    NetCase c{snn::BinarySnn::fromLayers({layer}, kTSteps), {}};
    for (int t = 0; t < kTSteps; ++t) {
        std::vector<std::uint8_t> f(kMesh);
        for (auto &v : f)
            v = rng.chance(0.5) ? 1 : 0;
        c.frames.push_back(std::move(f));
    }
    return c;
}

/** One verified net's timings and exact counts. */
struct NetRun
{
    bool agreed = false;
    std::uint64_t violations = 0;
    double host_s = 0.0, prepare_s = 0.0, build_s = 0.0, run_s = 0.0;
    std::size_t ops = 1;
    std::uint64_t cells = 0, events = 0;
    double simulated_s = 0.0, energy_j = 0.0;
};

NetRun
verifyNet(const NetCase &c, Tracer &tracer, std::int64_t id)
{
    NetRun r;
    Tracer::Scope op(tracer, "cosim.net", id);
    const auto cfg = cosimChip();

    compiler::CompiledNetwork compiled;
    compiler::PulseProgram prog;
    {
        Tracer::Scope s(tracer, "compiler.prepare", id);
        compiled = compiler::compileNetwork(c.net, cfg);
        prog = compiler::encodeLayerProgram(compiled, c.frames);
        r.prepare_s = s.elapsed();
    }

    std::vector<std::vector<int>> behav;
    {
        Tracer::Scope s(tracer, "chip.stepLayer", id);
        chip::SushiChip chip(cfg);
        for (const auto &f : c.frames) {
            auto out = chip.stepLayer(compiled.layers[0],
                                      c.net.layers()[0],
                                      chip::PulseVector(f.begin(), f.end()));
            behav.emplace_back(out.begin(), out.end());
        }
    }

    sfq::Simulator sim;
    sim.setViolationPolicy(sfq::ViolationPolicy::Fatal);
    sfq::Netlist netlist(sim);
    std::vector<std::vector<int>> gate_steps;
    try {
        std::unique_ptr<chip::GateChip> gate;
        {
            Tracer::Scope s(tracer, "fabric.GateChip", id);
            gate = std::make_unique<chip::GateChip>(netlist, cfg);
            r.build_s = s.elapsed();
        }
        Tracer::Scope s(tracer, "sfq.runProgram", id);
        gate_steps = gate->runProgram(compiled, prog);
        r.run_s = s.elapsed();
    } catch (const sfq::TimingFault &) {
        r.violations = std::max<std::uint64_t>(1, sim.violations());
    }
    r.violations = std::max(r.violations, sim.violations());
    r.agreed = r.violations == 0 && gate_steps == behav;
    r.cells = netlist.numComponents();
    r.events = sim.eventsExecuted();
    r.simulated_s = ticksToSeconds(sim.now());
    r.energy_j = sim.switchEnergy();
    r.host_s = op.elapsed();
    return r;
}

/** Agreement and violations over every net verified in a run. */
struct Tally
{
    std::uint64_t verified = 0, agreed = 0, violations = 0;

    void add(const NetRun &r)
    {
        ++verified;
        agreed += r.agreed ? 1 : 0;
        violations += r.violations;
    }
};

} // namespace

void
runGateCosim(const Options &opt, Tracer &tracer, Report &report)
{
    // Set-up: generate the reported nets' inputs and warm the cell
    // library with one throw-away mesh build. It takes milliseconds, so
    // one host slowdown covers all of it. So it repeats before the
    // modelled set and before every timed pass, each repetition is
    // normalised between two calibration samples (see HostSpeed), and
    // setup_s is the fastest repetition, as the timed blocks are.
    std::vector<double> setup;
    const auto setUp = [&] {
        const double before = HostSpeed::sample();
        double host_s = 0.0;
        {
            Tracer::Scope s(tracer, "setup");
            std::vector<NetCase> nets;
            for (std::uint64_t i = 0; i < kModelledNets; ++i)
                nets.push_back(makeNet(opt.seed, i));
            sfq::Simulator sim;
            sfq::Netlist netlist(sim);
            chip::GateChip warm(netlist, cosimChip());
            host_s = s.elapsed();
        }
        setup.push_back(
            host_s *
            HostSpeed::blockScales({before, HostSpeed::sample()})[0]);
    };
    setUp();

    // The modelled set, once and untimed: it warms the caches and gives
    // the exact modelled figures.
    Tracer quiet(false);
    Tally tally;
    std::vector<NetRun> modelled;
    for (std::uint64_t i = 0; i < kModelledNets; ++i) {
        modelled.push_back(verifyNet(makeNet(opt.seed, i), quiet, -1));
        tally.add(modelled.back());
    }

    // Timed blocks are nets 0, 1, ..., one each, so every net is timed
    // at its fastest pass.
    const auto best = bestOfPasses<NetRun>(
        opt.seconds, opt.trace, tracer,
        [&](double budget_s, std::size_t blocks, Tracer &t) {
            setUp();
            std::vector<NetRun> out;
            std::vector<double> kernel_s{HostSpeed::sample()};
            const auto t0 = Clock::now();
            for (std::size_t b = 0; moreBlocks(b, budget_s, blocks, t0);
                 ++b) {
                out.push_back(verifyNet(makeNet(opt.seed, b), t,
                                        static_cast<std::int64_t>(b)));
                kernel_s.push_back(HostSpeed::sample());
                tally.add(out.back());
            }
            const auto scale = HostSpeed::blockScales(kernel_s);
            for (std::size_t b = 0; b < out.size(); ++b) {
                NetRun &r = out[b];
                r.host_s *= scale[b];
                r.prepare_s *= scale[b];
                r.build_s *= scale[b];
                r.run_s *= scale[b];
            }
            return out;
        });

    report.e2e("setup_s", *std::min_element(setup.begin(), setup.end()),
               "s");
    report.attempted = tally.verified;
    report.failed = tally.verified - tally.agreed;
    report.gate(tally.agreed == tally.verified,
                "gate-level chip disagrees with stepLayer");
    report.gate(tally.violations == 0,
                "timing violations under Fatal policy");

    std::vector<double> host_ms;
    for (const NetRun &r : best.untraced)
        host_ms.push_back(r.host_s * 1e3);
    report.e2e("host_ops_per_s", best.rate(best.untraced), "1/s");
    report.e2e("host_latency_p50_ms", quantile(host_ms, 0.5), "ms");

    // Modelled figures: the first kModelledNets nets, exact.
    double sim_s = 0.0, energy = 0.0;
    std::vector<double> sim_ms, events, cells, sim_ns;
    std::uint64_t m_agreed = 0;
    for (const NetRun &r : modelled) {
        sim_s += r.simulated_s;
        energy += r.energy_j;
        sim_ms.push_back(r.simulated_s * 1e3);
        events.push_back(static_cast<double>(r.events));
        cells.push_back(static_cast<double>(r.cells));
        sim_ns.push_back(r.simulated_s * 1e9);
        m_agreed += r.agreed ? 1 : 0;
    }
    const double n = static_cast<double>(kModelledNets);
    report.e2e("chip_rps", n / sim_s, "1/s");
    report.e2e("chip_energy_nj", energy * 1e9 / n, "nJ");
    report.e2e("accuracy", static_cast<double>(m_agreed) / n, "share");
    report.e2e("modelled_latency_p50_ms", quantile(sim_ms, 0.5), "ms");
    report.e2e("modelled_latency_p99_ms", quantile(sim_ms, 0.99), "ms");
    report.e2e("availability",
               static_cast<double>(tally.agreed) /
                   static_cast<double>(tally.verified),
               "share");

    if (!opt.trace)
        return;
    std::vector<double> prep_us, build_us, run_us;
    double ev = 0.0, run_s = 0.0;
    for (const NetRun &r : best.traced) {
        prep_us.push_back(r.prepare_s * 1e6);
        build_us.push_back(r.build_s * 1e6);
        run_us.push_back(r.run_s * 1e6);
        ev += static_cast<double>(r.events);
        run_s += r.run_s;
    }
    report.layer("compiler.cosim_prepare_us_per_net", median(prep_us),
                 "us");
    report.layer("fabric.build_us_per_net", median(build_us), "us");
    report.layer("fabric.cells_per_net", mean(cells), "count");
    report.layer("sfq.run_us_per_net", median(run_us), "us");
    report.layer("sfq.events_per_s", ev / run_s, "1/s");
    report.layer("sfq.events_per_net", mean(events), "count");
    report.layer("sfq.violations", static_cast<double>(tally.violations),
                 "count");
    report.layer("sfq.simulated_ns_per_net", mean(sim_ns), "ns");
    report.layer("trace.overhead_pct",
                 (best.rate(best.untraced) / best.rate(best.traced) - 1.0) *
                     100.0,
                 "%");
}

} // namespace perfbench
