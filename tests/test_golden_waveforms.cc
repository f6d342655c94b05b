/**
 * @file
 * Golden waveform regression tests for the SFQ cell library.
 *
 * Each test drives a micro-netlist (PulseSource -> cell -> PulseSink)
 * with a fixed stimulus program and compares the output pulse trace
 * against a checked-in golden file in tests/golden/, using the
 * tolerance-aware differ (sfq::compareTraces) so intentional
 * sub-picosecond timing refactors don't churn the goldens while any
 * sequence change fails loudly.
 *
 * Regenerate the goldens after an intentional timing change with:
 *
 *   ./test_golden_waveforms --update-golden
 *
 * (or SUSHI_UPDATE_GOLDEN=1). The binary links its own main() for the
 * flag, so it must NOT link GTest::gtest_main.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/time.hh"
#include "sfq/cells.hh"
#include "sfq/constraints.hh"
#include "sfq/netlist.hh"
#include "sfq/simulator.hh"
#include "sfq/waveform.hh"

#ifndef SUSHI_GOLDEN_DIR
#define SUSHI_GOLDEN_DIR "tests/golden"
#endif

namespace sushi::sfq {
namespace {

bool g_update_golden = false;

/** Allowed per-pulse jitter between golden and actual: 1 ps. */
Tick
goldenTolerance()
{
    return psToTicks(1.0);
}

std::string
goldenPath(const std::string &name)
{
    return std::string(SUSHI_GOLDEN_DIR) + "/" + name + ".golden.txt";
}

void
writeGolden(const std::string &name, const PulseTrace &trace)
{
    std::ofstream out(goldenPath(name));
    ASSERT_TRUE(out.good())
        << "cannot write " << goldenPath(name)
        << " (does tests/golden/ exist?)";
    out << "# golden pulse trace: " << name << "\n";
    out << "# one arrival tick (fs) per line; regenerate with\n";
    out << "# ./test_golden_waveforms --update-golden\n";
    for (Tick t : trace)
        out << t << "\n";
}

PulseTrace
readGolden(const std::string &name)
{
    std::ifstream in(goldenPath(name));
    EXPECT_TRUE(in.good())
        << "missing golden file " << goldenPath(name)
        << "; run ./test_golden_waveforms --update-golden";
    PulseTrace trace;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        trace.push_back(static_cast<Tick>(std::stoll(line)));
    }
    return trace;
}

/** Compare @p trace against the named golden (or rewrite it). */
void
checkGolden(const std::string &name, const PulseTrace &trace)
{
    if (g_update_golden) {
        writeGolden(name, trace);
        return;
    }
    const PulseTrace golden = readGolden(name);
    EXPECT_EQ(compareTraces(golden, trace, goldenTolerance()), "")
        << name << ": trace diverged from " << goldenPath(name);
}

/** A micro-netlist: one cell, sources on each input, sink on out 0. */
struct MicroBench
{
    Simulator sim;
    Netlist net{sim};
    std::vector<PulseSource *> in;
    PulseSink *out = nullptr;
    Tick gap = safePulseSpacing();
    Tick t = 0;

    MicroBench()
    {
        sim.setViolationPolicy(ViolationPolicy::Fatal);
    }

    void wire(Component &cell, int num_inputs)
    {
        for (int p = 0; p < num_inputs; ++p) {
            auto &src =
                net.makeSource("in" + std::to_string(p));
            net.connectWire(src, 0, cell, p);
            in.push_back(&src);
        }
        out = &net.makeSink("out");
        net.connectWire(cell, 0, *out, 0);
    }

    /** Fire input @p port at the next safely-spaced instant. */
    void fire(int port)
    {
        t += gap;
        in[static_cast<std::size_t>(port)]->pulseAt(t);
    }

    PulseTrace finish()
    {
        sim.run();
        EXPECT_EQ(sim.violations(), 0u);
        return out->pulsesSeen();
    }
};

TEST(GoldenWaveforms, Ndro)
{
    // din arms, each clk reads non-destructively, rst clears
    // (Fig. 3(b)(f); the Sec. 4.1.1 configurable switch).
    MicroBench mb;
    auto &cell = mb.net.makeNdro("ndro");
    mb.wire(cell, 3);
    const int din = 0, rst = 1, clk = 2;
    mb.fire(clk); // not armed: swallowed
    mb.fire(din); // arm
    mb.fire(clk); // read -> pulse
    mb.fire(clk); // read -> pulse (state survives)
    mb.fire(rst); // clear
    mb.fire(clk); // swallowed again
    mb.fire(din); // re-arm
    mb.fire(clk); // read -> pulse
    const PulseTrace trace = mb.finish();
    EXPECT_EQ(trace.size(), 3u); // sequence sanity before diffing
    checkGolden("ndro", trace);
}

TEST(GoldenWaveforms, TffL)
{
    // L-variant toggle: a pulse out on every 0 -> 1 flip, i.e. on
    // odd-numbered inputs (Sec. 2.1.2 E — the frequency divider).
    MicroBench mb;
    auto &cell = mb.net.makeTffl("tff");
    mb.wire(cell, 1);
    for (int i = 0; i < 6; ++i)
        mb.fire(0);
    const PulseTrace trace = mb.finish();
    EXPECT_EQ(trace.size(), 3u);
    checkGolden("tffl", trace);
}

TEST(GoldenWaveforms, Cb)
{
    // Confluence buffer merges both inputs onto one output.
    MicroBench mb;
    auto &cell = mb.net.makeCb("cb");
    mb.wire(cell, 2);
    mb.fire(0);
    mb.fire(1);
    mb.fire(0);
    mb.fire(1);
    mb.fire(1);
    const PulseTrace trace = mb.finish();
    EXPECT_EQ(trace.size(), 5u);
    checkGolden("cb", trace);
}

TEST(GoldenWaveforms, Dff)
{
    // Destructive readout: dout fires only for clk after din, and
    // the read consumes the stored flux (Fig. 3(a)(e)).
    MicroBench mb;
    auto &cell = mb.net.makeDff("dff");
    mb.wire(cell, 2);
    const int din = 0, clk = 1;
    mb.fire(clk); // empty: nothing out
    mb.fire(din); // store
    mb.fire(clk); // release -> pulse
    mb.fire(clk); // empty again: nothing
    mb.fire(din); // store
    mb.fire(clk); // release -> pulse
    const PulseTrace trace = mb.finish();
    EXPECT_EQ(trace.size(), 2u);
    checkGolden("dff", trace);
}


TEST(GoldenWaveforms, DifferAcceptsJitterWithinTolerance)
{
    // The tolerance-aware differ is what keeps sub-ps refactors from
    // churning goldens: shift every pulse by less than the tolerance
    // and the diff must stay clean; shift past it and it must not.
    PulseTrace base{psToTicks(10.0), psToTicks(20.0),
                    psToTicks(30.0)};
    PulseTrace jittered = base;
    for (Tick &t : jittered)
        t += goldenTolerance() - 1;
    EXPECT_EQ(compareTraces(base, jittered, goldenTolerance()), "");
    jittered[1] += 2; // now beyond tolerance
    EXPECT_NE(compareTraces(base, jittered, goldenTolerance()), "");
}

} // namespace
} // namespace sushi::sfq

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden")
            sushi::sfq::g_update_golden = true;
    }
    const char *env = std::getenv("SUSHI_UPDATE_GOLDEN");
    if (env != nullptr && env[0] != '\0' && env[0] != '0')
        sushi::sfq::g_update_golden = true;
    return RUN_ALL_TESTS();
}
