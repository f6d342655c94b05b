/**
 * @file
 * Unit tests for the common substrate: time units, RNG, stats.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/histogram.hh"
#include "common/rng.hh"
#include "common/time.hh"

namespace sushi {
namespace {

TEST(Time, PsRoundTrip)
{
    EXPECT_EQ(psToTicks(1.0), 1000);
    EXPECT_EQ(psToTicks(19.9), 19900);
    EXPECT_EQ(psToTicks(8.53), 8530);
    EXPECT_DOUBLE_EQ(ticksToPs(psToTicks(5.7)), 5.7);
}

TEST(Time, Seconds)
{
    EXPECT_DOUBLE_EQ(ticksToSeconds(kTicksPerNs), 1e-9);
    EXPECT_DOUBLE_EQ(ticksToSeconds(psToTicks(1.0)), 1e-12);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowBounds)
{
    Rng r(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        auto v = r.below(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all residues hit
}

TEST(Rng, RangeInclusive)
{
    Rng r(5);
    bool lo_seen = false, hi_seen = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        lo_seen |= (v == -3);
        hi_seen |= (v == 3);
    }
    EXPECT_TRUE(lo_seen);
    EXPECT_TRUE(hi_seen);
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double g = r.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ChanceProbability)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkIndependent)
{
    Rng a(99);
    Rng child = a.fork();
    // Child stream differs from the parent's continuation.
    EXPECT_NE(child.next(), a.next());
}

TEST(Histogram, BucketAssignmentAndAggregates)
{
    Histogram h = Histogram::linear(10, 50, 10); // bounds 10..50
    h.sample(1);   // <= 10 -> bucket 0
    h.sample(10);  // inclusive upper bound -> bucket 0
    h.sample(11);  // bucket 1
    h.sample(50);  // bucket 4
    h.sample(999); // overflow
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 1 + 10 + 11 + 50 + 999);
    EXPECT_EQ(h.min(), 1);
    EXPECT_EQ(h.max(), 999);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.bucketCount(h.bounds().size()), 1u); // overflow
    EXPECT_DOUBLE_EQ(h.mean(), (1 + 10 + 11 + 50 + 999) / 5.0);
}

TEST(Histogram, PercentilesAreMonotoneAndClamped)
{
    Histogram h = Histogram::linear(1, 100, 1);
    for (int v = 1; v <= 100; ++v)
        h.sample(v);
    EXPECT_EQ(h.percentile(0.50), 50);
    EXPECT_EQ(h.percentile(0.95), 95);
    EXPECT_EQ(h.percentile(0.99), 99);
    EXPECT_EQ(h.percentile(0.0), 1);   // clamped to min
    EXPECT_EQ(h.percentile(1.0), 100); // clamped to max
    std::int64_t prev = 0;
    for (double p = 0.0; p <= 1.0; p += 0.01) {
        const std::int64_t v = h.percentile(p);
        EXPECT_GE(v, prev);
        prev = v;
    }

    Histogram empty = Histogram::exponential();
    EXPECT_EQ(empty.percentile(0.5), 0);
    EXPECT_EQ(empty.min(), 0);
    EXPECT_EQ(empty.max(), 0);

    // A single sample dominates every percentile, clamped to the
    // observed value even though its bucket bound is coarser.
    Histogram one = Histogram::exponential();
    one.sample(1000); // bucket bound 1024
    EXPECT_EQ(one.percentile(0.5), 1000);
    EXPECT_EQ(one.percentile(0.99), 1000);
}

TEST(Histogram, MergeMatchesBulkAndJsonIsOrderIndependent)
{
    Rng rng(77);
    std::vector<std::int64_t> values;
    for (int i = 0; i < 500; ++i)
        values.push_back(static_cast<std::int64_t>(rng.below(1 << 20)));

    Histogram bulk = Histogram::exponential();
    for (auto v : values)
        bulk.sample(v);

    // Split across two shards, merge, compare bytes.
    Histogram a = Histogram::exponential();
    Histogram b = Histogram::exponential();
    for (std::size_t i = 0; i < values.size(); ++i)
        (i % 2 ? a : b).sample(values[i]);
    a.merge(b);
    EXPECT_EQ(a.json(), bulk.json());

    // Reverse fill order: still byte-identical.
    Histogram rev = Histogram::exponential();
    for (auto it = values.rbegin(); it != values.rend(); ++it)
        rev.sample(*it);
    EXPECT_EQ(rev.json(), bulk.json());

    EXPECT_NE(bulk.json().find("\"count\": 500"), std::string::npos);
    EXPECT_NE(bulk.json().find("\"buckets\": ["), std::string::npos);
}

} // namespace
} // namespace sushi
