/**
 * @file
 * Fixed-bucket latency/size histogram for the serving layer.
 *
 * Buckets are frozen at construction (a sorted list of inclusive
 * upper bounds plus one implicit overflow bucket), samples are
 * integers, and every aggregate (count, sum, min, max, per-bucket
 * counts) is integer-valued — so filling order never changes the
 * result and two histograms built from the same multiset of samples
 * render byte-identical JSON. Histograms with identical bounds merge
 * by bucket-wise addition, which keeps the per-replica → global
 * rollup deterministic too.
 *
 * Percentiles are bucket-resolution: percentile(p) returns the upper
 * bound of the bucket holding the rank-p sample, clamped to the
 * observed [min, max]. That is deterministic and monotone in p,
 * which is all the serving metrics need.
 */

#ifndef SUSHI_COMMON_HISTOGRAM_HH
#define SUSHI_COMMON_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sushi {

class JsonWriter;

/** Fixed-bucket, mergeable, byte-deterministic histogram. */
class Histogram
{
  public:
    /** @param bounds strictly increasing inclusive upper bounds;
     *  values above the last bound land in the overflow bucket. */
    explicit Histogram(std::vector<std::int64_t> bounds);

    /** Power-of-two bounds 1, 2, 4, ... 2^40 — six decades of
     *  nanoseconds at ~2x resolution, the latency default. */
    static Histogram exponential();

    /** Linear bounds lo, lo+step, ... up to hi (inclusive). */
    static Histogram linear(std::int64_t lo, std::int64_t hi,
                            std::int64_t step);

    /** Record one sample. */
    void sample(std::int64_t v);

    /** Bucket-wise merge; bounds must be identical. */
    void merge(const Histogram &other);

    std::uint64_t count() const { return count_; }
    std::int64_t sum() const { return sum_; }
    std::int64_t min() const { return count_ ? min_ : 0; }
    std::int64_t max() const { return count_ ? max_ : 0; }
    double mean() const;

    /** Upper bound of the bucket holding the rank-ceil(p*count)
     *  sample, clamped to [min, max]; 0 on an empty histogram.
     *  @param p in [0, 1]. */
    std::int64_t percentile(double p) const;

    const std::vector<std::int64_t> &bounds() const { return bounds_; }

    /** Count in bucket @p i; i == bounds().size() is the overflow
     *  bucket. */
    std::uint64_t bucketCount(std::size_t i) const;

    /**
     * Byte-deterministic single-line JSON object:
     * {"count": .., "sum": .., "min": .., "max": .., "mean": ..,
     *  "p50": .., "p95": .., "p99": ..,
     *  "buckets": [{"le": b, "n": c}, ...], "overflow": c}
     * Only non-empty buckets are listed. Splice into a document with
     * JsonWriter::rawField.
     */
    std::string json() const;

  private:
    std::vector<std::int64_t> bounds_;
    std::vector<std::uint64_t> counts_; ///< bounds_.size() + 1 slots
    std::uint64_t count_ = 0;
    std::int64_t sum_ = 0;
    std::int64_t min_ = 0;
    std::int64_t max_ = 0;
};

} // namespace sushi

#endif // SUSHI_COMMON_HISTOGRAM_HH
