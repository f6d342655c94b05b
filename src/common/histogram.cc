#include "common/histogram.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/stats.hh"

namespace sushi {

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1, 0)
{
    sushi_assert(!bounds_.empty());
    for (std::size_t i = 1; i < bounds_.size(); ++i)
        sushi_assert(bounds_[i - 1] < bounds_[i]);
}

Histogram
Histogram::exponential()
{
    std::vector<std::int64_t> bounds;
    bounds.reserve(41);
    for (int p = 0; p <= 40; ++p)
        bounds.push_back(std::int64_t{1} << p);
    return Histogram(std::move(bounds));
}

Histogram
Histogram::linear(std::int64_t lo, std::int64_t hi, std::int64_t step)
{
    sushi_assert(step > 0 && lo <= hi);
    std::vector<std::int64_t> bounds;
    for (std::int64_t b = lo; b <= hi; b += step)
        bounds.push_back(b);
    return Histogram(std::move(bounds));
}

void
Histogram::sample(std::int64_t v)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), v);
    ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

void
Histogram::merge(const Histogram &other)
{
    sushi_assert(bounds_ == other.bounds_);
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
}

double
Histogram::mean() const
{
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
}

std::int64_t
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    p = std::clamp(p, 0.0, 1.0);
    auto rank = static_cast<std::uint64_t>(
        p * static_cast<double>(count_) + 0.9999999999);
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= rank) {
            const std::int64_t le =
                i < bounds_.size() ? bounds_[i] : max_;
            return std::clamp(le, min_, max_);
        }
    }
    return max_;
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    sushi_assert(i < counts_.size());
    return counts_[i];
}

std::string
Histogram::json() const
{
    std::string out = "{";
    out += "\"count\": " + std::to_string(count_);
    out += ", \"sum\": " + std::to_string(sum_);
    out += ", \"min\": " + std::to_string(min());
    out += ", \"max\": " + std::to_string(max());
    out += ", \"mean\": " + JsonWriter::number(mean());
    out += ", \"p50\": " + std::to_string(percentile(0.50));
    out += ", \"p95\": " + std::to_string(percentile(0.95));
    out += ", \"p99\": " + std::to_string(percentile(0.99));
    out += ", \"buckets\": [";
    bool first = true;
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += "{\"le\": " + std::to_string(bounds_[i]) +
               ", \"n\": " + std::to_string(counts_[i]) + "}";
    }
    out += "], \"overflow\": " + std::to_string(counts_.back());
    out += "}";
    return out;
}

} // namespace sushi
