#include "compiler/bucketing.hh"

#include <algorithm>
#include <numeric>

namespace sushi::compiler {

namespace {

/**
 * Sort keys for reordering, one per input: the input's polarity
 * signature across output columns, summarised as (negative-synapse
 * count, first few signs). Inputs with similar signatures end up
 * adjacent, so the row-major deal across slices reuses crosspoint
 * configurations. One row-major pass over the weights.
 */
std::vector<long>
signatureKeys(const snn::BinaryLayer &layer)
{
    const std::size_t in_dim = layer.inDim();
    std::vector<long> neg(in_dim, 0), lead_bits(in_dim, 0);
    // Tie-break on the leading column signs for stability of the
    // grouping.
    const std::size_t lead = std::min<std::size_t>(16, layer.outDim());
    for (std::size_t o = 0; o < layer.outDim(); ++o) {
        const auto &row = layer.weights[o];
        for (std::size_t i = 0; i < in_dim; ++i)
            neg[i] += row[i] < 0 ? 1 : 0;
        if (o < lead)
            for (std::size_t i = 0; i < in_dim; ++i)
                lead_bits[i] = (lead_bits[i] << 1) | (row[i] > 0 ? 1 : 0);
    }
    std::vector<long> keys(in_dim);
    for (std::size_t i = 0; i < in_dim; ++i)
        keys[i] = (neg[i] << (16 + lead)) | lead_bits[i];
    return keys;
}

} // namespace

LayerSchedule
scheduleLayer(const snn::BinaryLayer &layer, const BucketingConfig &cfg)
{
    const int in_dim = static_cast<int>(layer.inDim());
    LayerSchedule sched;
    sched.order.resize(static_cast<std::size_t>(in_dim));
    std::iota(sched.order.begin(), sched.order.end(), 0);

    if (cfg.reorder) {
        const std::vector<long> keys = signatureKeys(layer);
        std::vector<int> sorted = sched.order;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [&](int a, int b) {
                             return keys[static_cast<std::size_t>(a)] <
                                    keys[static_cast<std::size_t>(b)];
                         });
        // Deal the sorted inputs row-major across slices: the
        // crosspoint at mesh row r then sees a contiguous sorted run
        // across adjacent slices, which is what lets adjacent
        // batches share NDRO configurations (Sec. 4.2.2).
        const int width = std::max(1, cfg.mesh_width);
        const int blocks = (in_dim + width - 1) / width;
        std::size_t take = 0;
        for (int r = 0; r < width && take < sorted.size(); ++r) {
            for (int b = 0; b < blocks; ++b) {
                const int pos = b * width + r;
                if (pos >= in_dim)
                    continue;
                sched.order[static_cast<std::size_t>(pos)] =
                    sorted[take++];
            }
        }
    }

    if (cfg.bucketing) {
        const int bs = std::max(1, cfg.bucket_size);
        std::vector<Block> buckets;
        for (int b = 0; b < in_dim; b += bs)
            buckets.push_back(Block{b, std::min(in_dim, b + bs)});

        // "Possible firing spikes appear last" (Sec. 5.1): order
        // the buckets by ascending aggregate net weight, so
        // net-inhibitory buckets run first and the threshold
        // crossings land in the final, net-excitatory buckets. The
        // within-bucket pos/neg pairing keeps each dip bounded.
        std::vector<long> net(buckets.size(), 0);
        for (std::size_t b = 0; b < buckets.size(); ++b) {
            for (int k = buckets[b].begin; k < buckets[b].end;
                 ++k) {
                const auto idx = static_cast<std::size_t>(
                    sched.order[static_cast<std::size_t>(k)]);
                for (std::size_t o = 0; o < layer.outDim(); ++o)
                    net[b] += layer.weights[o][idx];
            }
        }
        std::vector<std::size_t> perm(buckets.size());
        std::iota(perm.begin(), perm.end(), 0);
        std::stable_sort(perm.begin(), perm.end(),
                         [&](std::size_t a, std::size_t b) {
                             return net[a] < net[b];
                         });
        // Rebuild the order array bucket-by-bucket in the new
        // sequence and re-anchor the bucket ranges.
        std::vector<int> new_order;
        new_order.reserve(sched.order.size());
        std::vector<Block> new_buckets;
        for (std::size_t p : perm) {
            const int begin = static_cast<int>(new_order.size());
            for (int k = buckets[p].begin; k < buckets[p].end; ++k)
                new_order.push_back(
                    sched.order[static_cast<std::size_t>(k)]);
            new_buckets.push_back(
                Block{begin, static_cast<int>(new_order.size())});
        }
        sched.order = std::move(new_order);
        sched.buckets = std::move(new_buckets);
    } else {
        sched.buckets.push_back(Block{0, in_dim});
    }
    return sched;
}

StateRangeReport
analyzeStateRange(const snn::BinaryLayer &layer,
                  const LayerSchedule &schedule,
                  const BucketingConfig &cfg)
{
    StateRangeReport report;
    report.state_budget = 1 << cfg.state_bits;

    int worst = 0, worst_unbucketed = 0;
    for (std::size_t o = 0; o < layer.outDim(); ++o) {
        const auto &w = layer.weights[o];
        const int theta = std::max(1, layer.thresholds[o]);

        // Walk the schedule: inhibitory pass then excitatory pass
        // per bucket, all inputs active (worst case).
        int sum = 0, min_sum = 0;
        long total_neg = 0;
        for (const Block &bucket : schedule.buckets) {
            int neg = 0, pos = 0;
            for (int k = bucket.begin; k < bucket.end; ++k) {
                const int idx =
                    schedule.order[static_cast<std::size_t>(k)];
                if (w[static_cast<std::size_t>(idx)] < 0)
                    ++neg;
                else
                    ++pos;
            }
            total_neg += neg;
            sum -= neg;
            min_sum = std::min(min_sum, sum);
            sum += pos;
        }
        // The counter needs theta states above the preload and
        // |min_sum| below it.
        worst = std::max(worst, theta - min_sum);
        worst_unbucketed =
            std::max(worst_unbucketed,
                     theta + static_cast<int>(total_neg));
    }
    report.required_states = worst;
    report.required_states_unbucketed = worst_unbucketed;
    return report;
}

long
countReloads(const snn::BinaryLayer &layer,
             const LayerSchedule &schedule, int mesh_width)
{
    sushi_assert(mesh_width >= 1);
    const int in_dim = static_cast<int>(layer.inDim());
    const int blocks = (in_dim + mesh_width - 1) / mesh_width;
    long reloads = 0;
    // Crosspoint (r, j) is used by the input at position
    // b * mesh_width + r of the schedule in block b.
    for (int r = 0; r < mesh_width; ++r) {
        for (std::size_t o = 0; o < layer.outDim(); ++o) {
            int prev_sign = 0; // unknown: the first block always
                               // configures, counted once below
            for (int b = 0; b < blocks; ++b) {
                const int pos = b * mesh_width + r;
                if (pos >= in_dim)
                    break;
                const int idx =
                    schedule.order[static_cast<std::size_t>(pos)];
                const int sign =
                    layer.weights[o][static_cast<std::size_t>(idx)] <
                            0
                        ? -1
                        : 1;
                if (sign != prev_sign)
                    ++reloads;
                prev_sign = sign;
            }
        }
    }
    return reloads;
}

} // namespace sushi::compiler
