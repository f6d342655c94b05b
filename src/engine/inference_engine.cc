#include "engine/inference_engine.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "snn/encoder.hh"

namespace sushi::engine {

namespace {

/** splitmix64: per-sample seed derivation (order-independent). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void
appendJsonValue(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
}

void
appendJsonValue(std::string &out, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

void
appendJsonValue(std::string &out, const std::vector<std::uint64_t> &v)
{
    out += "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0)
            out += ", ";
        appendJsonValue(out, v[i]);
    }
    out += "]";
}

/** Fold one sample's transport account into its stats delta (the
 *  transport fields of SUSHI_INFERENCE_STATS, sample merge). */
void
foldTransport(chip::InferenceStats &delta,
              const noc::NocSampleStats &ns)
{
#define SUSHI_STAT_FOLD(type, name, kind, ...)                          \
    __VA_OPT__(chip::merge::kind::sample(delta.name, ns.__VA_ARGS__);)
    SUSHI_INFERENCE_STATS(SUSHI_STAT_FOLD)
#undef SUSHI_STAT_FOLD
}

/** True iff @p layer's buckets tile its inputs: then its pack's
 *  active count of a vector is the vector's non-zero entries, what
 *  noc::packetOf counts. */
bool
bucketsTileInputs(const compiler::CompiledLayer &layer)
{
    std::size_t next = 0;
    for (const compiler::Block &bucket : layer.schedule.buckets) {
        if (static_cast<std::size_t>(bucket.begin) != next)
            return false;
        next = static_cast<std::size_t>(bucket.end);
    }
    return next == layer.position.size();
}

} // namespace

double
EngineRun::modeledMakespanPs() const
{
    double makespan = 0.0;
    for (const auto &st : per_replica)
        makespan = std::max(makespan, st.est_time_ps);
    return makespan;
}

InferenceEngine::InferenceEngine(
    std::shared_ptr<const CompiledModel> model,
    const EngineConfig &cfg)
    : model_(std::move(model)), cfg_(cfg)
{
    if (model_ == nullptr)
        throw std::invalid_argument("InferenceEngine needs a model");
    if (cfg_.replicas < 0)
        throw std::invalid_argument(
            "EngineConfig.replicas must be >= 0 (0 selects "
            "parallelWorkers())");
    if (cfg_.shard_block == 0)
        throw std::invalid_argument(
            "EngineConfig.shard_block must be >= 1");
    int replicas = cfg_.replicas;
    if (replicas == 0)
        replicas = static_cast<int>(parallelWorkers());
    cfg_.replicas = replicas;
    // One chip per plan stage per replica group: the whole pipeline
    // of a multi-chip plan is pinned to its group.
    stages_ = model_->stageCount();
    chips_.reserve(static_cast<std::size_t>(replicas * stages_));
    chip_mu_.reserve(static_cast<std::size_t>(replicas));
    for (int r = 0; r < replicas; ++r) {
        for (int s = 0; s < stages_; ++s)
            chips_.push_back(
                std::make_unique<chip::SushiChip>(model_->chip()));
        chip_mu_.push_back(std::make_unique<std::mutex>());
    }
    // Modelled NoC transport: one fabric per replica group, driven
    // sequentially under the replica lock. Single-stage plans have
    // no cut traffic to route, so the toggle is ignored there.
    if (cfg_.noc.enabled && stages_ > 1) {
        const compiler::MultiChipPlan *plan = model_->plan();
        sushi_assert(plan != nullptr);
        noc_.reserve(static_cast<std::size_t>(replicas));
        for (int r = 0; r < replicas; ++r)
            noc_.push_back(
                std::make_unique<noc::NocTransport>(*plan, cfg_.noc));
        // A cut's packet entries are taken from the next stage's
        // first-layer tallies (runOnReplica), which count exactly
        // the cut row's non-zero entries: compiled buckets tile.
        for (int s = 1; s < stages_; ++s)
            sushi_assert(bucketsTileInputs(model_->stageNet(s).layers[0]));
    }
}

void
InferenceEngine::checkReplica(int replica) const
{
    if (replica < 0 || replica >= replicas())
        throw std::out_of_range("replica " + std::to_string(replica) +
                                " outside [0, " +
                                std::to_string(replicas()) + ")");
}

const noc::NocTransport &
InferenceEngine::nocTransport(int replica) const
{
    if (!nocEnabled())
        throw std::logic_error("nocTransport on an engine without NoC");
    checkReplica(replica);
    return *noc_[static_cast<std::size_t>(replica)];
}

void
InferenceEngine::markReplicaDegraded(int replica, int slot)
{
    checkReplica(replica);
    std::lock_guard<std::mutex> lock(
        *chip_mu_[static_cast<std::size_t>(replica)]);
    // The physical failure hits the whole group: every stage chip of
    // the replica remaps the slot (results stay bit-identical; only
    // the time/reload surcharges change). The stage chips are in
    // lockstep, so if stage 0 refuses the mark (and changes nothing)
    // it throws before any chip of the group has changed.
    for (int s = 0; s < stages_; ++s)
        chipAt(replica, s).markNpeFailed(slot);
}

void
InferenceEngine::healReplica(int replica)
{
    checkReplica(replica);
    std::lock_guard<std::mutex> lock(
        *chip_mu_[static_cast<std::size_t>(replica)]);
    for (int s = 0; s < stages_; ++s)
        chipAt(replica, s).clearFailedNpes();
}

bool
InferenceEngine::replicaDegraded(int replica) const
{
    return failedNpeSlots(replica) > 0;
}

int
InferenceEngine::failedNpeSlots(int replica) const
{
    checkReplica(replica);
    std::lock_guard<std::mutex> lock(
        *chip_mu_[static_cast<std::size_t>(replica)]);
    // Degrade/heal keep every stage chip of the group in lockstep,
    // so stage 0 is authoritative.
    return chipAt(replica, 0).remapPlan().failed;
}

int
InferenceEngine::npeSlots() const
{
    return model_->chip().n;
}

ReplicaRun
InferenceEngine::runOnReplica(int replica,
                              const chip::SpikeFrames *const *samples,
                              std::size_t count)
{
    checkReplica(replica);
    // Hold the replica lock so degrade/heal mutations land on batch
    // boundaries.
    std::lock_guard<std::mutex> lock(
        *chip_mu_[static_cast<std::size_t>(replica)]);
    ReplicaRun out;
    out.results.resize(count);
    out.per_sample.resize(count);

    // Every (sample, time step) frame of the batch is an independent
    // vector (the chip counter is fresh per neuron-step), so each
    // stage chip runs the whole batch at once, stage after stage;
    // stage 0 packs the samples' words for its first layer.
    std::vector<chip::NetworkBatch> stage_out(
        static_cast<std::size_t>(stages_));
    chipAt(replica, 0).stepNetworkBatch(model_->stageNet(0),
                                        {samples, count}, stage_out[0]);
    for (int s = 1; s < stages_; ++s)
        chipAt(replica, s).stepNetworkBatch(
            model_->stageNet(s),
            stage_out[static_cast<std::size_t>(s - 1)].out,
            stage_out[static_cast<std::size_t>(s)]);
    const chip::PulseBatch &final_out = stage_out.back().out;

    // Charge the stage chips sample by sample in the serial order —
    // (time step, stage, layer) — so the floating-point totals of
    // every per-sample delta come out byte-identical. The delta
    // merges the stage chips' records (frames/time_steps max,
    // worst-chip utilisation, energy recomputed from the summed
    // synaptic work); a 1-stage plan is the identity merge.
    const std::size_t out_dim =
        model_->network().layers().back().outDim();
    // NoC transport of this replica group (nullptr = ideal
    // transport). It never touches the activations, so spike results
    // are bit-identical either way; it only charges modelled fabric
    // time and congestion counters into the per-sample stats delta.
    noc::NocTransport *nt =
        noc_.empty() ? nullptr
                     : noc_[static_cast<std::size_t>(replica)].get();
    std::size_t v = 0; // vector of (sample i, time step t)
    for (std::size_t i = 0; i < count; ++i) {
        for (int s = 0; s < stages_; ++s) {
            chipAt(replica, s).resetStats();
            chipAt(replica, s).beginFrame();
        }
        if (nt != nullptr)
            nt->beginSample();
        std::vector<int> counts(out_dim, 0);
        for (std::size_t t = 0; t < samples[i]->frames(); ++t, ++v) {
            if (nt != nullptr) {
                nt->beginStep();
                nt->hostIngress(samples[i]->active(t));
            }
            for (int s = 0; s < stages_; ++s) {
                const auto su = static_cast<std::size_t>(s);
                const chip::NetworkBatch &run = stage_out[su];
                chipAt(replica, s).chargeStep(model_->stageNet(s), run,
                                              v);
                if (nt != nullptr && s < stages_ - 1)
                    nt->transferCut(
                        s, stage_out[su + 1].steps[v].active_inputs);
            }
            const auto act = final_out.row(v);
            for (std::size_t o = 0; o < out_dim; ++o)
                counts[o] += act[o];
            chipAt(replica, stages_ - 1).countOutputSpikes(act);
            if (nt != nullptr) {
                nt->hostEgress(act);
                nt->endStep();
            }
        }
        for (int s = 0; s < stages_; ++s)
            chipAt(replica, s).finishRun();

        SampleResult &res = out.results[i];
        res.counts = std::move(counts);
        res.prediction = static_cast<int>(
            std::max_element(res.counts.begin(), res.counts.end()) -
            res.counts.begin());
        chip::InferenceStats delta = chipAt(replica, 0).stats();
        for (int s = 1; s < stages_; ++s)
            delta.accumulatePipeline(chipAt(replica, s).stats());
        if (nt != nullptr) {
            // Fold the sample's transport account into the delta: the
            // fabric serialises the pipeline's cut traffic, so its
            // cycles extend the modelled makespan.
            const noc::NocSampleStats ns = nt->finishSample();
            foldTransport(delta, ns);
            delta.est_time_ps += ns.latency_ps;
        }
        delta.dynamic_energy_j =
            chip::dynamicEnergyJ(delta.synaptic_ops);
        out.per_sample[i] = delta;
    }
    return out;
}

ReplicaRun
InferenceEngine::runOnReplica(int replica,
                              const Sample *const *samples,
                              std::size_t count)
{
    checkReplica(replica);
    const std::size_t width = model_->network().layers().front().inDim();
    std::vector<chip::SpikeFrames> packed;
    packed.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        packed.push_back(chip::packFrames(*samples[i], width));
    std::vector<const chip::SpikeFrames *> ptrs;
    ptrs.reserve(count);
    for (const chip::SpikeFrames &f : packed)
        ptrs.push_back(&f);
    return runOnReplica(replica, ptrs.data(), count);
}

ReplicaRun
InferenceEngine::runOnReplica(int replica,
                              const std::vector<Sample> &samples)
{
    std::vector<const Sample *> ptrs;
    ptrs.reserve(samples.size());
    for (const Sample &s : samples)
        ptrs.push_back(&s);
    return runOnReplica(replica, ptrs.data(), ptrs.size());
}

EngineRun
InferenceEngine::run(const std::vector<Sample> &samples)
{
    const auto wall_start = std::chrono::steady_clock::now();
    const std::size_t n = samples.size();

    EngineRun out;
    out.samples.resize(n);
    out.shard_of.assign(n, -1);
    out.per_replica.assign(chips_.size(), chip::InferenceStats{});

    // Active replica set: drain degraded replicas when asked to and
    // at least one healthy replica remains. (A fully degraded pool
    // still serves — behavioural results are bit-identical, only the
    // time/reload surcharges differ.)
    std::vector<int> active;
    for (int r = 0; r < replicas(); ++r)
        if (!(cfg_.drain_degraded && replicaDegraded(r)))
            active.push_back(r);
    if (active.empty())
        for (int r = 0; r < replicas(); ++r)
            active.push_back(r);
    out.active_replicas = static_cast<int>(active.size());
    if (n == 0)
        return out;

    // Shard plan: block round-robin over the active set, a pure
    // function of (n, active, shard_block).
    std::vector<std::vector<std::size_t>> shards(chips_.size());
    for (std::size_t i = 0; i < n; ++i) {
        const int owner = active[(i / cfg_.shard_block) %
                                 active.size()];
        out.shard_of[i] = owner;
        shards[static_cast<std::size_t>(owner)].push_back(i);
    }

    // Every worker drives its own replicas over their shards; stats
    // are captured per sample (reset before each) so the merge below
    // is independent of sharding and thread count.
    std::vector<chip::InferenceStats> per_sample(n);
    parallelFor(
        active.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t a = begin; a < end; ++a) {
                const auto r =
                    static_cast<std::size_t>(active[a]);
                std::vector<const Sample *> shard_ptrs;
                shard_ptrs.reserve(shards[r].size());
                for (std::size_t i : shards[r])
                    shard_ptrs.push_back(&samples[i]);
                ReplicaRun rr =
                    runOnReplica(active[a], shard_ptrs.data(),
                                 shard_ptrs.size());
                for (std::size_t k = 0; k < shards[r].size(); ++k) {
                    const std::size_t i = shards[r][k];
                    out.samples[i] = std::move(rr.results[k]);
                    per_sample[i] = rr.per_sample[k];
                }
            }
        },
        ParallelOptions{/*grain=*/1, cfg_.max_threads});

    // Deterministic merge: sample-index order, independent of the
    // shard plan and thread count.
    for (std::size_t i = 0; i < n; ++i) {
        out.merged.accumulate(per_sample[i]);
        out.per_replica[static_cast<std::size_t>(out.shard_of[i])]
            .accumulate(per_sample[i]);
    }
    // Energy is a pure function of synaptic work; recompute from the
    // merged totals so the model matches SushiChip's own accounting.
    out.merged.dynamic_energy_j =
        chip::dynamicEnergyJ(out.merged.synaptic_ops);
    for (auto &st : out.per_replica)
        st.dynamic_energy_j = chip::dynamicEnergyJ(st.synaptic_ops);

    out.wall_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    return out;
}

std::vector<Sample>
encodeSamples(const snn::Tensor &images, int t_steps,
              std::uint64_t seed)
{
    const std::size_t n = images.rows();
    const std::size_t dim = images.cols();
    std::vector<Sample> out(n);
    parallelFor(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            snn::PoissonEncoder enc(mix64(seed ^ mix64(i)));
            std::vector<float> pixels(images.row(i),
                                      images.row(i) + dim);
            const snn::Tensor fr = enc.encode(pixels, t_steps);
            Sample sample;
            sample.reserve(static_cast<std::size_t>(t_steps));
            for (int t = 0; t < t_steps; ++t) {
                std::vector<std::uint8_t> frame(dim);
                for (std::size_t d = 0; d < dim; ++d)
                    frame[d] =
                        fr.at(static_cast<std::size_t>(t), d) > 0.5f
                            ? 1
                            : 0;
                sample.push_back(std::move(frame));
            }
            out[i] = std::move(sample);
        }
    });
    return out;
}

std::string
statsJson(const chip::InferenceStats &stats)
{
    std::string out;
#define SUSHI_STAT_JSON(type, name, kind, ...)                          \
    out += out.empty() ? "{\"" #name "\": " : ", \"" #name "\": ";     \
    appendJsonValue(out, stats.name);
    SUSHI_INFERENCE_STATS(SUSHI_STAT_JSON)
#undef SUSHI_STAT_JSON
    out += "}";
    return out;
}

} // namespace sushi::engine
