/**
 * @file
 * The two serving workloads on the trained paper-size model
 * (INPUT784-FC800-FC10, stateless, T = 5).
 *
 *  - serve_real_batched: a ClockMode::Real Server, 2 replicas,
 *    max_batch 8, driven closed-loop by one generator thread that keeps
 *    16 requests outstanding.
 *  - serve_virtual_sparse: the same model split one layer per chip
 *    into a 2-stage plan over the modelled NoC, served by a
 *    ClockMode::Virtual Server fed open-loop Poisson arrivals with
 *    deadlines, 3 priorities, retries, hedging and crash chaos.
 *
 * Set-up (data, training, binarization, model I/O, compile) repeats
 * kSetupReps times per run; setup_s is the median. Every served
 * response is checked against a direct SushiChip::inferCounts of the
 * same sample.
 */

#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <string>

#include "bench.hh"
#include "common/rng.hh"
#include "compiler/cost_model.hh"
#include "data/synth_digits.hh"
#include "engine/inference_engine.hh"
#include "noc/transport.hh"
#include "serve/load_gen.hh"
#include "serve/server.hh"
#include "snn/binarize.hh"
#include "snn/model_io.hh"
#include "snn/train.hh"

namespace perfbench {

using namespace sushi;

namespace {

constexpr std::size_t kTrainSamples = 4000;
constexpr std::size_t kPoolSamples = 512; ///< held-out digits served
constexpr int kTSteps = 5;
constexpr int kSetupReps = 3;
constexpr double kAccuracyFloor = 0.75;

/// @name serve_real_batched load.
/// @{
constexpr int kRealReplicas = 2;
constexpr std::size_t kOutstanding = 16;
/** Requests per timed block, ~30 ms at the host's fast mode. */
constexpr std::size_t kBlockRequests = 128;
constexpr double kWarmupSeconds = 0.5;
/** Longest the generator waits before rescanning its requests. */
constexpr std::chrono::microseconds kPoll{100};
/// @}

/// @name serve_virtual_sparse load.
/// @{
constexpr double kVirtualRateRps = 150.0;
constexpr std::size_t kRoundRequests = 200;
/** Rounds whose modelled figures are reported (fixed, so they repeat
 *  exactly for a seed however many rounds the host fits in). */
constexpr std::size_t kModelledRounds = 100;
constexpr std::size_t kReplayPrefix = 100;
/// @}

/** Seed of the training data and weights. The served model is a fixed
 *  artifact, like a checkpoint; --seed picks the workload's inputs. */
constexpr std::uint64_t kModelSeed = 2023;

/** Keyed-draw streams, so each input is a pure function of its seed. */
enum Stream : std::uint64_t {
    kDataSeed = 1,
    kInitSeed,
    kShuffleSeed,
    kEncodeSeed,
    kPoolDataSeed,
    kPoolEncodeSeed,
    kPick,
    kRoundSeed,
    kChaosSeed,
};

std::uint64_t
sub(std::uint64_t seed, Stream s, std::uint64_t i = 0)
{
    return keyedBits(seed, s, i);
}

compiler::ChipConfig
flagshipChip()
{
    compiler::ChipConfig cfg;
    cfg.n = 16;
    cfg.sc_per_npe = 10;
    return cfg;
}

/** Budget that fits each layer alone but never both: one layer per
 *  chip, a 2-stage plan. */
compiler::DriverOptions
layerPerChip(const snn::BinarySnn &net, const compiler::ChipConfig &chip)
{
    compiler::CostModel model(chip.n, chip.sc_per_npe);
    long biggest = 0;
    for (const auto &layer : net.layers())
        biggest = std::max(biggest, model.layerCost(layer).totalJjs());
    compiler::DriverOptions opts;
    opts.enforce_budget = true;
    opts.allow_multichip = true;
    opts.budget.sc_per_npe = chip.sc_per_npe;
    opts.budget.jj_cap = model.fabricJjs() + biggest;
    opts.budget.area_cap_mm2 = 1e9;
    return opts;
}

/** One set-up's products and timings. */
struct Flagship
{
    std::shared_ptr<const engine::CompiledModel> model;
    std::vector<engine::Sample> pool;
    std::vector<int> labels;
    std::string model_text;

    double generate_s = 0.0;
    double train_s = 0.0;
    double binarize_s = 0.0;
    double model_io_s = 0.0;
    double compile_s = 0.0;
    double total_s = 0.0;
};

Flagship
setUp(std::uint64_t seed, bool layer_per_chip, Tracer &tracer,
      Report &report)
{
    Tracer::Scope whole(tracer, "setup");
    Flagship f;

    data::Dataset train;
    {
        Tracer::Scope s(tracer, "data.generate");
        train = data::synthDigits(kTrainSamples,
                                  sub(kModelSeed, kDataSeed));
        auto held_out =
            data::synthDigits(kPoolSamples, sub(seed, kPoolDataSeed));
        f.pool = engine::encodeSamples(held_out.images, kTSteps,
                                       sub(seed, kPoolEncodeSeed));
        f.labels = std::move(held_out.labels);
        f.generate_s = s.elapsed();
    }

    snn::SnnConfig cfg;
    cfg.t_steps = kTSteps;
    cfg.stateless = true; // hidden = 800: the paper-size model
    snn::SnnMlp mlp(cfg, sub(kModelSeed, kInitSeed));
    {
        Tracer::Scope s(tracer, "snn.train");
        snn::TrainConfig tc;
        tc.epochs = 1;
        tc.shuffle_seed = sub(kModelSeed, kShuffleSeed);
        tc.encoder_seed = sub(kModelSeed, kEncodeSeed);
        snn::Trainer(mlp, tc).fit(train.images, train.labels);
        f.train_s = s.elapsed();
    }

    snn::BinarySnn bin = [&] {
        Tracer::Scope s(tracer, "snn.binarize");
        auto b = snn::BinarySnn::fromFloat(mlp);
        f.binarize_s = s.elapsed();
        return b;
    }();

    // Round-trip through the sushi-ssnn v1 text format: the served
    // model is the one read back.
    snn::BinarySnn loaded = [&] {
        Tracer::Scope s(tracer, "snn.model_io");
        f.model_text = snn::binarySnnToString(bin);
        auto b = snn::binarySnnFromString(f.model_text);
        f.model_io_s = s.elapsed();
        return b;
    }();
    report.gate(snn::binarySnnToString(loaded) == f.model_text,
                "sushi-ssnn v1 round trip changed the model");

    {
        Tracer::Scope s(tracer, "compiler.compile");
        const auto chip = flagshipChip();
        f.model = layer_per_chip
                      ? engine::CompiledModel::compile(
                            loaded, chip, layerPerChip(loaded, chip))
                      : engine::CompiledModel::compile(loaded, chip);
        f.compile_s = s.elapsed();
    }

    f.total_s = whole.elapsed();
    return f;
}

/**
 * Repeat set-up kSetupReps times; report setup_s and the setup layer
 * timings as medians, and require every repetition to train the
 * byte-identical model.
 */
Flagship
setUpRepeated(const Options &opt, bool layer_per_chip, Tracer &tracer,
              Report &report)
{
    std::vector<double> total, gen, train, bin, io, comp;
    Flagship f;
    std::string first_text;
    for (int r = 0; r < kSetupReps; ++r) {
        f = setUp(opt.seed, layer_per_chip, tracer, report);
        if (r == 0)
            first_text = f.model_text;
        else
            report.gate(f.model_text == first_text,
                        "set-up repetitions trained different models");
        total.push_back(f.total_s);
        gen.push_back(f.generate_s * 1e3);
        train.push_back(f.train_s);
        bin.push_back(f.binarize_s * 1e3);
        io.push_back(f.model_io_s * 1e3);
        comp.push_back(f.compile_s * 1e3);
    }
    report.e2e("setup_s", median(total), "s");
    report.layer("data.generate_ms", median(gen), "ms");
    report.layer("snn.train_s", median(train), "s");
    report.layer("snn.binarize_ms", median(bin), "ms");
    report.layer("snn.model_io_ms", median(io), "ms");
    report.layer("compiler.compile_ms", median(comp), "ms");
    report.layer("compiler.plan_stages", f.model->stageCount(), "count");
    return f;
}

/** Direct single-chip results of every pool sample: the oracle served
 *  responses are checked against. */
struct Reference
{
    std::vector<std::vector<int>> counts;
    std::vector<chip::InferenceStats> stats;
    double accuracy = 0.0;
};

Reference
directReference(const engine::CompiledModel &model,
                const Flagship &f, Tracer &tracer)
{
    Tracer::Scope s(tracer, "reference");
    // Multi-chip plans are bit-identical to the single-chip legacy
    // compile of the same network; that compile is the oracle.
    auto single = model.multiChip()
                      ? engine::CompiledModel::compile(model.network(),
                                                       model.chip())
                      : nullptr;
    const auto &net = single ? single->compiled() : model.compiled();
    chip::SushiChip chip(model.chip());
    Reference ref;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < f.pool.size(); ++i) {
        chip.resetStats();
        ref.counts.push_back(chip.inferCounts(net, f.pool[i]));
        ref.stats.push_back(chip.stats());
        const auto &c = ref.counts.back();
        const int pred = static_cast<int>(
            std::max_element(c.begin(), c.end()) - c.begin());
        hits += pred == f.labels[i] ? 1 : 0;
    }
    ref.accuracy = static_cast<double>(hits) /
                   static_cast<double>(f.pool.size());
    return ref;
}

/** The trained-model gates shared by both serving workloads. */
void
modelGates(const Reference &ref, Report &report)
{
    std::uint64_t spikes = 0;
    for (const auto &st : ref.stats)
        spikes += st.output_spikes;
    report.gate(spikes > 0, "trained model emits no output spikes");
    report.gate(ref.accuracy >= kAccuracyFloor,
                "held-out accuracy " + std::to_string(ref.accuracy) +
                    " below floor " + std::to_string(kAccuracyFloor));
}

/** Exact per-sample chip counts, means over @p stats. */
void
chipCounts(const std::vector<chip::InferenceStats> &stats,
           Report &report)
{
    std::vector<double> syn, reload, spikes, est_us, share, under;
    for (const auto &st : stats) {
        syn.push_back(static_cast<double>(st.synaptic_ops));
        reload.push_back(static_cast<double>(st.reload_events));
        spikes.push_back(static_cast<double>(st.output_spikes));
        est_us.push_back(st.est_time_ps * 1e-6);
        share.push_back(st.est_time_ps > 0.0
                            ? st.reload_time_ps / st.est_time_ps
                            : 0.0);
        under.push_back(static_cast<double>(st.underflow_spikes));
    }
    report.layer("chip.synaptic_ops", mean(syn), "count");
    report.layer("chip.reload_events", mean(reload), "count");
    report.layer("chip.output_spikes", mean(spikes), "count");
    report.layer("chip.est_time_us", mean(est_us), "us");
    report.layer("chip.reload_time_share", mean(share), "share");
    report.layer("chip.underflow_spikes", mean(under), "count");
}

/** Time stepLayer per layer, on one fresh chip, over the first 64
 *  pool samples. */
void
probeStepLayer(const engine::CompiledModel &model, const Flagship &f,
               Tracer &tracer, Report &report)
{
    // (compiled layer, binary layer) in network order.
    std::vector<std::pair<const compiler::CompiledLayer *,
                          const snn::BinaryLayer *>>
        layers;
    for (int s = 0; s < model.stageCount(); ++s) {
        const auto &net = model.stageNet(s);
        for (std::size_t l = 0; l < net.layers.size(); ++l)
            layers.emplace_back(&net.layers[l], &net.net->layers()[l]);
    }
    chip::SushiChip chip(model.chip());
    std::vector<std::vector<double>> us(layers.size());
    for (std::size_t i = 0; i < 64 && i < f.pool.size(); ++i) {
        for (const auto &frame : f.pool[i]) {
            chip::PulseVector act(frame.begin(), frame.end());
            for (std::size_t l = 0; l < layers.size(); ++l) {
                Tracer::Scope s(tracer, l == 0 ? "chip.stepLayer.0"
                                               : "chip.stepLayer.1");
                act = chip.stepLayer(*layers[l].first,
                                     *layers[l].second, act);
                us[l].push_back(s.elapsed() * 1e6);
            }
        }
    }
    report.layer("chip.layer0_step_us", median(us[0]), "us");
    report.layer("chip.layer1_step_us", median(us.back()), "us");
}

/** Median host microseconds per sample of runOnReplica at @p batch. */
double
probeReplica(std::shared_ptr<const engine::CompiledModel> model,
             const engine::EngineConfig &cfg, const Flagship &f,
             std::size_t batch, Tracer &tracer,
             std::vector<chip::InferenceStats> *per_sample)
{
    engine::EngineConfig one = cfg;
    one.replicas = 1;
    engine::InferenceEngine eng(std::move(model), one);
    std::vector<double> us;
    for (std::size_t i = 0; i + batch <= f.pool.size() && i < 256;
         i += batch) {
        std::vector<const engine::Sample *> ptrs;
        for (std::size_t k = 0; k < batch; ++k)
            ptrs.push_back(&f.pool[i + k]);
        Tracer::Scope s(tracer, "engine.runOnReplica");
        auto run = eng.runOnReplica(0, ptrs.data(), ptrs.size());
        us.push_back(s.elapsed() * 1e6 / static_cast<double>(batch));
        if (per_sample != nullptr)
            for (auto &st : run.per_sample)
                per_sample->push_back(std::move(st));
    }
    return median(us);
}

/// ---------------------------------------------------------------
/// serve_real_batched
/// ---------------------------------------------------------------

/** kBlockRequests consecutive resolutions of one closed-loop pass. */
struct RealBlock
{
    double host_s = 0.0;
    std::size_t ops = 0; ///< served requests
    /** Per served request: its index k and submit-to-completion time. */
    std::vector<std::uint64_t> request;
    std::vector<double> latency_ms;
    std::vector<double> submit_us, queue_ms, service_ms;
};

/** What every closed-loop pass observed, kept or not (for the gates). */
struct RealTally
{
    std::uint64_t submitted = 0;
    std::uint64_t served = 0;
    std::uint64_t rejected = 0;
    std::uint64_t mismatches = 0;
    std::vector<std::uint8_t> pool_seen;
};

/** The order in which requests visit the pool: a seeded shuffle, so
 *  any kPoolSamples consecutive requests serve every held-out digit. */
std::vector<std::size_t>
poolOrder(std::uint64_t seed, std::size_t pool)
{
    std::vector<std::size_t> order(pool);
    for (std::size_t i = 0; i < pool; ++i)
        order[i] = i;
    Rng rng(sub(seed, kPick));
    for (std::size_t i = pool; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

/**
 * One closed-loop pass from this one thread: keep kOutstanding requests
 * in flight; each resolution submits the next request. Request k serves
 * pool sample order[k % pool], so every pass replays the same stream.
 * Requests are submitted in whole blocks (see bestOfPasses); block b is
 * resolutions kBlockRequests * b .. kBlockRequests * (b + 1) - 1, and
 * its host time runs from the previous block's last resolution (or the
 * pass start) to its own last. Latency is submit to completion on the
 * server's clock.
 *
 * Host times here are raw, not normalised: the replicas' worker threads
 * do the work, and a calibration sample on this thread does not track
 * their speed (in a probe it widened the spread of block times).
 */
std::vector<RealBlock>
closedLoopPass(serve::Server &server, const Flagship &f,
               const Reference &ref, const std::vector<std::size_t> &order,
               double budget_s, std::size_t blocks, Tracer &tracer,
               RealTally &tally)
{
    struct InFlight
    {
        std::future<serve::Response> fut;
        std::int64_t submit_ns;
        std::size_t idx;
        std::uint64_t k;
        Clock::time_point start;
        double submit_us;
    };
    std::deque<InFlight> q;
    std::vector<RealBlock> out;
    RealBlock cur;
    std::size_t resolved = 0;
    const auto t0 = Clock::now();
    auto block_start = t0;
    std::uint64_t k = 0;
    bool submitting = true;
    for (;;) {
        while (submitting && q.size() < kOutstanding) {
            if (k % kBlockRequests == 0 &&
                !moreBlocks(k / kBlockRequests, budget_s, blocks, t0)) {
                submitting = false;
                break;
            }
            const std::size_t idx = order[k % order.size()];
            InFlight in{{}, server.now(), idx, k, Clock::now(), 0.0};
            {
                Tracer::Scope s(tracer, "serve.submit",
                                static_cast<std::int64_t>(k));
                in.fut = server.submit(f.pool[idx]);
                in.submit_us = s.elapsed() * 1e6;
            }
            q.push_back(std::move(in));
            ++tally.submitted;
            ++k;
        }
        if (q.empty())
            break;
        // Refill as soon as any request resolves, not just the oldest:
        // wait briefly on the oldest, then harvest every ready one.
        q.front().fut.wait_for(kPoll);
        for (auto it = q.begin(); it != q.end();) {
            if (it->fut.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                ++it;
                continue;
            }
            const serve::Response r = it->fut.get();
            const auto done = Clock::now();
            tracer.record("serve.request", it->start, done, -1,
                          static_cast<std::int64_t>(it->k));
            if (r.ok()) {
                ++tally.served;
                ++cur.ops;
                tally.pool_seen[it->idx] = 1;
                if (r.result.counts != ref.counts[it->idx])
                    ++tally.mismatches;
                cur.request.push_back(it->k);
                cur.latency_ms.push_back(
                    static_cast<double>(r.complete_ns - it->submit_ns) /
                    1e6);
                cur.submit_us.push_back(it->submit_us);
                cur.queue_ms.push_back(static_cast<double>(r.queueNs()) /
                                       1e6);
                cur.service_ms.push_back(
                    static_cast<double>(r.serviceNs()) / 1e6);
            } else {
                ++tally.rejected;
            }
            it = q.erase(it);
            if (++resolved % kBlockRequests == 0) {
                cur.host_s = std::chrono::duration<double>(
                                 done - block_start)
                                 .count();
                block_start = done;
                out.push_back(std::move(cur));
                cur = RealBlock{};
            }
        }
    }
    return out;
}

/** Concatenation of one field over @p blocks. */
template <class Block>
std::vector<double>
gather(const std::vector<Block> &blocks,
       std::vector<double> Block::*field)
{
    std::vector<double> v;
    for (const Block &b : blocks)
        v.insert(v.end(), (b.*field).begin(), (b.*field).end());
    return v;
}

/** Modelled figures of the pool's direct runs (exact per seed). */
void
modelledFromReference(const Reference &ref, Report &report)
{
    double est_ps = 0.0, energy_j = 0.0;
    std::uint64_t frames = 0;
    std::vector<double> lat_ms;
    for (const auto &st : ref.stats) {
        est_ps += st.est_time_ps;
        energy_j += st.dynamic_energy_j;
        frames += st.frames;
        lat_ms.push_back(st.est_time_ps * 1e-9);
    }
    report.e2e("chip_rps", static_cast<double>(frames) / (est_ps * 1e-12),
               "1/s");
    report.e2e("chip_energy_nj",
               energy_j * 1e9 / static_cast<double>(frames), "nJ");
    report.e2e("accuracy", ref.accuracy, "share");
    report.e2e("modelled_latency_p50_ms", quantile(lat_ms, 0.5), "ms");
    report.e2e("modelled_latency_p99_ms", quantile(lat_ms, 0.99), "ms");
}

} // namespace

void
runServeRealBatched(const Options &opt, Tracer &tracer, Report &report)
{
    const Flagship f = setUpRepeated(opt, false, tracer, report);
    const Reference ref = directReference(*f.model, f, tracer);
    modelGates(ref, report);

    serve::ServerConfig cfg;
    cfg.engine.replicas = kRealReplicas;
    cfg.max_batch = 8;
    cfg.clock = serve::ClockMode::Real;
    serve::Server server(f.model, cfg);

    const auto order = poolOrder(opt.seed, f.pool.size());
    RealTally tally;
    tally.pool_seen.assign(f.pool.size(), 0);
    Tracer quiet(false);
    closedLoopPass(server, f, ref, order, kWarmupSeconds, 0, quiet, tally);
    // Every pass replays requests 0, 1, ...; host latency is each
    // request's lowest over the untraced passes, as rates are each
    // block's.
    std::vector<double> latency;
    const auto best = bestOfPasses<RealBlock>(
        opt.seconds, opt.trace, tracer,
        [&](double budget_s, std::size_t blocks, Tracer &t) {
            auto out = closedLoopPass(server, f, ref, order, budget_s,
                                      blocks, t, tally);
            if (!t.on())
                for (const RealBlock &blk : out)
                    for (std::size_t i = 0; i < blk.request.size(); ++i) {
                        const std::uint64_t k = blk.request[i];
                        if (k >= latency.size())
                            latency.resize(k + 1, HUGE_VAL);
                        latency[k] = std::min(latency[k], blk.latency_ms[i]);
                    }
            return out;
        });
    server.shutdown();
    const serve::ServerMetrics m = server.metrics();

    report.attempted = tally.submitted;
    report.failed = tally.rejected;
    report.gate(tally.mismatches == 0,
                "served counts differ from direct inferCounts");
    std::size_t seen = 0;
    for (const auto s : tally.pool_seen)
        seen += s;
    report.gate(seen == f.pool.size(),
                "not every held-out digit was served");

    report.e2e("host_ops_per_s", best.rate(best.untraced), "1/s");
    report.e2e("host_latency_p50_ms", quantile(latency, 0.5), "ms");
    report.e2e("availability",
               static_cast<double>(tally.served) /
                   static_cast<double>(tally.submitted),
               "share");
    modelledFromReference(ref, report);

    if (!opt.trace)
        return;
    chipCounts(ref.stats, report);
    probeStepLayer(*f.model, f, tracer, report);
    report.layer("engine.replica_us_per_sample_b8",
                 probeReplica(f.model, cfg.engine, f, 8, tracer,
                              nullptr),
                 "us");
    // The tail of the same latencies: too noisy on a shared host for a
    // bound, so it is reported here.
    report.layer("serve.host_latency_p99_ms", quantile(latency, 0.99), "ms");
    const auto submit_us = gather(best.traced, &RealBlock::submit_us);
    const auto queue_ms = gather(best.traced, &RealBlock::queue_ms);
    const auto service_ms = gather(best.traced, &RealBlock::service_ms);
    report.layer("serve.submit_us_p50", quantile(submit_us, 0.5), "us");
    report.layer("serve.submit_us_p99", quantile(submit_us, 0.99), "us");
    report.layer("serve.queue_ms_p50", quantile(queue_ms, 0.5), "ms");
    report.layer("serve.queue_ms_p99", quantile(queue_ms, 0.99), "ms");
    report.layer("serve.service_ms_p50", quantile(service_ms, 0.5), "ms");
    report.layer("serve.service_ms_p99", quantile(service_ms, 0.99), "ms");
    report.layer("serve.batch_size_mean", m.batch_size.mean(), "count");
    std::vector<double> util;
    for (std::size_t r = 0; r < m.replicas.size(); ++r)
        util.push_back(m.utilisation(r));
    report.layer("serve.replica_utilisation", mean(util), "share");
    report.layer("trace.overhead_pct",
                 (best.rate(best.untraced) / best.rate(best.traced) - 1.0) *
                     100.0,
                 "%");
}

/// ---------------------------------------------------------------
/// serve_virtual_sparse
/// ---------------------------------------------------------------

namespace {

serve::ServerConfig
virtualConfig(std::uint64_t seed, std::uint64_t round)
{
    serve::ServerConfig cfg;
    cfg.clock = serve::ClockMode::Virtual;
    cfg.engine.replicas = 2;
    cfg.engine.noc.enabled = true;
    cfg.hot_spares = 1;
    cfg.max_threads = 2;
    cfg.max_batch = 8;
    cfg.max_delay_ns = 1'000'000;
    // Thresholds scale off one sample's virtual service time, ~6 ms
    // (modelled chip ps charged as ns, the server's default surcharge).
    cfg.retry.max_retries = 4;
    cfg.retry.backoff_ns = 1'000'000;
    cfg.hedge.priority_floor = 2;
    cfg.hedge.delay_ns = 12'000'000;
    cfg.breaker.failure_threshold = 16;
    cfg.health.quarantine_after = 2;
    cfg.health.probe_delay_ns = 5'000'000;
    cfg.chaos.seed = sub(seed, kChaosSeed, round);
    cfg.chaos.crash_rate = 0.01;
    cfg.resilience_seed = sub(seed, kChaosSeed, round) ^ 1;
    return cfg;
}

serve::LoadGenConfig
roundLoad(std::uint64_t seed, std::uint64_t round, std::size_t pool)
{
    serve::LoadGenConfig lg;
    lg.rate_rps = kVirtualRateRps;
    lg.requests = kRoundRequests;
    lg.sample_pool = pool;
    lg.seed = sub(seed, kRoundSeed, round);
    lg.deadline_ns = 200'000'000;
    lg.priorities = 3;
    return lg;
}

/** One replayed round: its host time, responses and metrics. */
struct Round
{
    double host_s = 0.0;
    std::size_t ops = 0; ///< requests replayed
    std::uint64_t served = 0;
    std::uint64_t rejected = 0;
    std::uint64_t correct = 0;
    std::uint64_t mismatches = 0;
    std::vector<double> latency_ms, queue_ms, service_ms;
    serve::ServerMetrics metrics;
};

Round
playRound(const Flagship &f, const Reference &ref, std::uint64_t seed,
          std::uint64_t round, std::size_t requests, unsigned threads,
          Tracer &tracer)
{
    serve::ServerConfig cfg = virtualConfig(seed, round);
    cfg.max_threads = threads;
    serve::Server server(f.model, cfg);
    auto arrivals = serve::poissonArrivals(roundLoad(seed, round,
                                                     f.pool.size()));
    arrivals.resize(std::min(arrivals.size(), requests));
    std::vector<std::future<serve::Response>> futs;
    futs.reserve(arrivals.size());
    Round r;
    const auto t0 = Clock::now();
    {
        Tracer::Scope s(tracer, "serve.round",
                        static_cast<std::int64_t>(round));
        for (const auto &a : arrivals) {
            Tracer::Scope sa(tracer, "serve.submitAt");
            futs.push_back(server.submitAt(
                a.arrival_ns, f.pool[a.sample_index], a.opts));
        }
        Tracer::Scope run_s(tracer, "serve.runVirtual");
        server.runVirtual();
    }
    r.host_s = since(t0);
    r.ops = futs.size();
    for (std::size_t i = 0; i < futs.size(); ++i) {
        const serve::Response resp = futs[i].get();
        if (!resp.ok()) {
            ++r.rejected;
            continue;
        }
        const std::size_t idx = arrivals[i].sample_index;
        ++r.served;
        r.correct += resp.result.prediction == f.labels[idx] ? 1 : 0;
        r.mismatches += resp.result.counts != ref.counts[idx] ? 1 : 0;
        r.latency_ms.push_back(
            static_cast<double>(resp.complete_ns - arrivals[i].arrival_ns) /
            1e6);
        r.queue_ms.push_back(static_cast<double>(resp.queueNs()) / 1e6);
        r.service_ms.push_back(static_cast<double>(resp.serviceNs()) /
                               1e6);
    }
    r.metrics = server.metrics();
    return r;
}

} // namespace

void
runServeVirtualSparse(const Options &opt, Tracer &tracer, Report &report)
{
    const Flagship f = setUpRepeated(opt, true, tracer, report);
    report.gate(f.model->stageCount() == 2,
                "layer-per-chip compile did not give a 2-stage plan");
    const Reference ref = directReference(*f.model, f, tracer);
    modelGates(ref, report);

    // Every round replayed, kept or not (for the gates).
    std::uint64_t served = 0, rejected = 0, mismatches = 0;
    const auto tally = [&](const Round &r) {
        served += r.served;
        rejected += r.rejected;
        mismatches += r.mismatches;
    };

    // The modelled set, once and untimed: it warms the caches and gives
    // the exact modelled figures.
    Tracer quiet(false);
    std::vector<Round> modelled;
    for (std::uint64_t r = 0; r < kModelledRounds; ++r) {
        modelled.push_back(
            playRound(f, ref, opt.seed, r, kRoundRequests, 2, quiet));
        tally(modelled.back());
    }

    // Timed blocks are rounds 0, 1, ...
    const auto best = bestOfPasses<Round>(
        opt.seconds, opt.trace, tracer,
        [&](double budget_s, std::size_t blocks, Tracer &t) {
            std::vector<Round> out;
            std::vector<double> kernel_s{HostSpeed::sample()};
            const auto t0 = Clock::now();
            for (std::size_t b = 0; moreBlocks(b, budget_s, blocks, t0);
                 ++b) {
                out.push_back(
                    playRound(f, ref, opt.seed, b, kRoundRequests, 2, t));
                kernel_s.push_back(HostSpeed::sample());
                tally(out.back());
            }
            // Only the host time is normalised; latencies here are
            // virtual.
            const auto scale = HostSpeed::blockScales(kernel_s);
            for (std::size_t b = 0; b < out.size(); ++b)
                out[b].host_s *= scale[b];
            return out;
        });

    // Determinism: a prefix of round 0 replays to byte-identical
    // metrics, at 2 worker threads and at 1.
    {
        Tracer::Scope s(tracer, "serve.replay_prefix");
        const auto a = playRound(f, ref, opt.seed, 0, kReplayPrefix, 2,
                                 quiet);
        const auto b = playRound(f, ref, opt.seed, 0, kReplayPrefix, 1,
                                 quiet);
        report.gate(a.metrics.toJson() == b.metrics.toJson(),
                    "virtual replay prefix is not byte-identical");
    }

    report.attempted = served + rejected;
    report.failed = rejected;
    report.gate(mismatches == 0,
                "served counts differ from direct inferCounts");

    std::vector<double> host_ms_per_req;
    for (const Round &r : best.untraced)
        host_ms_per_req.push_back(r.host_s * 1e3 /
                                  static_cast<double>(r.ops));
    report.e2e("host_ops_per_s", best.rate(best.untraced), "1/s");
    report.e2e("host_latency_p50_ms", quantile(host_ms_per_req, 0.5),
               "ms");

    // Modelled figures: the first kModelledRounds rounds, exact.
    chip::InferenceStats merged;
    std::uint64_t m_served = 0, m_correct = 0, m_submitted = 0,
                  m_on_time = 0, retries = 0, hedges = 0, m_rejected = 0;
    std::vector<double> lat, queue, service, batch;
    for (const Round &r : modelled) {
        const auto &m = r.metrics;
        merged.accumulate(m.merged);
        m_served += r.served;
        m_correct += r.correct;
        m_submitted += m.submitted;
        m_on_time += m.completed - m.deadline_missed;
        retries += m.retries;
        hedges += m.hedges_launched;
        m_rejected += m.rejected_queue_full + m.rejected_deadline +
                      m.rejected_shutdown + m.rejected_breaker +
                      m.rejected_replica_failure;
        lat.insert(lat.end(), r.latency_ms.begin(), r.latency_ms.end());
        queue.insert(queue.end(), r.queue_ms.begin(), r.queue_ms.end());
        service.insert(service.end(), r.service_ms.begin(),
                       r.service_ms.end());
        batch.push_back(m.batch_size.mean());
    }
    const double frames = static_cast<double>(merged.frames);
    report.e2e("chip_rps", frames / (merged.est_time_ps * 1e-12), "1/s");
    report.e2e("chip_energy_nj", merged.dynamic_energy_j * 1e9 / frames,
               "nJ");
    report.e2e("accuracy",
               static_cast<double>(m_correct) /
                   static_cast<double>(m_served),
               "share");
    report.e2e("modelled_latency_p50_ms", quantile(lat, 0.5), "ms");
    report.e2e("modelled_latency_p99_ms", quantile(lat, 0.99), "ms");
    report.e2e("availability",
               static_cast<double>(m_on_time) /
                   static_cast<double>(m_submitted),
               "share");

    if (!opt.trace)
        return;
    probeStepLayer(*f.model, f, tracer, report);

    // Engine at batch 1 on the 2-stage NoC plan; its per-sample NoC
    // counters must equal a replay of the recorded cut activations.
    std::vector<chip::InferenceStats> engine_stats;
    report.layer("engine.replica_us_per_sample_b1",
                 probeReplica(f.model, virtualConfig(opt.seed, 0).engine,
                              f, 1, tracer, &engine_stats),
                 "us");
    chipCounts(engine_stats, report);
    const auto &plan = *f.model->plan();
    std::vector<double> noc_us, flits, hops, hol, lat_ps, util;
    {
        chip::SushiChip c0(f.model->chip()), c1(f.model->chip());
        noc::NocTransport nt(plan, virtualConfig(opt.seed, 0).engine.noc);
        for (std::size_t i = 0; i < engine_stats.size(); ++i) {
            // Record the activations crossing each boundary...
            std::vector<chip::PulseVector> in, cut, out;
            for (const auto &frame : f.pool[i]) {
                in.emplace_back(frame.begin(), frame.end());
                cut.push_back(c0.stepNetwork(f.model->stageNet(0),
                                             in.back()));
                out.push_back(
                    c1.stepNetwork(f.model->stageNet(1), cut.back()));
            }
            // ...then replay them through the transport alone.
            Tracer::Scope s(tracer, "noc.transport");
            nt.beginSample();
            for (std::size_t t = 0; t < in.size(); ++t) {
                nt.beginStep();
                nt.hostIngress(in[t]);
                nt.transferCut(0, cut[t]);
                nt.hostEgress(out[t]);
                nt.endStep();
            }
            const noc::NocSampleStats ns = nt.finishSample();
            noc_us.push_back(s.elapsed() * 1e6);
            report.gate(ns.flits == engine_stats[i].noc_flits,
                        "NoC replay disagrees with the engine");
            flits.push_back(static_cast<double>(ns.flits));
            hops.push_back(static_cast<double>(ns.flit_hops));
            hol.push_back(static_cast<double>(ns.hol_stall_cycles));
            lat_ps.push_back(ns.latency_ps);
            util.push_back(ns.max_link_utilisation);
        }
    }
    report.layer("noc.transport_us_per_sample", median(noc_us), "us");
    report.layer("noc.flits", mean(flits), "count");
    report.layer("noc.flit_hops", mean(hops), "count");
    report.layer("noc.hol_stall_cycles", mean(hol), "count");
    report.layer("noc.latency_ps", mean(lat_ps), "ps");
    report.layer("noc.max_link_utilisation", mean(util), "share");

    std::vector<double> replay_s;
    for (const Round &r : best.traced)
        replay_s.push_back(r.host_s);
    report.layer("serve.queue_ms_p50", quantile(queue, 0.5), "ms");
    report.layer("serve.queue_ms_p99", quantile(queue, 0.99), "ms");
    report.layer("serve.service_ms_p50", quantile(service, 0.5), "ms");
    report.layer("serve.service_ms_p99", quantile(service, 0.99), "ms");
    report.layer("serve.batch_size_mean", mean(batch), "count");
    report.layer("serve.virtual_replay_s", median(replay_s), "s");
    report.layer("serve.retries", static_cast<double>(retries), "count");
    report.layer("serve.hedges_launched", static_cast<double>(hedges),
                 "count");
    report.layer("serve.rejected", static_cast<double>(m_rejected),
                 "count");
    report.layer("trace.overhead_pct",
                 (best.rate(best.untraced) / best.rate(best.traced) - 1.0) *
                     100.0,
                 "%");
}

} // namespace perfbench
