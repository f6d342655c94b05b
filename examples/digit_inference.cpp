/**
 * @file
 * End-to-end SSNN inference through the batched multi-chip engine:
 * the full Fig. 12 workflow on the synthetic digit task, served the
 * way a production deployment would run it.
 *
 *   train (binarization-aware, stateless)  ->  XNOR binarize  ->
 *   bit-slice compile ONCE (one shared compiled model)  ->
 *   shard the test set across SushiChip replicas  ->  merge
 *   deterministic per-sample results and statistics.
 *
 * Run: ./digit_inference
 */

#include <cstdio>
#include <utility>

#include "data/synth_digits.hh"
#include "engine/inference_engine.hh"
#include "snn/train.hh"

using namespace sushi;

int
main()
{
    // Data: procedurally generated 28x28 digits.
    auto all = data::synthDigits(3000, 42);
    auto [test, train] = data::split(all, 300);
    std::printf("dataset: %zu train / %zu test synthetic digits\n",
                train.size(), test.size());

    // Train a small SSNN exactly as the paper does: T=5 steps,
    // threshold 1.0, adam lr 1e-3, Poisson encoding, XNOR-aware.
    snn::SnnConfig cfg;
    cfg.hidden = 96;
    cfg.t_steps = 5;
    cfg.stateless = true;
    snn::SnnMlp mlp(cfg, 7);
    snn::TrainConfig tc;
    tc.epochs = 2;
    snn::Trainer(mlp, tc).fit(train.images, train.labels);

    // Binarize and compile onto the 16x16-mesh chip — once; every
    // replica runs the same immutable artifact.
    auto bin = snn::BinarySnn::fromFloat(mlp);
    compiler::ChipConfig chip_cfg;
    chip_cfg.n = 16;
    chip_cfg.sc_per_npe = 10;
    auto model = engine::CompiledModel::compile(std::move(bin), chip_cfg);
    const auto &compiled = model->compiled();
    std::printf("compiled: %d input slices x %d output groups "
                "(layer 0), %ld reload events per step\n",
                compiled.layers[0].slices.numInBlocks(),
                compiled.layers[0].slices.numOutBlocks(),
                compiled.totalReloads());
    std::printf("chip budget: %ld of %ld JJs (%.1f%%), "
                "%.2f of %.2f mm^2 (%.1f%%), %ld disabled neurons\n",
                compiled.budget.totalJjs(),
                compiled.budget.budget.jj_cap,
                100.0 * compiled.budget.jjUtilisation(),
                compiled.budget.totalAreaMm2(),
                compiled.budget.budget.area_cap_mm2,
                100.0 * compiled.budget.areaUtilisation(),
                compiled.disabled_count);

    // Encode the test set (per-sample deterministic streams) and run
    // it through a pool of chip replicas.
    const auto samples =
        engine::encodeSamples(test.images, cfg.t_steps, 99);
    engine::EngineConfig ecfg;
    ecfg.replicas = 4;
    engine::InferenceEngine eng(model, ecfg);
    const auto run = eng.run(samples);

    std::size_t hits = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (run.samples[i].prediction == test.labels[i])
            ++hits;
        if (i < 3) { // Fig. 16(d)-style readout
            const auto &counts = run.samples[i].counts;
            std::printf("sample %zu (true %d): ", i, test.labels[i]);
            for (std::size_t c = 0; c < counts.size(); ++c)
                std::printf("%d%s", counts[c],
                            c + 1 < counts.size() ? "," : "");
            std::printf(" -> predict %d\n",
                        run.samples[i].prediction);
        }
    }
    std::printf("chip accuracy: %.2f%% over %zu samples\n",
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(samples.size()),
                samples.size());

    const auto &st = run.merged;
    std::printf("merged stats: %.3g synaptic ops, est. %.3g us of "
                "chip time, %.3g nJ dynamic energy\n",
                static_cast<double>(st.synaptic_ops),
                st.est_time_ps * 1e-6, st.dynamic_energy_j * 1e9);
    std::printf("engine: %d replicas (%d active), %.2f ms host "
                "wall, modelled batch makespan %.3g us\n",
                eng.replicas(), run.active_replicas,
                run.wall_seconds * 1e3,
                run.modeledMakespanPs() * 1e-6);
    return 0;
}
