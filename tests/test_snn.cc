/**
 * @file
 * Tests for the SNN framework: tensors, encoder, IF dynamics,
 * training, and XNOR binarization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/kernel_isa.hh"
#include "snn/binarize.hh"
#include "snn/encoder.hh"
#include "snn/network.hh"
#include "snn/tensor_kernel.hh"
#include "snn/train.hh"

namespace sushi::snn {
namespace {

TEST(TensorTest, ShapeAndZero)
{
    Tensor t(3, 4);
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 4u);
    EXPECT_EQ(t.size(), 12u);
    t.at(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
    t.zero();
    EXPECT_FLOAT_EQ(t.at(1, 2), 0.0f);
}

TEST(TensorTest, HeInitMoments)
{
    Rng rng(5);
    Tensor t(100, 400);
    t.heInit(rng, 400);
    double sum = 0, sq = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        sum += t.data()[i];
        sq += static_cast<double>(t.data()[i]) * t.data()[i];
    }
    const double n = static_cast<double>(t.size());
    EXPECT_NEAR(sum / n, 0.0, 0.005);
    EXPECT_NEAR(sq / n, 2.0 / 400.0, 0.0005);
}

TEST(TensorTest, LinearForwardMatchesManual)
{
    Tensor x(2, 3), w(2, 3);
    std::vector<float> bias = {0.5f, -1.0f};
    float xv[] = {1, 2, 3, 0, 1, 0};
    float wv[] = {1, 0, -1, 2, 2, 2};
    std::copy_n(xv, 6, x.data());
    std::copy_n(wv, 6, w.data());
    Tensor out(2, 2);
    linearForward(x, w, bias, out);
    EXPECT_FLOAT_EQ(out.at(0, 0), 1 - 3 + 0.5f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 2 + 4 + 6 - 1.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), 0 + 0.5f);
    EXPECT_FLOAT_EQ(out.at(1, 1), 2 - 1.0f);
}

TEST(TensorTest, LinearBackwardGradCheck)
{
    // Finite-difference check of dW on a tiny layer.
    Rng rng(9);
    const std::size_t B = 3, I = 4, O = 2;
    Tensor x(B, I), w(O, I), dout(B, O);
    std::vector<float> bias(O, 0.0f);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(rng.uniform(-1, 1));
    for (std::size_t i = 0; i < w.size(); ++i)
        w.data()[i] = static_cast<float>(rng.uniform(-1, 1));
    for (std::size_t i = 0; i < dout.size(); ++i)
        dout.data()[i] = static_cast<float>(rng.uniform(-1, 1));

    Tensor dw_t(I, O);
    std::vector<float> db(O, 0.0f);
    linearWeightGrad(x, dout, dw_t, db);

    // L = sum(out * dout): dL/dw analytically equals dw_t^T above.
    auto loss = [&](const Tensor &wt) {
        Tensor out(B, O);
        linearForward(x, wt, bias, out);
        double l = 0;
        for (std::size_t i = 0; i < out.size(); ++i)
            l += static_cast<double>(out.data()[i]) *
                 dout.data()[i];
        return l;
    };
    const float eps = 1e-3f;
    for (std::size_t k = 0; k < w.size(); k += 3) {
        Tensor wp = w;
        wp.data()[k] += eps;
        Tensor wm = w;
        wm.data()[k] -= eps;
        const double fd = (loss(wp) - loss(wm)) / (2 * eps);
        EXPECT_NEAR(fd, dw_t.at(k % I, k / I), 1e-2) << "k=" << k;
    }
}

/** Dense reference of linearInputGrad/linearWeightGrad: every input
 *  is multiplied in; only zero upstream terms are skipped. */
void
denseBackward(const Tensor &x, const Tensor &w, const Tensor &dout,
              Tensor &dw, std::vector<float> &db, Tensor &dx)
{
    const std::size_t batch = x.rows();
    const std::size_t in_dim = x.cols();
    const std::size_t out_dim = w.rows();
    for (std::size_t b = 0; b < batch; ++b) {
        const float *dob = dout.row(b);
        float *dxb = dx.row(b);
        std::fill(dxb, dxb + in_dim, 0.0f);
        for (std::size_t o = 0; o < out_dim; ++o) {
            const float g = dob[o];
            if (g == 0.0f)
                continue;
            const float *wo = w.row(o);
            for (std::size_t i = 0; i < in_dim; ++i)
                dxb[i] += g * wo[i];
        }
    }
    for (std::size_t o = 0; o < out_dim; ++o) {
        float *dwo = dw.row(o);
        float dbo = 0.0f;
        for (std::size_t b = 0; b < batch; ++b) {
            const float g = dout.at(b, o);
            if (g == 0.0f)
                continue;
            dbo += g;
            const float *xb = x.row(b);
            for (std::size_t i = 0; i < in_dim; ++i)
                dwo[i] += g * xb[i];
        }
        db[o] += dbo;
    }
}

Tensor
transposed(const Tensor &t)
{
    Tensor out(t.cols(), t.rows());
    for (std::size_t r = 0; r < t.rows(); ++r)
        for (std::size_t c = 0; c < t.cols(); ++c)
            out.at(c, r) = t.at(r, c);
    return out;
}

bool
sameBytes(const float *a, const float *b, std::size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/** Every linearWeightGrad wrapper this CPU runs (the popcnt ISA
 *  runs the portable one), then the public entry point. */
std::vector<std::pair<const char *, detail::WeightGradFn>>
weightGradWrappers()
{
    std::vector<std::pair<const char *, detail::WeightGradFn>> fns = {
        {"portable", detail::linearWeightGradPortable}};
#if defined(__x86_64__)
    if (cpuSupports(KernelIsa::Avx512Vpopcnt))
        fns.emplace_back("avx512", detail::linearWeightGradAvx512);
#endif
    fns.emplace_back("linearWeightGrad", linearWeightGrad);
    return fns;
}

TEST(TensorTest, SparseBackwardMatchesDenseBitForBit)
{
    Rng rng(61);
    int cases = 0;
    for (const std::size_t batch : {1u, 7u, 64u}) {
        for (const std::size_t in_dim : {1u, 63u, 64u, 784u}) {
            // Widths around every register block: 64-column blocks,
            // 16-column blocks and single columns; 800 outputs split
            // the weight gradient over workers.
            for (const std::size_t out_dim :
                 {1u, 10u, 15u, 16u, 63u, 64u, 65u, 800u}) {
                for (const bool binary : {true, false}) {
                    SCOPED_TRACE(testing::Message()
                                 << "batch " << batch << " in " << in_dim
                                 << " out " << out_dim
                                 << (binary ? " 0/1" : " real"));
                    Tensor x(batch, in_dim), w(out_dim, in_dim);
                    Tensor dout(batch, out_dim);
                    for (std::size_t b = 0; b < batch; ++b) {
                        // Every third row of a multi-row batch is all
                        // zero.
                        if (batch > 1 && b % 3 == 1)
                            continue;
                        for (std::size_t i = 0; i < in_dim; ++i) {
                            if (rng.uniform() < 0.6)
                                continue;
                            x.at(b, i) =
                                binary ? 1.0f
                                       : static_cast<float>(
                                             rng.uniform(-2, 2));
                        }
                    }
                    for (std::size_t k = 0; k < w.size(); ++k)
                        w.data()[k] =
                            static_cast<float>(rng.uniform(-1, 1));
                    // Negative, positive and exactly zero upstream
                    // terms.
                    for (std::size_t k = 0; k < dout.size(); ++k)
                        dout.data()[k] =
                            rng.uniform() < 0.25
                                ? 0.0f
                                : static_cast<float>(rng.uniform(-1, 1));
                    // A non-zero starting gradient (no -0 entries).
                    Tensor dw(out_dim, in_dim);
                    std::vector<float> db(out_dim);
                    for (std::size_t k = 0; k < dw.size(); ++k)
                        dw.data()[k] =
                            static_cast<float>(rng.uniform(-1e-3, 1e-3));
                    for (auto &v : db)
                        v = static_cast<float>(rng.uniform(-1e-3, 1e-3));

                    const Tensor dw_t0 = transposed(dw);
                    const std::vector<float> db0 = db;
                    Tensor dx(batch, in_dim), dx_ref(batch, in_dim);
                    denseBackward(x, w, dout, dw, db, dx_ref);
                    linearInputGrad(w, dout, dx);
                    EXPECT_TRUE(
                        sameBytes(dx.data(), dx_ref.data(), dx.size()));
                    for (const auto &[name, fn] : weightGradWrappers()) {
                        Tensor dw_t = dw_t0;
                        std::vector<float> db_new = db0;
                        fn(x, dout, dw_t, db_new);
                        const Tensor back = transposed(dw_t);
                        EXPECT_TRUE(
                            sameBytes(back.data(), dw.data(), dw.size()))
                            << name;
                        EXPECT_TRUE(
                            sameBytes(db_new.data(), db.data(), out_dim))
                            << name;
                    }
                    ++cases;
                }
            }
        }
    }
    EXPECT_EQ(cases, 192);
}

TEST(TensorTest, WeightGradAccumulatesAcrossCallsLikeDense)
{
    // The trainer accumulates one call per time step into a
    // zero-filled buffer; cancelling terms must leave +0, not -0.
    const std::size_t batch = 5, in_dim = 70, out_dim = 300;
    Rng rng(67);
    Tensor w(out_dim, in_dim), dw(out_dim, in_dim), dw_t(in_dim, out_dim);
    std::vector<float> db(out_dim, 0.0f), db_new(out_dim, 0.0f);
    for (int step = 0; step < 4; ++step) {
        Tensor x(batch, in_dim), dout(batch, out_dim), dx(batch, in_dim);
        for (std::size_t k = 0; k < x.size(); ++k)
            x.data()[k] = rng.uniform() < 0.3 ? 1.0f : 0.0f;
        for (std::size_t k = 0; k < dout.size(); ++k) {
            // Pairs of rows that cancel exactly, and -0 terms.
            const std::size_t b = k / out_dim;
            dout.data()[k] = b % 2 == 1 ? -dout.data()[k - out_dim]
                             : rng.uniform() < 0.2
                                 ? -0.0f
                                 : static_cast<float>(rng.uniform(-1, 1));
        }
        denseBackward(x, w, dout, dw, db, dx);
        linearWeightGrad(x, dout, dw_t, db_new);
    }
    const Tensor back = transposed(dw_t);
    EXPECT_TRUE(sameBytes(back.data(), dw.data(), dw.size()));
    EXPECT_TRUE(sameBytes(db_new.data(), db.data(), out_dim));
}

TEST(Encoder, RateMatchesIntensity)
{
    PoissonEncoder enc(3);
    std::vector<float> pixels = {0.0f, 0.25f, 1.0f};
    const int t = 4000;
    Tensor frames = enc.encode(pixels, t);
    double counts[3] = {0, 0, 0};
    for (int s = 0; s < t; ++s)
        for (int i = 0; i < 3; ++i)
            counts[i] += frames.at(static_cast<std::size_t>(s),
                                   static_cast<std::size_t>(i));
    EXPECT_DOUBLE_EQ(counts[0], 0.0);
    EXPECT_NEAR(counts[1] / t, 0.25, 0.03);
    EXPECT_DOUBLE_EQ(counts[2], static_cast<double>(t));
}

TEST(Encoder, Deterministic)
{
    std::vector<float> pixels(50, 0.5f);
    PoissonEncoder a(7), b(7);
    Tensor fa = a.encode(pixels, 10);
    Tensor fb = b.encode(pixels, 10);
    for (std::size_t i = 0; i < fa.size(); ++i)
        EXPECT_EQ(fa.data()[i], fb.data()[i]);
}

TEST(IfDynamics, StatefulAccumulatesAcrossSteps)
{
    SnnConfig cfg;
    cfg.input = 1;
    cfg.hidden = 1;
    cfg.output = 1;
    cfg.t_steps = 3;
    cfg.stateless = false;
    SnnMlp net(cfg, 1);
    // Hidden weight 0.5: needs two input spikes to reach theta=1.
    net.w1.at(0, 0) = 0.5f;
    net.b1[0] = 0.0f;
    net.w2.at(0, 0) = 1.0f;
    net.b2[0] = 0.0f;

    std::vector<Tensor> frames(3, Tensor(1, 1));
    for (auto &f : frames)
        f.at(0, 0) = 1.0f;
    Tensor counts = net.forward(frames);
    // Hidden membrane: 0.5, 1.0 (fire, reset), 0.5 — one hidden
    // spike, which drives one output spike (weight 1 = theta).
    EXPECT_FLOAT_EQ(counts.at(0, 0), 1.0f);
}

TEST(IfDynamics, StatelessNeverAccumulates)
{
    SnnConfig cfg;
    cfg.input = 1;
    cfg.hidden = 1;
    cfg.output = 1;
    cfg.t_steps = 4;
    cfg.stateless = true;
    SnnMlp net(cfg, 1);
    net.w1.at(0, 0) = 0.5f; // below threshold every step
    net.b1[0] = 0.0f;
    net.w2.at(0, 0) = 1.0f;
    net.b2[0] = 0.0f;
    std::vector<Tensor> frames(4, Tensor(1, 1));
    for (auto &f : frames)
        f.at(0, 0) = 1.0f;
    Tensor counts = net.forward(frames);
    EXPECT_FLOAT_EQ(counts.at(0, 0), 0.0f);
}

TEST(Surrogate, PeaksAtThreshold)
{
    const float at0 = surrogateGrad(0.0f, 2.0f);
    EXPECT_GT(at0, surrogateGrad(1.0f, 2.0f));
    EXPECT_GT(at0, surrogateGrad(-1.0f, 2.0f));
    EXPECT_FLOAT_EQ(surrogateGrad(0.5f, 2.0f),
                    surrogateGrad(-0.5f, 2.0f));
}

TEST(Training, LossDecreasesOnToyTask)
{
    // Two obvious classes: left-half-on vs right-half-on images.
    const std::size_t n = 200, dim = 16;
    Tensor images(n, dim);
    std::vector<int> labels(n);
    Rng rng(17);
    for (std::size_t i = 0; i < n; ++i) {
        const int cls = static_cast<int>(rng.below(2));
        labels[i] = cls;
        for (std::size_t d = 0; d < dim; ++d) {
            const bool on = cls == 0 ? d < dim / 2 : d >= dim / 2;
            images.at(i, d) = on ? 0.9f : 0.05f;
        }
    }
    SnnConfig cfg;
    cfg.input = dim;
    cfg.hidden = 16;
    cfg.output = 2;
    cfg.t_steps = 4;
    cfg.stateless = true;
    SnnMlp net(cfg, 2);
    TrainConfig tc;
    tc.epochs = 15;
    tc.batch = 20;
    // Plain float training: the binary-aware path is covered by
    // Binarize.BinaryAwareTrainingIsConsistent.
    tc.binary_aware = false;
    Trainer trainer(net, tc);
    auto stats = trainer.fit(images, labels);
    EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
    EXPECT_GT(stats.epoch_train_acc.back(), 0.85);
    EXPECT_GT(evaluate(net, images, labels), 0.85);
}

/** Hidden row of w1 that alphaRoundsToZero() degrades. */
constexpr std::size_t kZeroAlphaRow = 5;

/** Make row kZeroAlphaRow of @p w all zero but one denormal: its mean
 *  |w| is positive in double but rounds to float 0, so the layer does
 *  not pack and the forward takes the dense float path. */
void
alphaRoundsToZero(Tensor &w)
{
    for (std::size_t d = 0; d < w.cols(); ++d)
        w.at(kZeroAlphaRow, d) = 0.0f;
    w.at(kZeroAlphaRow, 7) = std::numeric_limits<float>::denorm_min();
}

/** FNV-1a 64 over the bytes of w1, b1, w2 and b2 after a small
 *  binary-aware Trainer::fit, optionally from weights whose first
 *  step runs dense (alphaRoundsToZero). */
std::uint64_t
fitWeightsHash(bool stateless, bool zero_alpha_row = false)
{
    // 90 samples at batch 16 leave a ragged last batch of 10; 100
    // inputs leave a ragged 64-bit word in the packed forward.
    const std::size_t n = 90, dim = 100;
    Tensor images(n, dim);
    std::vector<int> labels(n);
    Rng rng(41);
    for (std::size_t i = 0; i < n; ++i) {
        const int cls = static_cast<int>(rng.below(4));
        labels[i] = cls;
        for (std::size_t d = 0; d < dim; ++d)
            images.at(i, d) = static_cast<float>(
                rng.uniform() *
                (static_cast<int>(d % 4) == cls ? 1.0 : 0.3));
    }
    SnnConfig cfg;
    cfg.input = dim;
    cfg.hidden = 48;
    cfg.output = 4;
    cfg.t_steps = 4;
    cfg.stateless = stateless;
    SnnMlp net(cfg, 43);
    if (zero_alpha_row) {
        alphaRoundsToZero(net.w1);
        // Both builders of the packed layer refuse the row.
        EXPECT_FALSE(packed::PackedLayer::fromFloat(net.w1, net.b1)
                         .packable());
        EXPECT_FALSE(packed::PackedLayer::fromEffective(
                         binaryEffectiveWeights(net.w1), net.b1)
                         .packable());
    }
    TrainConfig tc;
    tc.epochs = 2;
    tc.batch = 16;
    Trainer(net, tc).fit(images, labels);

    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&](const float *p, std::size_t count) {
        const auto *bytes = reinterpret_cast<const unsigned char *>(p);
        for (std::size_t k = 0; k < count * sizeof(float); ++k) {
            h ^= bytes[k];
            h *= 0x100000001b3ULL;
        }
    };
    mix(net.w1.data(), net.w1.size());
    mix(net.b1.data(), net.b1.size());
    mix(net.w2.data(), net.w2.size());
    mix(net.b2.data(), net.b2.size());
    return h;
}

TEST(Training, FitWeightsPinned)
{
    // Recorded with the dense backward loops: the sparse backward
    // must reproduce the trainer's float arithmetic exactly.
    EXPECT_EQ(fitWeightsHash(true), 0x44c61cab515cd833ULL)
        << std::hex << fitWeightsHash(true);
    EXPECT_EQ(fitWeightsHash(false), 0xfdd1eff57ca2f444ULL)
        << std::hex << fitWeightsHash(false);
}

TEST(Training, FitThroughDensePathPinned)
{
    // Recorded before the trainer packed its layers straight from the
    // float weights: a row whose alpha rounds to 0 still runs the
    // first step through the dense effective weights.
    EXPECT_EQ(fitWeightsHash(true, true), 0x6f67b21587665c40ULL)
        << std::hex << fitWeightsHash(true, true);
    EXPECT_EQ(fitWeightsHash(false, true), 0xe28e76681bcd858fULL)
        << std::hex << fitWeightsHash(false, true);
}

/** Bytes of every parameter of @p net. */
std::vector<float>
parameters(const SnnMlp &net)
{
    std::vector<float> all(net.w1.data(), net.w1.data() + net.w1.size());
    all.insert(all.end(), net.b1.begin(), net.b1.end());
    all.insert(all.end(), net.w2.data(), net.w2.data() + net.w2.size());
    all.insert(all.end(), net.b2.begin(), net.b2.end());
    return all;
}

TEST(Training, BadInputThrowsBeforeAnyChange)
{
    SnnConfig cfg;
    cfg.input = 12;
    cfg.hidden = 6;
    cfg.output = 3;
    cfg.t_steps = 2;
    cfg.stateless = true;
    const std::size_t n = 10;
    Tensor images(n, cfg.input), wide(n, cfg.input + 1);
    std::vector<int> labels(n);
    Rng rng(71);
    for (std::size_t i = 0; i < n; ++i) {
        labels[i] = static_cast<int>(rng.below(3));
        for (std::size_t d = 0; d < cfg.input; ++d)
            images.at(i, d) = static_cast<float>(rng.uniform());
    }
    const std::vector<int> short_labels(labels.begin(), labels.end() - 1);
    TrainConfig tc;
    tc.epochs = 2;
    tc.batch = 4;

    // Each bad call throws naming both sizes, then the same trainer
    // trains exactly as a fresh one: weights and Adam state untouched.
    SnnMlp net(cfg, 5), fresh(cfg, 5);
    Trainer trainer(net, tc);
    const std::vector<float> before = parameters(net);
    const auto throwsNaming = [&](auto &&call, const std::string &a,
                                  const std::string &b) {
        try {
            call();
            ADD_FAILURE() << "no throw";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(a), std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find(b), std::string::npos)
                << e.what();
        }
        EXPECT_EQ(parameters(net), before);
    };
    throwsNaming([&] { trainer.fit(images, short_labels); }, "10", "9");
    throwsNaming([&] { trainer.fit(wide, labels); }, "13", "12");
    throwsNaming([&] { (void)evaluate(net, images, short_labels); }, "10",
                 "9");
    throwsNaming([&] { (void)evaluate(net, wide, labels); }, "13", "12");
    const std::vector<Tensor> narrow(2, Tensor(4, cfg.input - 1));
    const std::vector<Tensor> one_step(1, Tensor(4, cfg.input));
    throwsNaming([&] { trainer.step(narrow, {0, 1, 2, 0}); }, "11", "12");
    throwsNaming([&] { trainer.step(one_step, {0, 1, 2, 0}); }, "1", "2");
    throwsNaming([&] { (void)net.predict(narrow); }, "11", "12");
    throwsNaming(
        [&] {
            trainer.step(std::vector<Tensor>(2, Tensor(4, cfg.input)),
                         {0, 1, 2});
        },
        "4", "3");
    EXPECT_THROW(trainer.fit(Tensor(0, cfg.input), {}),
                 std::invalid_argument);
    TrainConfig no_batch = tc;
    no_batch.batch = 0;
    EXPECT_THROW(Trainer(net, no_batch), std::invalid_argument);

    trainer.fit(images, labels);
    Trainer(fresh, tc).fit(images, labels);
    EXPECT_EQ(parameters(net), parameters(fresh));
}

TEST(Binarize, SignsAndThresholds)
{
    Tensor w(2, 4);
    float wv[] = {0.5f, -0.5f, 0.25f, -0.25f, // alpha = 0.375
                  1.0f, 1.0f, 1.0f, 1.0f};    // alpha = 1
    std::copy_n(wv, 8, w.data());
    std::vector<float> b = {0.0f, 0.5f};
    BinaryLayer layer = binarizeLayer(w, b, 1.0f);
    EXPECT_EQ(layer.weights[0],
              (std::vector<std::int8_t>{1, -1, 1, -1}));
    EXPECT_EQ(layer.weights[1],
              (std::vector<std::int8_t>{1, 1, 1, 1}));
    // ceil((1 - 0) / 0.375) = 3; ceil((1 - 0.5) / 1) = 1.
    EXPECT_EQ(layer.thresholds[0], 3);
    EXPECT_EQ(layer.thresholds[1], 1);
}

TEST(Binarize, SynapsePolarityCounts)
{
    BinaryLayer layer;
    layer.weights = {{1, -1, 1}, {-1, -1, 1}};
    layer.thresholds = {1, 1};
    EXPECT_EQ(layer.positiveSynapses(), 3);
    EXPECT_EQ(layer.negativeSynapses(), 3);
}

TEST(Binarize, EffectiveWeightsPreserveSignAndScale)
{
    Rng rng(23);
    Tensor w(3, 8);
    for (std::size_t i = 0; i < w.size(); ++i)
        w.data()[i] = static_cast<float>(rng.uniform(-2, 2));
    Tensor eff = binaryEffectiveWeights(w);
    for (std::size_t o = 0; o < 3; ++o) {
        double alpha = 0;
        for (std::size_t i = 0; i < 8; ++i)
            alpha += std::fabs(w.at(o, i));
        alpha /= 8.0;
        for (std::size_t i = 0; i < 8; ++i) {
            EXPECT_NEAR(std::fabs(eff.at(o, i)), alpha, 1e-5);
            EXPECT_EQ(eff.at(o, i) > 0, w.at(o, i) >= 0.0f);
        }
    }
}

TEST(Binarize, StatelessStepMatchesMembraneRule)
{
    BinaryLayer layer;
    layer.weights = {{1, -1, 1}, {-1, -1, -1}};
    layer.thresholds = {1, 0};
    auto net = BinarySnn::fromLayers({layer}, 1);
    // Frame {1,0,1}: neuron 0 membrane 2 >= 1 -> fire;
    // neuron 1 membrane -2 < 0 -> silent.
    auto out = net.stepForward({1, 0, 1});
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[1], 0);
    // Frame {0,0,0}: membranes 0 -> neuron 1 (theta 0) fires.
    out = net.stepForward({0, 0, 0});
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[1], 1);
}

TEST(Binarize, CountsAccumulateOverSteps)
{
    BinaryLayer layer;
    layer.weights = {{1, 1}};
    layer.thresholds = {2};
    auto net = BinarySnn::fromLayers({layer}, 3);
    std::vector<std::vector<std::uint8_t>> frames = {
        {1, 1}, {1, 0}, {1, 1}};
    auto counts = net.forwardCounts(frames);
    EXPECT_EQ(counts[0], 2); // fires at steps 0 and 2
    EXPECT_EQ(net.predict(frames), 0);
}

TEST(Binarize, WrongFrameWidthThrows)
{
    // A 3-input net fed a 2-wide frame: the packed net (all weights
    // +-1) and a net with a zero weight, which keeps the scalar path.
    BinaryLayer packed_layer;
    packed_layer.weights = {{1, -1, 1}, {-1, 1, 1}};
    packed_layer.thresholds = {1, 1};
    BinaryLayer scalar_layer = packed_layer;
    scalar_layer.weights[0][1] = 0;
    const std::vector<std::uint8_t> narrow = {1, 0};
    for (const bool packed : {true, false}) {
        const BinaryLayer &layer = packed ? packed_layer : scalar_layer;
        const auto net = BinarySnn::fromLayers({layer}, 2);
        EXPECT_EQ(net.packedReady(), packed);
        EXPECT_THROW(net.stepForward(narrow), std::invalid_argument);
        EXPECT_THROW(net.forwardCounts({narrow, narrow}),
                     std::invalid_argument);
        EXPECT_THROW(net.predict({{1, 0, 1}, narrow}),
                     std::invalid_argument);
        EXPECT_THROW(BinarySnn::membrane(layer, 0, narrow),
                     std::invalid_argument);
        EXPECT_THROW(BinarySnn::membrane(layer, 2, {1, 0, 1}),
                     std::out_of_range);
        try {
            net.stepForward(narrow);
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("2"),
                      std::string::npos);
            EXPECT_NE(std::string(e.what()).find("3"),
                      std::string::npos);
        }
        // The right width still works.
        EXPECT_EQ(net.stepForward({1, 0, 1}).size(), 2u);
    }
}

TEST(Binarize, FromLayersRejectsUnchainedWidths)
{
    // 3 -> 2, then a layer that wants 3 inputs: the widths do not
    // chain, so assembly refuses instead of stepForward aborting.
    BinaryLayer first;
    first.weights = {{1, -1, 1}, {-1, 1, 1}};
    first.thresholds = {1, 1};
    BinaryLayer wants3;
    wants3.weights = {{1, 1, 1}};
    wants3.thresholds = {1};
    EXPECT_THROW(BinarySnn::fromLayers({first, wants3}, 2),
                 std::invalid_argument);
    try {
        BinarySnn::fromLayers({first, wants3}, 2);
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("layer 1"),
                  std::string::npos);
    }
    EXPECT_THROW(BinarySnn::fromLayers({}, 2), std::invalid_argument);
    EXPECT_THROW(BinarySnn::fromLayers({first}, 0),
                 std::invalid_argument);
    EXPECT_THROW(BinarySnn::fromLayers({first}, -3),
                 std::invalid_argument);

    // A chaining pair still assembles and steps.
    BinaryLayer wants2;
    wants2.weights = {{1, 1}};
    wants2.thresholds = {1};
    const auto net = BinarySnn::fromLayers({first, wants2}, 2);
    EXPECT_EQ(net.stepForward({1, 0, 1}).size(), 1u);
}

TEST(Binarize, BinaryAwareTrainingIsConsistent)
{
    // After binarization-aware stateless training, the binarized
    // network must agree exactly with the effective-binary float
    // model (same inequality over integers).
    const std::size_t n = 120, dim = 16;
    Tensor images(n, dim);
    std::vector<int> labels(n);
    Rng rng(29);
    for (std::size_t i = 0; i < n; ++i) {
        const int cls = static_cast<int>(rng.below(2));
        labels[i] = cls;
        for (std::size_t d = 0; d < dim; ++d)
            images.at(i, d) =
                ((cls == 0) == (d < dim / 2)) ? 0.9f : 0.1f;
    }
    SnnConfig cfg;
    cfg.input = dim;
    cfg.hidden = 8;
    cfg.output = 2;
    cfg.t_steps = 4;
    cfg.stateless = true;
    SnnMlp net(cfg, 31);
    TrainConfig tc;
    tc.epochs = 3;
    tc.batch = 20;
    Trainer(net, tc).fit(images, labels);

    SnnMlp eff = toEffectiveBinary(net);
    auto bin = BinarySnn::fromFloat(net);
    PoissonEncoder enc(55);
    for (std::size_t i = 0; i < 30; ++i) {
        std::vector<float> pix(images.row(i), images.row(i) + dim);
        Tensor fr = enc.encode(pix, cfg.t_steps);
        std::vector<Tensor> frames;
        std::vector<std::vector<std::uint8_t>> bframes;
        for (int t = 0; t < cfg.t_steps; ++t) {
            Tensor one(1, dim);
            std::vector<std::uint8_t> bf(dim);
            for (std::size_t d = 0; d < dim; ++d) {
                one.at(0, d) =
                    fr.at(static_cast<std::size_t>(t), d);
                bf[d] = one.at(0, d) > 0.5f;
            }
            frames.push_back(one);
            bframes.push_back(bf);
        }
        EXPECT_EQ(bin.predict(bframes), eff.predict(frames)[0])
            << "sample " << i;
    }
}

} // namespace
} // namespace sushi::snn
