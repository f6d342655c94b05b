#include "snn/network.hh"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "snn/binarize.hh"
#include "snn/packed.hh"

namespace sushi::snn {

SnnMlp::SnnMlp(const SnnConfig &cfg, std::uint64_t seed) : cfg_(cfg)
{
    Rng rng(seed);
    w1 = Tensor(cfg.hidden, cfg.input);
    w1.heInit(rng, cfg.input);
    b1.assign(cfg.hidden, 0.0f);
    w2 = Tensor(cfg.output, cfg.hidden);
    w2.heInit(rng, cfg.hidden);
    b2.assign(cfg.output, 0.0f);
}

namespace {

/**
 * One IF step over a whole batch layer: v_pre = v + h, fire, hard
 * reset. Writes the pre-fire membrane and spikes; updates v in
 * place (paper Eqs. (1)-(3)).
 */
void
ifStep(Tensor &v, const Tensor &h, float theta, Tensor &v_pre,
       Tensor &s)
{
    float *vp = v.data(), *pre_p = v_pre.data(), *sp = s.data();
    const float *hp = h.data();
    const std::size_t n = v.size();
    for (std::size_t i = 0; i < n; ++i) {
        const float pre = vp[i] + hp[i];
        // pre >= theta as the quiet compare, an int: the same value
        // for every input, NaN included, and the loop vectorises.
        const auto spike =
            static_cast<float>(__builtin_isgreaterequal(pre, theta));
        pre_p[i] = pre;
        sp[i] = spike;
        vp[i] = pre * (1.0f - spike);
    }
}

/** Throw std::invalid_argument unless @p frames are t_steps frames of
 *  one batch, each cfg.input wide. */
void
checkFrames(const SnnConfig &cfg, const std::vector<Tensor> &frames)
{
    if (frames.empty() ||
        frames.size() != static_cast<std::size_t>(cfg.t_steps))
        throw std::invalid_argument(
            std::to_string(frames.size()) + " frames for a network of " +
            std::to_string(cfg.t_steps) + " time steps");
    for (std::size_t t = 0; t < frames.size(); ++t) {
        if (frames[t].cols() != cfg.input)
            throw std::invalid_argument(
                "frame " + std::to_string(t) + " is " +
                std::to_string(frames[t].cols()) +
                " wide, the network input " + std::to_string(cfg.input));
        if (frames[t].rows() != frames[0].rows())
            throw std::invalid_argument(
                "frame " + std::to_string(t) + " has " +
                std::to_string(frames[t].rows()) + " rows, frame 0 " +
                std::to_string(frames[0].rows()));
    }
}

/**
 * The IF network over every frame (paper Eqs. (1)-(3)), with each
 * layer's charge supplied: charge1(t, h1) from frame t, charge2(s1,
 * h2) from the hidden spikes.
 */
template <class Charge1, class Charge2>
Tensor
runSteps(const SnnConfig &cfg, const std::vector<Tensor> &frames,
         ForwardTrace *trace, Charge1 &&charge1, Charge2 &&charge2)
{
    const std::size_t batch = frames[0].rows();
    const float theta = cfg.threshold;

    Tensor v1(batch, cfg.hidden), v2(batch, cfg.output);
    Tensor h1(batch, cfg.hidden), h2(batch, cfg.output);
    Tensor counts(batch, cfg.output);

    // Each step writes its activations straight into the trace, or,
    // without one, into a single reused slot. Every element is
    // written, so a trace of the right shape is reused as it stands.
    ForwardTrace local;
    ForwardTrace &tr = trace ? *trace : local;
    const std::size_t slots = trace ? frames.size() : 1;
    const auto shape = [&](std::vector<Tensor> &seq, std::size_t width) {
        seq.resize(slots);
        for (Tensor &m : seq)
            if (m.rows() != batch || m.cols() != width)
                m = Tensor(batch, width);
    };
    shape(tr.v1_pre, cfg.hidden);
    shape(tr.s1, cfg.hidden);
    shape(tr.v2_pre, cfg.output);
    shape(tr.s2, cfg.output);

    for (std::size_t t = 0; t < frames.size(); ++t) {
        const std::size_t k = trace ? t : 0;
        if (cfg.stateless) {
            // Stateless neuron (Sec. 5.1): zero membrane each step.
            v1.zero();
            v2.zero();
        }

        // Hidden layer: charge (Eq. 1), fire (Eq. 2), reset (Eq. 3).
        charge1(t, h1);
        ifStep(v1, h1, theta, tr.v1_pre[k], tr.s1[k]);

        // Output layer driven by the hidden spikes.
        charge2(tr.s1[k], h2);
        ifStep(v2, h2, theta, tr.v2_pre[k], tr.s2[k]);

        const Tensor &s2 = tr.s2[k];
        for (std::size_t i = 0; i < counts.size(); ++i)
            counts.data()[i] += s2.data()[i];
    }
    return counts;
}

/**
 * The XNOR/popcount charge: bias + alpha * (integer bit dot), which
 * equals the element-wise scalar backend bit for bit (the tests
 * compare the two). Runs when both layers are packable and every
 * frame is a 0/1 spike matrix; returns nothing, having run nothing,
 * otherwise.
 */
std::optional<Tensor>
runPacked(const SnnConfig &cfg, const packed::PackedLayer &p1,
          const packed::PackedLayer &p2, const std::vector<Tensor> &frames,
          ForwardTrace *trace)
{
    if (!p1.packable() || !p2.packable())
        return std::nullopt;
    std::vector<packed::PackedActivations> px(frames.size());
    for (std::size_t t = 0; t < frames.size(); ++t)
        if (!packed::packFloatRows(frames[t], px[t]))
            return std::nullopt;
    packed::PackedActivations ps1;
    return runSteps(
        cfg, frames, trace,
        [&](std::size_t t, Tensor &h1) {
            packed::effectiveForward(p1, px[t], h1,
                                     packed::Backend::Packed);
        },
        [&](const Tensor &s1, Tensor &h2) {
            const bool ok = packed::packFloatRows(s1, ps1);
            sushi_assert(ok); // ifStep emits exact 0/1 spikes
            packed::effectiveForward(p2, ps1, h2,
                                     packed::Backend::Packed);
        });
}

/** The dense float charge, x * W^T + bias, for any weights. */
Tensor
runDense(const SnnConfig &cfg, const Tensor &w1,
         const std::vector<float> &b1, const Tensor &w2,
         const std::vector<float> &b2, const std::vector<Tensor> &frames,
         ForwardTrace *trace)
{
    return runSteps(
        cfg, frames, trace,
        [&](std::size_t t, Tensor &h1) {
            linearForward(frames[t], w1, b1, h1);
        },
        [&](const Tensor &s1, Tensor &h2) {
            linearForward(s1, w2, b2, h2);
        });
}

} // namespace

Tensor
SnnMlp::forward(const std::vector<Tensor> &frames,
                ForwardTrace *trace) const
{
    return forwardWith(w1, w2, frames, trace);
}

Tensor
SnnMlp::forwardWith(const Tensor &eff_w1, const Tensor &eff_w2,
                    const std::vector<Tensor> &frames,
                    ForwardTrace *trace) const
{
    checkFrames(cfg_, frames);
    // Raw float weights (SnnMlp::forward) fail the +-alpha structure
    // check and keep the dense linearForward path.
    if (auto counts = runPacked(
            cfg_, packed::PackedLayer::fromEffective(eff_w1, b1),
            packed::PackedLayer::fromEffective(eff_w2, b2), frames, trace))
        return std::move(*counts);
    return runDense(cfg_, eff_w1, b1, eff_w2, b2, frames, trace);
}

Tensor
SnnMlp::forwardBinary(const std::vector<Tensor> &frames,
                      ForwardTrace *trace) const
{
    checkFrames(cfg_, frames);
    if (auto counts = runPacked(cfg_, packed::PackedLayer::fromFloat(w1, b1),
                                packed::PackedLayer::fromFloat(w2, b2),
                                frames, trace))
        return std::move(*counts);
    return runDense(cfg_, binaryEffectiveWeights(w1), b1,
                    binaryEffectiveWeights(w2), b2, frames, trace);
}

std::vector<int>
SnnMlp::predict(const std::vector<Tensor> &frames) const
{
    const Tensor counts = forward(frames);
    std::vector<int> labels(counts.rows());
    for (std::size_t b = 0; b < counts.rows(); ++b) {
        const float *row = counts.row(b);
        int best = 0;
        for (std::size_t c = 1; c < counts.cols(); ++c)
            if (row[c] > row[best])
                best = static_cast<int>(c);
        labels[b] = best;
    }
    return labels;
}

} // namespace sushi::snn
