#include "snn/network.hh"

#include <cmath>

#include "common/logging.hh"
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
    for (std::size_t i = 0; i < v.size(); ++i) {
        const float pre = v.data()[i] + h.data()[i];
        const float spike = pre >= theta ? 1.0f : 0.0f;
        v_pre.data()[i] = pre;
        s.data()[i] = spike;
        v.data()[i] = pre * (1.0f - spike);
    }
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
    sushi_assert(static_cast<int>(frames.size()) == cfg_.t_steps);
    const std::size_t batch = frames[0].rows();
    const float theta = cfg_.threshold;

    Tensor v1(batch, cfg_.hidden), v2(batch, cfg_.output);
    Tensor h1(batch, cfg_.hidden), h2(batch, cfg_.output);
    Tensor counts(batch, cfg_.output);

    if (trace) {
        trace->x = frames;
        trace->v1_pre.clear();
        trace->s1.clear();
        trace->v2_pre.clear();
        trace->s2.clear();
    }

    Tensor v1_pre(batch, cfg_.hidden), s1(batch, cfg_.hidden);
    Tensor v2_pre(batch, cfg_.output), s2(batch, cfg_.output);

    // XNOR/popcount fast path: when both weight tensors carry the
    // exact XNOR-Net structure (rows of +-alpha, as produced by
    // binaryEffectiveWeights) and every frame is a 0/1 spike matrix,
    // the charge step runs as bias + alpha * (integer bit dot), which
    // equals the element-wise scalar backend bit for bit (the tests
    // compare the two). Raw float weights (SnnMlp::forward) fail the
    // structure check and keep the dense linearForward path untouched.
    const packed::PackedLayer p1 =
        packed::PackedLayer::fromEffective(eff_w1, b1);
    const packed::PackedLayer p2 =
        packed::PackedLayer::fromEffective(eff_w2, b2);
    bool use_packed = p1.packable() && p2.packable();
    std::vector<packed::PackedActivations> px;
    if (use_packed) {
        px.resize(frames.size());
        for (std::size_t t = 0; t < frames.size() && use_packed; ++t)
            use_packed = packed::packFloatRows(frames[t], px[t]);
    }
    packed::PackedActivations ps1;

    for (int t = 0; t < cfg_.t_steps; ++t) {
        const Tensor &x = frames[static_cast<std::size_t>(t)];
        sushi_assert(x.cols() == cfg_.input);

        if (cfg_.stateless) {
            // Stateless neuron (Sec. 5.1): zero membrane each step.
            v1.zero();
            v2.zero();
        }

        // Hidden layer: charge (Eq. 1), fire (Eq. 2), reset (Eq. 3).
        if (use_packed)
            packed::effectiveForward(
                p1, px[static_cast<std::size_t>(t)], h1,
                packed::Backend::Packed);
        else
            linearForward(x, eff_w1, b1, h1);
        ifStep(v1, h1, theta, v1_pre, s1);

        // Output layer driven by the hidden spikes.
        if (use_packed) {
            const bool ok = packed::packFloatRows(s1, ps1);
            sushi_assert(ok); // ifStep emits exact 0/1 spikes
            packed::effectiveForward(p2, ps1, h2,
                                     packed::Backend::Packed);
        } else {
            linearForward(s1, eff_w2, b2, h2);
        }
        ifStep(v2, h2, theta, v2_pre, s2);

        for (std::size_t i = 0; i < counts.size(); ++i)
            counts.data()[i] += s2.data()[i];

        if (trace) {
            trace->v1_pre.push_back(v1_pre);
            trace->s1.push_back(s1);
            trace->v2_pre.push_back(v2_pre);
            trace->s2.push_back(s2);
        }
    }
    if (trace)
        trace->counts = counts;
    return counts;
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

float
surrogateGrad(float v, float alpha)
{
    const float half_pi_alpha = 1.5707963f * alpha;
    const float z = half_pi_alpha * v;
    return alpha / (2.0f * (1.0f + z * z));
}

} // namespace sushi::snn
