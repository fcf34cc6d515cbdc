#include "optimizer.hpp"

#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace fisone::autodiff {

namespace {
/// Factor that brings \p grad to L2 norm \p clip; exactly 1.0 when no
/// clipping applies, so `g * factor` is then `g` bit for bit.
double clip_factor(const matrix& grad, double clip) noexcept {
    if (clip <= 0.0) return 1.0;
    double norm_sq = 0.0;
    for (const double g : grad.flat()) norm_sq += g * g;
    const double norm = std::sqrt(norm_sq);
    return norm > clip ? clip / norm : 1.0;
}
}  // namespace

void clip_gradient(matrix& grad, double clip) noexcept {
    const double scale = clip_factor(grad, clip);
    if (scale != 1.0)
        for (double& g : grad.flat()) g *= scale;
}

sgd::sgd(double learning_rate, double momentum, double clip)
    : lr_(learning_rate), momentum_(momentum), clip_(clip) {
    if (learning_rate <= 0.0) throw std::invalid_argument("sgd: learning_rate must be > 0");
    if (momentum < 0.0 || momentum >= 1.0)
        throw std::invalid_argument("sgd: momentum must be in [0,1)");
}

void sgd::step(matrix& param, const matrix& grad) {
    if (param.rows() != grad.rows() || param.cols() != grad.cols())
        throw std::invalid_argument("sgd::step: shape mismatch");

    // Clip by scaling each entry inside the update loop: no gradient copy.
    const double scale = clip_factor(grad, clip_);

    if (momentum_ == 0.0) {
        for (std::size_t i = 0; i < param.size(); ++i)
            param.flat()[i] -= lr_ * (grad.flat()[i] * scale);
        return;
    }

    // Find or create the velocity slot for this parameter.
    std::size_t slot = owners_.size();
    for (std::size_t i = 0; i < owners_.size(); ++i)
        if (owners_[i] == &param) {
            slot = i;
            break;
        }
    if (slot == owners_.size()) {
        owners_.push_back(&param);
        velocities_.emplace_back(param.rows(), param.cols(), 0.0);
    }
    matrix& vel = velocities_[slot];
    for (std::size_t i = 0; i < param.size(); ++i) {
        vel.flat()[i] = momentum_ * vel.flat()[i] + grad.flat()[i] * scale;
        param.flat()[i] -= lr_ * vel.flat()[i];
    }
}

adam::adam(config cfg) : cfg_(cfg) {
    if (cfg.learning_rate <= 0.0) throw std::invalid_argument("adam: learning_rate must be > 0");
    if (cfg.beta1 < 0.0 || cfg.beta1 >= 1.0 || cfg.beta2 < 0.0 || cfg.beta2 >= 1.0)
        throw std::invalid_argument("adam: betas must be in [0,1)");
}

adam::slot& adam::find_slot(const matrix& param) {
    for (slot& s : slots_)
        if (s.owner == &param) return s;
    slots_.push_back(slot{&param, matrix(param.rows(), param.cols(), 0.0),
                          matrix(param.rows(), param.cols(), 0.0)});
    return slots_.back();
}

void adam::step(matrix& param, const matrix& grad) {
    if (param.rows() != grad.rows() || param.cols() != grad.cols())
        throw std::invalid_argument("adam::step: shape mismatch");

    const double scale = clip_factor(grad, cfg_.clip);

    slot& s = find_slot(param);
    const double b1 = cfg_.beta1;
    const double b2 = cfg_.beta2;
    const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t_));
    const double lr = cfg_.learning_rate;
    const double eps = cfg_.epsilon;
    // Four distinct buffers, so the loops may keep values in registers.
    double* __restrict p = param.data();
    double* __restrict m = s.m.data();
    double* __restrict v = s.v.data();
    const double* __restrict gr = grad.data();
    const std::size_t n = param.size();
    std::size_t i = 0;
#if defined(__SSE2__)
    // Two elements per step, each lane doing the scalar loop's operations
    // in its order. SSE2's mul, add, div and sqrt round exactly as their
    // scalar forms do; `sqrtpd` just sets no errno, which is what keeps
    // the compiler from vectorising the `std::sqrt` below on its own.
    const __m128d vscale = _mm_set1_pd(scale);
    const __m128d vb1 = _mm_set1_pd(b1), vc1 = _mm_set1_pd(1.0 - b1);
    const __m128d vb2 = _mm_set1_pd(b2), vc2 = _mm_set1_pd(1.0 - b2);
    const __m128d vbc1 = _mm_set1_pd(bc1), vbc2 = _mm_set1_pd(bc2);
    const __m128d vlr = _mm_set1_pd(lr), veps = _mm_set1_pd(eps);
    for (; i + 2 <= n; i += 2) {
        const __m128d g = _mm_mul_pd(_mm_loadu_pd(gr + i), vscale);
        const __m128d mi = _mm_add_pd(_mm_mul_pd(vb1, _mm_loadu_pd(m + i)), _mm_mul_pd(vc1, g));
        const __m128d vi =
            _mm_add_pd(_mm_mul_pd(vb2, _mm_loadu_pd(v + i)), _mm_mul_pd(_mm_mul_pd(vc2, g), g));
        _mm_storeu_pd(m + i, mi);
        _mm_storeu_pd(v + i, vi);
        const __m128d mhat = _mm_div_pd(mi, vbc1);
        const __m128d vhat = _mm_div_pd(vi, vbc2);
        const __m128d step = _mm_div_pd(_mm_mul_pd(vlr, mhat), _mm_add_pd(_mm_sqrt_pd(vhat), veps));
        _mm_storeu_pd(p + i, _mm_sub_pd(_mm_loadu_pd(p + i), step));
    }
#endif
    for (; i < n; ++i) {
        const double g = gr[i] * scale;
        m[i] = b1 * m[i] + (1.0 - b1) * g;
        v[i] = b2 * v[i] + (1.0 - b2) * g * g;
        const double mhat = m[i] / bc1;
        const double vhat = v[i] / bc2;
        p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
}

}  // namespace fisone::autodiff
