#include "optimizer.hpp"

#include <cmath>

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
    for (std::size_t i = 0; i < param.size(); ++i) {
        const double g = grad.flat()[i] * scale;
        s.m.flat()[i] = b1 * s.m.flat()[i] + (1.0 - b1) * g;
        s.v.flat()[i] = b2 * s.v.flat()[i] + (1.0 - b2) * g * g;
        const double mhat = s.m.flat()[i] / bc1;
        const double vhat = s.v.flat()[i] / bc2;
        param.flat()[i] -= cfg_.learning_rate * mhat / (std::sqrt(vhat) + cfg_.epsilon);
    }
}

}  // namespace fisone::autodiff
