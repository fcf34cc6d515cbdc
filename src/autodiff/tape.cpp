#include "tape.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/numerics.hpp"

namespace fisone::autodiff {

namespace {
void check_same_shape(const matrix& a, const matrix& b, const char* what) {
    if (a.rows() != b.rows() || a.cols() != b.cols())
        throw std::invalid_argument(std::string(what) + ": shape mismatch");
}
}  // namespace

var tape::push(matrix value, bool requires_grad, std::function<void()> backprop) {
    nodes_.push_back(node{std::move(value), matrix{}, requires_grad, std::move(backprop)});
    return var{nodes_.size() - 1};
}

void tape::reset() noexcept {
    for (node& n : nodes_) {
        if (!n.value.empty()) ws_.recycle(std::move(n.value));
        if (!n.grad.empty()) ws_.recycle(std::move(n.grad));
    }
    nodes_.clear();
}

tape::node& tape::at(var v) {
    if (!v.valid() || v.index >= nodes_.size()) throw std::out_of_range("tape: invalid var");
    return nodes_[v.index];
}

const tape::node& tape::at(var v) const {
    if (!v.valid() || v.index >= nodes_.size()) throw std::out_of_range("tape: invalid var");
    return nodes_[v.index];
}

matrix& tape::grad_buffer(std::size_t index) {
    node& n = nodes_[index];
    if (n.grad.empty() && !n.value.empty())
        n.grad = ws_.take_zero(n.value.rows(), n.value.cols());
    return n.grad;
}

var tape::constant(const matrix& value) { return push(ws_.take_copy(value), false, {}); }
var tape::constant(matrix&& value) { return push(std::move(value), false, {}); }

var tape::parameter(const matrix& value) { return push(ws_.take_copy(value), true, {}); }
var tape::parameter(matrix&& value) { return push(std::move(value), true, {}); }

var tape::add(var a, var b) {
    check_same_shape(at(a).value, at(b).value, "tape::add");
    matrix out = ws_.take_copy(at(a).value);
    out += at(b).value;
    const bool rg = at(a).requires_grad || at(b).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, b, v] {
            const matrix& g = nodes_[v.index].grad;
            if (nodes_[a.index].requires_grad) grad_buffer(a.index) += g;
            if (nodes_[b.index].requires_grad) grad_buffer(b.index) += g;
        };
    }
    return v;
}

var tape::sub(var a, var b) {
    check_same_shape(at(a).value, at(b).value, "tape::sub");
    matrix out = ws_.take_copy(at(a).value);
    out -= at(b).value;
    const bool rg = at(a).requires_grad || at(b).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, b, v] {
            const matrix& g = nodes_[v.index].grad;
            if (nodes_[a.index].requires_grad) grad_buffer(a.index) += g;
            if (nodes_[b.index].requires_grad) {
                matrix& gb = grad_buffer(b.index);
                for (std::size_t i = 0; i < g.size(); ++i) gb.flat()[i] -= g.flat()[i];
            }
        };
    }
    return v;
}

var tape::scale(var a, double s) {
    matrix out = ws_.take_copy(at(a).value);
    out *= s;
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v, s] {
            const matrix& g = nodes_[v.index].grad;
            matrix& ga = grad_buffer(a.index);
            for (std::size_t i = 0; i < g.size(); ++i) ga.flat()[i] += s * g.flat()[i];
        };
    }
    return v;
}

var tape::add_scalar(var a, double s) {
    matrix out = ws_.take_copy(at(a).value);
    for (double& x : out.flat()) x += s;
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v] {
            grad_buffer(a.index) += nodes_[v.index].grad;
        };
    }
    return v;
}

var tape::hadamard(var a, var b) {
    check_same_shape(at(a).value, at(b).value, "tape::hadamard");
    matrix out = ws_.take(at(a).value.rows(), at(a).value.cols());
    linalg::hadamard_into(out, at(a).value, at(b).value);
    const bool rg = at(a).requires_grad || at(b).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, b, v] {
            const matrix& g = nodes_[v.index].grad;
            if (nodes_[a.index].requires_grad) {
                matrix& ga = grad_buffer(a.index);
                const matrix& bv = nodes_[b.index].value;
                for (std::size_t i = 0; i < g.size(); ++i)
                    ga.flat()[i] += g.flat()[i] * bv.flat()[i];
            }
            if (nodes_[b.index].requires_grad) {
                matrix& gb = grad_buffer(b.index);
                const matrix& av = nodes_[a.index].value;
                for (std::size_t i = 0; i < g.size(); ++i)
                    gb.flat()[i] += g.flat()[i] * av.flat()[i];
            }
        };
    }
    return v;
}

var tape::matmul(var a, var b) {
    matrix out = ws_.take(at(a).value.rows(), at(b).value.cols());
    linalg::matmul_into(out, at(a).value, at(b).value, nullptr);
    const bool rg = at(a).requires_grad || at(b).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, b, v] {
            const matrix& g = nodes_[v.index].grad;
            if (nodes_[a.index].requires_grad) {
                matrix t = ws_.take(g.rows(), nodes_[b.index].value.rows());
                linalg::matmul_nt_into(t, g, nodes_[b.index].value, nullptr, &ws_);
                grad_buffer(a.index) += t;
                ws_.recycle(std::move(t));
            }
            if (nodes_[b.index].requires_grad) {
                matrix t = ws_.take(nodes_[a.index].value.cols(), g.cols());
                linalg::matmul_tn_into(t, nodes_[a.index].value, g, nullptr);
                grad_buffer(b.index) += t;
                ws_.recycle(std::move(t));
            }
        };
    }
    return v;
}

var tape::add_broadcast_row(var a, var bias) {
    const matrix& av = at(a).value;
    const matrix& bv = at(bias).value;
    if (bv.rows() != 1 || bv.cols() != av.cols())
        throw std::invalid_argument("tape::add_broadcast_row: bias must be 1×cols(a)");
    matrix out = ws_.take_copy(av);
    for (std::size_t i = 0; i < out.rows(); ++i)
        for (std::size_t j = 0; j < out.cols(); ++j) out(i, j) += bv(0, j);
    const bool rg = at(a).requires_grad || at(bias).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, bias, v] {
            const matrix& g = nodes_[v.index].grad;
            if (nodes_[a.index].requires_grad) grad_buffer(a.index) += g;
            if (nodes_[bias.index].requires_grad) {
                matrix& gb = grad_buffer(bias.index);
                for (std::size_t i = 0; i < g.rows(); ++i)
                    for (std::size_t j = 0; j < g.cols(); ++j) gb(0, j) += g(i, j);
            }
        };
    }
    return v;
}

var tape::concat_cols(var a, var b) {
    const matrix& av = at(a).value;
    const matrix& bv = at(b).value;
    if (av.rows() != bv.rows())
        throw std::invalid_argument("tape::concat_cols: row count mismatch");
    matrix out = ws_.take(av.rows(), av.cols() + bv.cols());
    for (std::size_t i = 0; i < av.rows(); ++i) {
        for (std::size_t j = 0; j < av.cols(); ++j) out(i, j) = av(i, j);
        for (std::size_t j = 0; j < bv.cols(); ++j) out(i, av.cols() + j) = bv(i, j);
    }
    const bool rg = at(a).requires_grad || at(b).requires_grad;
    // av/bv dangle once push() reallocates the node vector — copy first.
    const std::size_t ac = av.cols();
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, b, v, ac] {
            const matrix& g = nodes_[v.index].grad;
            if (nodes_[a.index].requires_grad) {
                matrix& ga = grad_buffer(a.index);
                for (std::size_t i = 0; i < ga.rows(); ++i)
                    for (std::size_t j = 0; j < ac; ++j) ga(i, j) += g(i, j);
            }
            if (nodes_[b.index].requires_grad) {
                matrix& gb = grad_buffer(b.index);
                for (std::size_t i = 0; i < gb.rows(); ++i)
                    for (std::size_t j = 0; j < gb.cols(); ++j) gb(i, j) += g(i, ac + j);
            }
        };
    }
    return v;
}

var tape::sigmoid(var a) {
    matrix out = ws_.take_copy(at(a).value);
    for (double& x : out.flat()) x = 1.0 / (1.0 + linalg::numerics::exp(-x));
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v] {
            const matrix& g = nodes_[v.index].grad;
            const matrix& y = nodes_[v.index].value;
            matrix& ga = grad_buffer(a.index);
            for (std::size_t i = 0; i < g.size(); ++i) {
                const double s = y.flat()[i];
                ga.flat()[i] += g.flat()[i] * s * (1.0 - s);
            }
        };
    }
    return v;
}

var tape::tanh_act(var a) {
    matrix out = ws_.take_copy(at(a).value);
    linalg::numerics::tanh_each(out.flat());
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v] {
            const matrix& g = nodes_[v.index].grad;
            const matrix& y = nodes_[v.index].value;
            matrix& ga = grad_buffer(a.index);
            for (std::size_t i = 0; i < g.size(); ++i)
                ga.flat()[i] += g.flat()[i] * (1.0 - y.flat()[i] * y.flat()[i]);
        };
    }
    return v;
}

var tape::relu(var a) {
    matrix out = ws_.take_copy(at(a).value);
    for (double& x : out.flat()) x = x > 0.0 ? x : 0.0;
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v] {
            const matrix& g = nodes_[v.index].grad;
            const matrix& x = nodes_[a.index].value;
            matrix& ga = grad_buffer(a.index);
            for (std::size_t i = 0; i < g.size(); ++i)
                if (x.flat()[i] > 0.0) ga.flat()[i] += g.flat()[i];
        };
    }
    return v;
}

var tape::log_op(var a) {
    matrix out = ws_.take_copy(at(a).value);
    for (double& x : out.flat()) {
        if (x <= 0.0) throw std::domain_error("tape::log_op: non-positive input");
        x = std::log(x);
    }
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v] {
            const matrix& g = nodes_[v.index].grad;
            const matrix& x = nodes_[a.index].value;
            matrix& ga = grad_buffer(a.index);
            for (std::size_t i = 0; i < g.size(); ++i) ga.flat()[i] += g.flat()[i] / x.flat()[i];
        };
    }
    return v;
}

var tape::reciprocal(var a) {
    matrix out = ws_.take_copy(at(a).value);
    for (double& x : out.flat()) {
        if (x == 0.0) throw std::domain_error("tape::reciprocal: zero input");
        x = 1.0 / x;
    }
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v] {
            const matrix& g = nodes_[v.index].grad;
            const matrix& y = nodes_[v.index].value;
            matrix& ga = grad_buffer(a.index);
            for (std::size_t i = 0; i < g.size(); ++i)
                ga.flat()[i] -= g.flat()[i] * y.flat()[i] * y.flat()[i];
        };
    }
    return v;
}

var tape::log_sigmoid(var a) {
    matrix out = ws_.take_copy(at(a).value);
    for (double& x : out.flat()) {
        // log σ(x) = -log(1+e^{-x}) = x - log(1+e^{x}); branch for stability.
        x = x >= 0.0 ? -std::log1p(linalg::numerics::exp(-x))
                     : x - std::log1p(linalg::numerics::exp(x));
    }
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v] {
            const matrix& g = nodes_[v.index].grad;
            const matrix& x = nodes_[a.index].value;
            matrix& ga = grad_buffer(a.index);
            for (std::size_t i = 0; i < g.size(); ++i) {
                // d/dx log σ(x) = σ(-x)
                const double xi = x.flat()[i];
                const double sneg =
                    xi >= 0.0 ? linalg::numerics::exp(-xi) / (1.0 + linalg::numerics::exp(-xi))
                              : 1.0 / (1.0 + linalg::numerics::exp(xi));
                ga.flat()[i] += g.flat()[i] * sneg;
            }
        };
    }
    return v;
}

var tape::l2_normalize_rows(var a, double eps) {
    const matrix& av = at(a).value;
    matrix out = ws_.take_copy(av);
    std::vector<double> norms(av.rows());
    for (std::size_t i = 0; i < av.rows(); ++i) {
        double n = linalg::norm2(av.row(i));
        if (n < eps) n = eps;
        norms[i] = n;
        for (std::size_t j = 0; j < av.cols(); ++j) out(i, j) /= n;
    }
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v, norms = std::move(norms)] {
            const matrix& g = nodes_[v.index].grad;
            const matrix& y = nodes_[v.index].value;
            matrix& ga = grad_buffer(a.index);
            for (std::size_t i = 0; i < g.rows(); ++i) {
                // dx = (g − (g·y) y) / ‖x‖
                const double gy = linalg::dot(g.row(i), y.row(i));
                for (std::size_t j = 0; j < g.cols(); ++j)
                    ga(i, j) += (g(i, j) - gy * y(i, j)) / norms[i];
            }
        };
    }
    return v;
}

var tape::gather_rows(var a, std::vector<std::size_t> indices) {
    const matrix& av = at(a).value;
    for (const std::size_t idx : indices)
        if (idx >= av.rows()) throw std::out_of_range("tape::gather_rows: index out of range");
    matrix out = ws_.take(indices.size(), av.cols());
    for (std::size_t i = 0; i < indices.size(); ++i)
        for (std::size_t j = 0; j < av.cols(); ++j) out(i, j) = av(indices[i], j);
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v, indices = std::move(indices)] {
            const matrix& g = nodes_[v.index].grad;
            matrix& ga = grad_buffer(a.index);
            for (std::size_t i = 0; i < indices.size(); ++i)
                for (std::size_t j = 0; j < g.cols(); ++j) ga(indices[i], j) += g(i, j);
        };
    }
    return v;
}

var tape::weighted_sum_rows(var a, const row_csr& op) {
    const matrix& av = at(a).value;
    const std::size_t n = op.rows();
    if (op.offsets.empty() || op.offsets.front() != 0 || op.offsets.back() != op.terms.size() ||
        !std::is_sorted(op.offsets.begin(), op.offsets.end()))
        throw std::invalid_argument("tape::weighted_sum_rows: malformed CSR offsets");
    for (const weighted_row& t : op.terms)
        if (t.row >= av.rows())
            throw std::out_of_range("tape::weighted_sum_rows: index out of range");
    matrix out = ws_.take_zero(n, av.cols());
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t t = op.offsets[i]; t < op.offsets[i + 1]; ++t) {
            const auto src = av.row(op.terms[t].row);
            const double w = op.terms[t].weight;
            for (std::size_t j = 0; j < av.cols(); ++j) out(i, j) += w * src[j];
        }
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v, &op] {
            const matrix& g = nodes_[v.index].grad;
            matrix& ga = grad_buffer(a.index);
            for (std::size_t i = 0; i < op.rows(); ++i)
                for (std::size_t t = op.offsets[i]; t < op.offsets[i + 1]; ++t) {
                    const std::size_t idx = op.terms[t].row;
                    const double w = op.terms[t].weight;
                    for (std::size_t j = 0; j < g.cols(); ++j) ga(idx, j) += w * g(i, j);
                }
        };
    }
    return v;
}

var tape::row_dot(var a, var b) {
    check_same_shape(at(a).value, at(b).value, "tape::row_dot");
    const matrix& av = at(a).value;
    const matrix& bv = at(b).value;
    matrix out = ws_.take(av.rows(), 1);
    for (std::size_t i = 0; i < av.rows(); ++i) out(i, 0) = linalg::dot(av.row(i), bv.row(i));
    const bool rg = at(a).requires_grad || at(b).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, b, v] {
            const matrix& g = nodes_[v.index].grad;
            if (nodes_[a.index].requires_grad) {
                matrix& ga = grad_buffer(a.index);
                const matrix& bv2 = nodes_[b.index].value;
                for (std::size_t i = 0; i < ga.rows(); ++i)
                    for (std::size_t j = 0; j < ga.cols(); ++j) ga(i, j) += g(i, 0) * bv2(i, j);
            }
            if (nodes_[b.index].requires_grad) {
                matrix& gb = grad_buffer(b.index);
                const matrix& av2 = nodes_[a.index].value;
                for (std::size_t i = 0; i < gb.rows(); ++i)
                    for (std::size_t j = 0; j < gb.cols(); ++j) gb(i, j) += g(i, 0) * av2(i, j);
            }
        };
    }
    return v;
}

var tape::pairwise_sqdist(var a, var b) {
    const matrix& av = at(a).value;
    const matrix& bv = at(b).value;
    if (av.cols() != bv.cols())
        throw std::invalid_argument("tape::pairwise_sqdist: dimension mismatch");
    matrix out = ws_.take(av.rows(), bv.rows());
    for (std::size_t i = 0; i < av.rows(); ++i)
        for (std::size_t j = 0; j < bv.rows(); ++j)
            out(i, j) = linalg::squared_distance(av.row(i), bv.row(j));
    const bool rg = at(a).requires_grad || at(b).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, b, v] {
            const matrix& g = nodes_[v.index].grad;
            const matrix& av2 = nodes_[a.index].value;
            const matrix& bv2 = nodes_[b.index].value;
            const bool need_a = nodes_[a.index].requires_grad;
            const bool need_b = nodes_[b.index].requires_grad;
            matrix* ga = need_a ? &grad_buffer(a.index) : nullptr;
            matrix* gb = need_b ? &grad_buffer(b.index) : nullptr;
            for (std::size_t i = 0; i < av2.rows(); ++i)
                for (std::size_t j = 0; j < bv2.rows(); ++j) {
                    const double gij = g(i, j);
                    if (gij == 0.0) continue;
                    for (std::size_t d = 0; d < av2.cols(); ++d) {
                        const double diff = av2(i, d) - bv2(j, d);
                        if (need_a) (*ga)(i, d) += 2.0 * gij * diff;
                        if (need_b) (*gb)(j, d) -= 2.0 * gij * diff;
                    }
                }
        };
    }
    return v;
}

var tape::row_normalize(var a) {
    const matrix& av = at(a).value;
    matrix out = ws_.take_copy(av);
    std::vector<double> sums(av.rows());
    for (std::size_t i = 0; i < av.rows(); ++i) {
        double s = 0.0;
        for (std::size_t j = 0; j < av.cols(); ++j) s += av(i, j);
        if (s <= 0.0) throw std::domain_error("tape::row_normalize: non-positive row sum");
        sums[i] = s;
        for (std::size_t j = 0; j < av.cols(); ++j) out(i, j) /= s;
    }
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v, sums = std::move(sums)] {
            const matrix& g = nodes_[v.index].grad;
            const matrix& y = nodes_[v.index].value;
            matrix& ga = grad_buffer(a.index);
            for (std::size_t i = 0; i < g.rows(); ++i) {
                double gy = 0.0;
                for (std::size_t j = 0; j < g.cols(); ++j) gy += g(i, j) * y(i, j);
                for (std::size_t j = 0; j < g.cols(); ++j)
                    ga(i, j) += (g(i, j) - gy) / sums[i];
            }
        };
    }
    return v;
}

var tape::softmax_rows(var a) {
    const matrix& av = at(a).value;
    matrix out = ws_.take_copy(av);
    for (std::size_t i = 0; i < av.rows(); ++i) {
        double mx = out(i, 0);
        for (std::size_t j = 1; j < av.cols(); ++j) mx = std::max(mx, out(i, j));
        double sum = 0.0;
        for (std::size_t j = 0; j < av.cols(); ++j) {
            out(i, j) = std::exp(out(i, j) - mx);
            sum += out(i, j);
        }
        for (std::size_t j = 0; j < av.cols(); ++j) out(i, j) /= sum;
    }
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v] {
            const matrix& g = nodes_[v.index].grad;
            const matrix& y = nodes_[v.index].value;
            matrix& ga = grad_buffer(a.index);
            for (std::size_t i = 0; i < g.rows(); ++i) {
                double gy = 0.0;
                for (std::size_t j = 0; j < g.cols(); ++j) gy += g(i, j) * y(i, j);
                for (std::size_t j = 0; j < g.cols(); ++j)
                    ga(i, j) += y(i, j) * (g(i, j) - gy);
            }
        };
    }
    return v;
}

var tape::sum_all(var a) {
    double total = 0.0;
    for (const double x : at(a).value.flat()) total += x;
    matrix out = ws_.take(1, 1);
    out(0, 0) = total;
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v] {
            const double g = nodes_[v.index].grad(0, 0);
            matrix& ga = grad_buffer(a.index);
            for (double& x : ga.flat()) x += g;
        };
    }
    return v;
}

var tape::mean_all(var a) {
    const std::size_t n = at(a).value.size();
    if (n == 0) throw std::invalid_argument("tape::mean_all: empty input");
    double total = 0.0;
    for (const double x : at(a).value.flat()) total += x;
    matrix out = ws_.take(1, 1);
    out(0, 0) = total / static_cast<double>(n);
    const bool rg = at(a).requires_grad;
    var v = push(std::move(out), rg, {});
    if (rg) {
        nodes_.back().backprop = [this, a, v, n] {
            const double g = nodes_[v.index].grad(0, 0) / static_cast<double>(n);
            matrix& ga = grad_buffer(a.index);
            for (double& x : ga.flat()) x += g;
        };
    }
    return v;
}

const matrix& tape::value(var v) const { return at(v).value; }

const matrix& tape::grad(var v) const { return at(v).grad; }

void tape::backward(var root) {
    const node& r = at(root);
    if (r.value.rows() != 1 || r.value.cols() != 1)
        throw std::invalid_argument("tape::backward: root must be 1×1");
    // Recycle previous gradients; moved-from matrices are clean 0×0, so
    // grad() keeps returning the well-defined empty sentinel for nodes
    // this backward pass never reaches.
    for (node& n : nodes_)
        if (!n.grad.empty()) ws_.recycle(std::move(n.grad));
    grad_buffer(root.index)(0, 0) = 1.0;
    for (std::size_t i = root.index + 1; i-- > 0;) {
        node& n = nodes_[i];
        if (n.backprop && !n.grad.empty()) n.backprop();
    }
}

}  // namespace fisone::autodiff
