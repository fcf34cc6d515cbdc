// Tests for src/autodiff: every tape operation is verified against central
// differences, plus optimizer convergence checks.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>

#include "autodiff/gradcheck.hpp"
#include "autodiff/optimizer.hpp"
#include "autodiff/tape.hpp"
#include "util/rng.hpp"

namespace {

using namespace fisone::autodiff;
using fisone::linalg::matrix;
using fisone::util::rng;

matrix random_matrix(std::size_t r, std::size_t c, rng& gen, double scale = 1.0) {
    matrix m(r, c);
    for (double& x : m.flat()) x = gen.normal(0.0, scale);
    return m;
}

/// Run a gradient check for a scalar function of one matrix input built on
/// a fresh tape per evaluation.
void expect_gradient_ok(const std::function<var(tape&, var)>& build, const matrix& input,
                        double tolerance = 1e-4) {
    tape t;
    const var x = t.parameter(input);
    const var loss = build(t, x);
    t.backward(loss);
    const matrix analytic = t.grad(x);

    const auto scalar_fn = [&build](const matrix& m) {
        tape t2;
        const var x2 = t2.parameter(m);
        const var loss2 = build(t2, x2);
        return t2.value(loss2)(0, 0);
    };
    const gradcheck_result r = check_gradient(scalar_fn, input, analytic, 1e-5, tolerance);
    EXPECT_TRUE(r.passed) << "max_abs=" << r.max_abs_error << " max_rel=" << r.max_rel_error;
}

// ---------- forward values ----------

TEST(tape, forward_add_sub_scale) {
    tape t;
    const var a = t.constant(matrix{{1, 2}, {3, 4}});
    const var b = t.constant(matrix{{10, 20}, {30, 40}});
    EXPECT_DOUBLE_EQ(t.value(t.add(a, b))(1, 1), 44.0);
    EXPECT_DOUBLE_EQ(t.value(t.sub(b, a))(0, 0), 9.0);
    EXPECT_DOUBLE_EQ(t.value(t.scale(a, -2.0))(0, 1), -4.0);
    EXPECT_DOUBLE_EQ(t.value(t.add_scalar(a, 0.5))(0, 0), 1.5);
}

TEST(tape, forward_matmul_concat) {
    tape t;
    const var a = t.constant(matrix{{1, 2}});
    const var b = t.constant(matrix{{3}, {4}});
    EXPECT_DOUBLE_EQ(t.value(t.matmul(a, b))(0, 0), 11.0);
    const var c = t.concat_cols(a, a);
    EXPECT_EQ(t.value(c).cols(), 4u);
    EXPECT_DOUBLE_EQ(t.value(c)(0, 3), 2.0);
}

TEST(tape, forward_activations) {
    tape t;
    const var x = t.constant(matrix{{0.0, 100.0, -100.0}});
    const auto sig = t.value(t.sigmoid(x));
    EXPECT_DOUBLE_EQ(sig(0, 0), 0.5);
    EXPECT_NEAR(sig(0, 1), 1.0, 1e-12);
    EXPECT_NEAR(sig(0, 2), 0.0, 1e-12);
    const auto rel = t.value(t.relu(x));
    EXPECT_DOUBLE_EQ(rel(0, 2), 0.0);
    EXPECT_DOUBLE_EQ(rel(0, 1), 100.0);
    // log-sigmoid is finite even for extreme inputs
    const auto ls = t.value(t.log_sigmoid(x));
    EXPECT_NEAR(ls(0, 0), std::log(0.5), 1e-12);
    EXPECT_NEAR(ls(0, 1), 0.0, 1e-12);
    EXPECT_NEAR(ls(0, 2), -100.0, 1e-6);
}

TEST(tape, forward_l2_normalize) {
    tape t;
    const var x = t.constant(matrix{{3.0, 4.0}});
    const auto y = t.value(t.l2_normalize_rows(x));
    EXPECT_DOUBLE_EQ(y(0, 0), 0.6);
    EXPECT_DOUBLE_EQ(y(0, 1), 0.8);
}

TEST(tape, forward_gather_weighted_sum) {
    tape t;
    const var x = t.constant(matrix{{1, 1}, {2, 2}, {3, 3}});
    const auto g = t.value(t.gather_rows(x, {2, 0, 2}));
    EXPECT_EQ(g.rows(), 3u);
    EXPECT_DOUBLE_EQ(g(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(g(2, 1), 3.0);

    const row_csr groups{{0, 2, 3}, {{0, 0.5}, {1, 0.5}, {2, 2.0}}};
    const auto w = t.value(t.weighted_sum_rows(x, groups));
    EXPECT_DOUBLE_EQ(w(0, 0), 1.5);
    EXPECT_DOUBLE_EQ(w(1, 1), 6.0);
}

TEST(tape, weighted_sum_rows_rejects_malformed_csr) {
    tape t;
    const var x = t.constant(matrix{{1, 1}, {2, 2}});
    const row_csr bad_end{{0, 1}, {{0, 1.0}, {1, 1.0}}};
    EXPECT_THROW((void)t.weighted_sum_rows(x, bad_end), std::invalid_argument);
    const row_csr decreasing{{0, 2, 1, 2}, {{0, 1.0}, {1, 1.0}}};
    EXPECT_THROW((void)t.weighted_sum_rows(x, decreasing), std::invalid_argument);
    const row_csr bad_row{{0, 1}, {{2, 1.0}}};
    EXPECT_THROW((void)t.weighted_sum_rows(x, bad_row), std::out_of_range);
}

// The tape borrows the operator, so passing a temporary must not compile.
template <class Op>
concept csr_accepted = requires(tape& t, var v, Op&& op) {
    t.weighted_sum_rows(v, std::forward<Op>(op));
};
static_assert(csr_accepted<const row_csr&>);
static_assert(!csr_accepted<row_csr>);

TEST(tape, forward_softmax_and_normalize) {
    tape t;
    const var x = t.constant(matrix{{1.0, 1.0, 1.0}});
    const auto sm = t.value(t.softmax_rows(x));
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(sm(0, j), 1.0 / 3.0, 1e-12);

    const var pos = t.constant(matrix{{1.0, 3.0}});
    const auto rn = t.value(t.row_normalize(pos));
    EXPECT_DOUBLE_EQ(rn(0, 0), 0.25);
    EXPECT_DOUBLE_EQ(rn(0, 1), 0.75);
}

TEST(tape, forward_pairwise_sqdist) {
    tape t;
    const var a = t.constant(matrix{{0, 0}, {1, 1}});
    const var b = t.constant(matrix{{0, 1}});
    const auto d = t.value(t.pairwise_sqdist(a, b));
    EXPECT_DOUBLE_EQ(d(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(d(1, 0), 1.0);
}

TEST(tape, forward_reductions) {
    tape t;
    const var x = t.constant(matrix{{1, 2}, {3, 4}});
    EXPECT_DOUBLE_EQ(t.value(t.sum_all(x))(0, 0), 10.0);
    EXPECT_DOUBLE_EQ(t.value(t.mean_all(x))(0, 0), 2.5);
}

TEST(tape, backward_requires_scalar_root) {
    tape t;
    const var x = t.parameter(matrix{{1, 2}});
    EXPECT_THROW(t.backward(x), std::invalid_argument);
}

TEST(tape, errors_on_shape_mismatch) {
    tape t;
    const var a = t.constant(matrix(2, 2));
    const var b = t.constant(matrix(2, 3));
    EXPECT_THROW((void)t.add(a, b), std::invalid_argument);
    EXPECT_THROW((void)t.hadamard(a, b), std::invalid_argument);
    EXPECT_THROW((void)t.row_dot(a, b), std::invalid_argument);
    EXPECT_THROW((void)t.gather_rows(a, {5}), std::out_of_range);
}

// ---------- gradient checks, one per op ----------

TEST(gradcheck, add_and_scale) {
    rng gen(1);
    expect_gradient_ok(
        [](tape& t, var x) { return t.mean_all(t.scale(t.add(x, x), 1.7)); },
        random_matrix(3, 4, gen));
}

TEST(gradcheck, sub) {
    rng gen(2);
    const matrix other = random_matrix(3, 3, gen);
    expect_gradient_ok(
        [&other](tape& t, var x) { return t.mean_all(t.sub(x, t.constant(other))); },
        random_matrix(3, 3, gen));
}

TEST(gradcheck, hadamard_self) {
    rng gen(3);
    expect_gradient_ok([](tape& t, var x) { return t.mean_all(t.hadamard(x, x)); },
                       random_matrix(2, 5, gen));
}

TEST(gradcheck, matmul_left_and_right) {
    rng gen(4);
    const matrix rhs = random_matrix(4, 3, gen);
    expect_gradient_ok(
        [&rhs](tape& t, var x) { return t.mean_all(t.matmul(x, t.constant(rhs))); },
        random_matrix(2, 4, gen));
    const matrix lhs = random_matrix(3, 2, gen);
    expect_gradient_ok(
        [&lhs](tape& t, var x) { return t.mean_all(t.matmul(t.constant(lhs), x)); },
        random_matrix(2, 5, gen));
}

TEST(gradcheck, matmul_both_sides_via_square) {
    rng gen(5);
    expect_gradient_ok([](tape& t, var x) { return t.mean_all(t.matmul(x, x)); },
                       random_matrix(3, 3, gen));
}

TEST(gradcheck, add_broadcast_row) {
    rng gen(6);
    const matrix a = random_matrix(4, 3, gen);
    expect_gradient_ok(
        [&a](tape& t, var bias) { return t.mean_all(t.add_broadcast_row(t.constant(a), bias)); },
        random_matrix(1, 3, gen));
    const matrix bias = random_matrix(1, 3, gen);
    expect_gradient_ok(
        [&bias](tape& t, var x) {
            return t.mean_all(t.add_broadcast_row(x, t.constant(bias)));
        },
        random_matrix(4, 3, gen));
}

TEST(gradcheck, concat_cols) {
    rng gen(7);
    const matrix other = random_matrix(3, 2, gen);
    expect_gradient_ok(
        [&other](tape& t, var x) {
            const var c = t.concat_cols(x, t.constant(other));
            return t.mean_all(t.hadamard(c, c));
        },
        random_matrix(3, 4, gen));
}

TEST(gradcheck, sigmoid) {
    rng gen(8);
    expect_gradient_ok([](tape& t, var x) { return t.mean_all(t.sigmoid(x)); },
                       random_matrix(3, 3, gen));
}

TEST(gradcheck, tanh_act) {
    rng gen(9);
    expect_gradient_ok([](tape& t, var x) { return t.mean_all(t.tanh_act(x)); },
                       random_matrix(3, 3, gen));
}

TEST(gradcheck, relu) {
    rng gen(10);
    // Shift away from 0 to avoid the kink in finite differences.
    matrix m = random_matrix(3, 3, gen);
    for (double& x : m.flat()) x += (x >= 0.0 ? 0.5 : -0.5);
    expect_gradient_ok([](tape& t, var x) { return t.mean_all(t.relu(x)); }, m);
}

TEST(gradcheck, log_and_reciprocal) {
    rng gen(11);
    matrix m = random_matrix(3, 3, gen);
    for (double& x : m.flat()) x = std::abs(x) + 0.5;
    expect_gradient_ok([](tape& t, var x) { return t.mean_all(t.log_op(x)); }, m);
    expect_gradient_ok([](tape& t, var x) { return t.mean_all(t.reciprocal(x)); }, m);
}

TEST(gradcheck, log_sigmoid) {
    rng gen(12);
    expect_gradient_ok([](tape& t, var x) { return t.mean_all(t.log_sigmoid(x)); },
                       random_matrix(3, 4, gen, 2.0));
}

TEST(gradcheck, l2_normalize_rows) {
    rng gen(13);
    const matrix probe = random_matrix(3, 4, gen);
    expect_gradient_ok(
        [&probe](tape& t, var x) {
            return t.mean_all(t.hadamard(t.l2_normalize_rows(x), t.constant(probe)));
        },
        random_matrix(3, 4, gen));
}

TEST(gradcheck, gather_rows_with_repeats) {
    rng gen(14);
    expect_gradient_ok(
        [](tape& t, var x) {
            const var g = t.gather_rows(x, {0, 2, 0, 1});
            return t.mean_all(t.hadamard(g, g));
        },
        random_matrix(3, 3, gen));
}

TEST(gradcheck, weighted_sum_rows) {
    rng gen(15);
    const row_csr groups{{0, 2, 4, 5},
                         {{0, 0.3}, {1, 0.7}, {2, 1.0}, {0, -0.5}, {1, 2.0}}};
    expect_gradient_ok(
        [&groups](tape& t, var x) {
            const var w = t.weighted_sum_rows(x, groups);
            return t.mean_all(t.hadamard(w, w));
        },
        random_matrix(3, 4, gen));
}

TEST(gradcheck, row_dot_both_sides) {
    rng gen(16);
    const matrix other = random_matrix(4, 3, gen);
    expect_gradient_ok(
        [&other](tape& t, var x) { return t.mean_all(t.row_dot(x, t.constant(other))); },
        random_matrix(4, 3, gen));
    expect_gradient_ok([](tape& t, var x) { return t.mean_all(t.row_dot(x, x)); },
                       random_matrix(4, 3, gen));
}

TEST(gradcheck, pairwise_sqdist_both_sides) {
    rng gen(17);
    const matrix centroids = random_matrix(2, 3, gen);
    expect_gradient_ok(
        [&centroids](tape& t, var x) {
            return t.mean_all(t.pairwise_sqdist(x, t.constant(centroids)));
        },
        random_matrix(4, 3, gen));
    const matrix points = random_matrix(4, 3, gen);
    expect_gradient_ok(
        [&points](tape& t, var mu) {
            return t.mean_all(t.pairwise_sqdist(t.constant(points), mu));
        },
        random_matrix(2, 3, gen));
}

TEST(gradcheck, row_normalize) {
    rng gen(18);
    matrix m = random_matrix(3, 4, gen);
    for (double& x : m.flat()) x = std::abs(x) + 0.2;
    const matrix probe = random_matrix(3, 4, gen);
    expect_gradient_ok(
        [&probe](tape& t, var x) {
            return t.mean_all(t.hadamard(t.row_normalize(x), t.constant(probe)));
        },
        m);
}

TEST(gradcheck, softmax_rows) {
    rng gen(19);
    const matrix probe = random_matrix(3, 5, gen);
    expect_gradient_ok(
        [&probe](tape& t, var x) {
            return t.mean_all(t.hadamard(t.softmax_rows(x), t.constant(probe)));
        },
        random_matrix(3, 5, gen));
}

TEST(gradcheck, composite_gnn_like_stack) {
    // A miniature RF-GNN hop: gather → weighted aggregate → concat → matmul
    // → tanh → l2-normalize → skip-gram style loss. If this passes, the
    // training graph is differentiated correctly end to end.
    rng gen(20);
    const matrix w = random_matrix(4, 2, gen);
    const row_csr groups{{0, 2, 3, 5},
                         {{1, 0.6}, {2, 0.4}, {0, 1.0}, {2, 0.5}, {0, 0.5}}};
    expect_gradient_ok(
        [&](tape& t, var x) {
            const var agg = t.weighted_sum_rows(x, groups);
            const var self = t.gather_rows(x, {0, 1, 2});
            const var cat = t.concat_cols(self, agg);
            const var h = t.l2_normalize_rows(t.tanh_act(t.matmul(cat, t.constant(w))));
            const var left = t.gather_rows(h, {0, 1});
            const var right = t.gather_rows(h, {2, 0});
            return t.negate(t.mean_all(t.log_sigmoid(t.row_dot(left, right))));
        },
        random_matrix(3, 2, gen));
}

// ---------- optimizers ----------

TEST(optimizer, sgd_minimizes_quadratic) {
    // f(x) = ||x - target||²
    const matrix target{{1.0, -2.0, 3.0}};
    matrix x(1, 3, 0.0);
    sgd opt(0.1);
    for (int i = 0; i < 200; ++i) {
        matrix grad(1, 3);
        for (std::size_t j = 0; j < 3; ++j) grad(0, j) = 2.0 * (x(0, j) - target(0, j));
        opt.step(x, grad);
    }
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(x(0, j), target(0, j), 1e-6);
}

TEST(optimizer, sgd_momentum_still_converges) {
    const matrix target{{-1.0, 0.5}};
    matrix x(1, 2, 0.0);
    sgd opt(0.05, 0.9);
    for (int i = 0; i < 400; ++i) {
        matrix grad(1, 2);
        for (std::size_t j = 0; j < 2; ++j) grad(0, j) = 2.0 * (x(0, j) - target(0, j));
        opt.step(x, grad);
    }
    for (std::size_t j = 0; j < 2; ++j) EXPECT_NEAR(x(0, j), target(0, j), 1e-4);
}

TEST(optimizer, adam_minimizes_quadratic) {
    const matrix target{{2.0, -1.0}};
    matrix x(1, 2, 0.0);
    adam opt(adam::config{0.05});
    for (int i = 0; i < 500; ++i) {
        matrix grad(1, 2);
        for (std::size_t j = 0; j < 2; ++j) grad(0, j) = 2.0 * (x(0, j) - target(0, j));
        opt.step(x, grad);
        opt.end_step();
    }
    for (std::size_t j = 0; j < 2; ++j) EXPECT_NEAR(x(0, j), target(0, j), 1e-3);
}

TEST(optimizer, gradient_clipping) {
    matrix g{{3.0, 4.0}};
    clip_gradient(g, 1.0);
    EXPECT_NEAR(std::sqrt(g(0, 0) * g(0, 0) + g(0, 1) * g(0, 1)), 1.0, 1e-12);
    matrix g2{{0.3, 0.4}};
    clip_gradient(g2, 1.0);  // below the cap: untouched
    EXPECT_DOUBLE_EQ(g2(0, 0), 0.3);
}

TEST(optimizer, clipping_in_the_update_matches_a_clipped_copy) {
    // The optimisers scale by the clip factor inside the update loop; the
    // result must equal, bit for bit, an unclipped step on a gradient that
    // clip_gradient already brought to the cap.
    rng gen(31);
    const matrix start = random_matrix(3, 4, gen);
    for (const double gain : {0.1, 10.0}) {  // below and above the cap
        matrix grad = random_matrix(3, 4, gen);
        grad *= gain;
        matrix clipped = grad;
        clip_gradient(clipped, 1.0);

        matrix a = start, b = start;
        adam with_clip(adam::config{0.05, 0.9, 0.999, 1e-8, 1.0});
        adam without(adam::config{0.05});
        for (int step = 0; step < 3; ++step) {
            with_clip.step(a, grad);
            with_clip.end_step();
            without.step(b, clipped);
            without.end_step();
        }
        EXPECT_EQ(a, b) << "adam, gain " << gain;

        matrix c = start, d = start;
        sgd sgd_clip(0.1, 0.9, 1.0);
        sgd sgd_plain(0.1, 0.9);
        for (int step = 0; step < 3; ++step) {
            sgd_clip.step(c, grad);
            sgd_plain.step(d, clipped);
        }
        EXPECT_EQ(c, d) << "sgd, gain " << gain;
    }
}

TEST(optimizer, rejects_bad_config) {
    EXPECT_THROW(sgd(-0.1), std::invalid_argument);
    EXPECT_THROW(sgd(0.1, 1.5), std::invalid_argument);
    EXPECT_THROW(adam(adam::config{0.0}), std::invalid_argument);
}

TEST(optimizer, shape_mismatch_throws) {
    matrix x(1, 2, 0.0);
    matrix bad_grad(2, 2, 0.0);
    sgd s(0.1);
    EXPECT_THROW(s.step(x, bad_grad), std::invalid_argument);
    adam a;
    EXPECT_THROW(a.step(x, bad_grad), std::invalid_argument);
}

// ---------- end-to-end tape training sanity ----------

TEST(training, tape_learns_linear_map) {
    // Fit y = XW with W learned from data; verifies the full loop
    // (forward, backward, adam) reduces loss by orders of magnitude.
    rng gen(42);
    const matrix x_data = random_matrix(32, 4, gen);
    const matrix w_true = random_matrix(4, 2, gen);
    const matrix y_data = fisone::linalg::matmul(x_data, w_true);

    matrix w = random_matrix(4, 2, gen, 0.1);
    adam opt(adam::config{0.05});
    double first_loss = 0.0, last_loss = 0.0;
    for (int epoch = 0; epoch < 300; ++epoch) {
        tape t;
        const var wv = t.parameter(w);
        const var pred = t.matmul(t.constant(x_data), wv);
        const var diff = t.sub(pred, t.constant(y_data));
        const var loss = t.mean_all(t.hadamard(diff, diff));
        t.backward(loss);
        opt.step(w, t.grad(wv));
        opt.end_step();
        if (epoch == 0) first_loss = t.value(loss)(0, 0);
        last_loss = t.value(loss)(0, 0);
    }
    EXPECT_LT(last_loss, first_loss * 1e-4);
}

}  // namespace
