// Tests for src/linalg/numerics.hpp: the in-tree exp and tanh against
// long-double references, their special values, and the two-lane array
// entry points against the scalar ones bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "linalg/numerics.hpp"

namespace {

namespace nm = fisone::linalg::numerics;

constexpr double k_inf = std::numeric_limits<double>::infinity();
constexpr double k_nan = std::numeric_limits<double>::quiet_NaN();

// The bounds the header states.
constexpr double k_exp_ulps = 1.5;
constexpr double k_tanh_ulps = 3.0;

/// |got − want| in units of the last place of the double nearest `want`
/// (subnormal results count in units of the smallest subnormal).
double ulps(double got, long double want) {
    const double nearest = static_cast<double>(want);
    if (nearest == 0.0) return got == 0.0 ? 0.0 : k_inf;
    const int e = std::ilogb(nearest);
    const long double unit = std::ldexp(1.0L, std::max(e - 52, -1074));
    return static_cast<double>(std::fabs(static_cast<long double>(got) - want) / unit);
}

struct worst {
    double err = 0.0;
    double at = 0.0;
    void see(double e, double x) {
        if (e > err) {
            err = e;
            at = x;
        }
    }
};

/// Largest error of \p f against \p ref over n + 1 evenly spaced points
/// of [lo, hi].
template <class F, class Ref>
worst sweep(double lo, double hi, int n, F f, Ref ref) {
    worst w;
    for (int i = 0; i <= n; ++i) {
        const double x = lo + (hi - lo) * static_cast<double>(i) / n;
        w.see(ulps(f(x), ref(static_cast<long double>(x))), x);
    }
    return w;
}

const auto tanh_ref = [](long double x) { return std::tanh(x); };
const auto exp_ref = [](long double x) { return std::exp(x); };
const auto nm_tanh = [](double x) { return nm::tanh(x); };
const auto nm_exp = [](double x) { return nm::exp(x); };

TEST(numerics, tanh_is_within_its_bound_on_a_dense_sweep) {
    const worst w = sweep(-20.0, 20.0, 2'000'000, nm_tanh, tanh_ref);
    EXPECT_LE(w.err, k_tanh_ulps) << "at x = " << w.at;
}

TEST(numerics, tanh_is_within_its_bound_at_small_magnitudes) {
    // 2^-80 .. 2^2, evenly in the exponent, both signs.
    worst w;
    for (int i = 0; i <= 400'000; ++i) {
        const double x = std::exp2(-80.0 + 82.0 * i / 400'000.0);
        w.see(ulps(nm::tanh(x), std::tanh(static_cast<long double>(x))), x);
        w.see(ulps(nm::tanh(-x), std::tanh(-static_cast<long double>(x))), -x);
    }
    EXPECT_LE(w.err, k_tanh_ulps) << "at x = " << w.at;
}

TEST(numerics, exp_is_within_its_bound_where_log_sigmoid_reaches) {
    // log σ and its derivative take exp(−|x|): arguments in (−∞, 0].
    const worst near = sweep(-40.0, 0.0, 1'000'000, nm_exp, exp_ref);
    EXPECT_LE(near.err, k_exp_ulps) << "at x = " << near.at;
    const worst far = sweep(-745.0, 0.0, 2'000'000, nm_exp, exp_ref);
    EXPECT_LE(far.err, k_exp_ulps) << "at x = " << far.at;
}

TEST(numerics, exp_is_within_its_bound_up_to_overflow) {
    const worst w = sweep(0.0, 709.78, 2'000'000, nm_exp, exp_ref);
    EXPECT_LE(w.err, k_exp_ulps) << "at x = " << w.at;
}

TEST(numerics, tanh_keeps_the_sign_of_zero_and_is_odd) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(nm::tanh(0.0)), std::bit_cast<std::uint64_t>(0.0));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(nm::tanh(-0.0)), std::bit_cast<std::uint64_t>(-0.0));
    for (const double x : {1e-300, 1e-8, 0.3, 0.55, 1.0, 3.7, 18.0}) {
        EXPECT_EQ(nm::tanh(-x), -nm::tanh(x)) << x;
        EXPECT_GT(nm::tanh(x), 0.0) << x;
    }
}

TEST(numerics, tanh_saturates_to_exactly_one_beyond_the_cutoff) {
    for (const double x : {19.1, 20.0, 22.0, 22.5, 100.0, 1e300, k_inf}) {
        EXPECT_EQ(nm::tanh(x), 1.0) << x;
        EXPECT_EQ(nm::tanh(-x), -1.0) << x;
    }
    EXPECT_LT(nm::tanh(18.0), 1.0);
}

TEST(numerics, exp_limits_and_exact_points) {
    EXPECT_EQ(nm::exp(0.0), 1.0);
    EXPECT_EQ(nm::exp(-0.0), 1.0);
    EXPECT_EQ(nm::exp(-k_inf), 0.0);
    EXPECT_EQ(nm::exp(-1000.0), 0.0);
    EXPECT_EQ(nm::exp(k_inf), k_inf);
    EXPECT_EQ(nm::exp(710.0), k_inf);
    EXPECT_TRUE(std::isfinite(nm::exp(709.78)));
    // Subnormal results round once.
    EXPECT_GT(nm::exp(-744.0), 0.0);
    EXPECT_LE(ulps(nm::exp(-740.0), std::exp(-740.0L)), 1.0);
}

TEST(numerics, nan_propagates) {
    EXPECT_TRUE(std::isnan(nm::tanh(k_nan)));
    EXPECT_TRUE(std::isnan(nm::tanh(-k_nan)));
    EXPECT_TRUE(std::isnan(nm::exp(k_nan)));
    EXPECT_TRUE(std::isnan(nm::exp(-k_nan)));
}

/// Inputs for the array tests: a NaN, infinities, both zeros and the
/// clamps' edges among ordinary values, early enough that every start
/// puts some of them in the two-lane loop and some in the scalar tail.
std::vector<double> array_inputs() {
    std::vector<double> v = {0.25,  k_nan, -0.0,   k_inf, 0.0,    -k_inf, -1.5,  1e-310,
                             22.0, -746.5, 709.0, -19.5, 1e300, -0.693, 0.3466, 3.0};
    for (int i = 0; i < 13; ++i) v.push_back(-4.0 + 0.61 * i);
    return v;
}

template <class Each, class Scalar>
void expect_array_matches_scalar(Each each, Scalar scalar) {
    const std::vector<double> in = array_inputs();
    for (std::size_t start = 0; start < 4; ++start)
        for (std::size_t len = 0; len <= 9; ++len) {
            // Elements outside the span must not change.
            std::vector<double> buf(in.begin(), in.end());
            each(std::span<double>(buf.data() + start, len));
            for (std::size_t i = 0; i < buf.size(); ++i) {
                const bool inside = i >= start && i < start + len;
                const double want = inside ? scalar(in[i]) : in[i];
                EXPECT_EQ(std::bit_cast<std::uint64_t>(buf[i]), std::bit_cast<std::uint64_t>(want))
                    << "start " << start << ", length " << len << ", element " << i;
            }
        }
}

TEST(numerics, tanh_each_is_bit_identical_to_scalar_tanh) {
    expect_array_matches_scalar([](std::span<double> s) { nm::tanh_each(s); }, nm_tanh);
}

TEST(numerics, exp_each_is_bit_identical_to_scalar_exp) {
    expect_array_matches_scalar([](std::span<double> s) { nm::exp_each(s); }, nm_exp);
}

}  // namespace
