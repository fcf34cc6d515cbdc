#pragma once

/// \file numerics.hpp
/// In-tree `exp` and `tanh` for RF-GNN training and embedding (and the
/// tape's sigmoid family that checks it). Both are fixed formulas built
/// from `+ − × ÷`, `min`/`max` and exact bit operations, so every result
/// is a function of the input bits alone: it does not depend on the libm
/// a build links, and it is the same under gcc and clang, at `x86-64` and
/// at `x86-64-v3`, as long as the build keeps `-ffp-contract=off`.
///
/// ## Method
/// Cody–Waite reduction: y = k·ln2 + r with k = round(y·log2e), taken
/// from the low bits of `y·log2e + 0x1.8p52` (no float→int conversion),
/// ln2 split into a 32-bit head (k·ln2_hi is exact) and a tail, and
/// |r| ≤ ln2/2. On that interval expm1(r) = r + r²·P(r), P a degree-9
/// Chebyshev fit of (expm1(r) − r)/r² (relative error of the fit below
/// 0.37 ulp). 2^k is assembled in the exponent field from the same bits.
///  - exp(x) = (1 + q)·2^k1·2^k2 with k1 + k2 = k, so a subnormal result
///    rounds once and an overflow gives +inf. Inputs are clamped to
///    [−746, 710] first (beyond both, the result is 0 or +inf anyway).
///  - tanh(x) = sign(x)·u/(u + 2) with u = expm1(2|x|) = 2^k·q + (2^k − 1);
///    |x| is clamped to 22, where u + 2 rounds to u and the quotient is
///    exactly 1 (tanh rounds to 1 from |x| ≈ 19.06 on).
///
/// Stated bounds, checked against `long double` over dense sweeps in
/// test_numerics: exp within 1.5 ulp on [−745, 709.78] (1.05 seen), tanh
/// within 3 ulp on every finite input (2.6 seen, near |x| = 0.18).
/// tanh(±0) = ±0, tanh(±inf) = ±1, exp(−inf) = 0, exp(+inf) = +inf, and
/// a NaN input gives a NaN.
///
/// ## Two lanes
/// The array entry points run two SSE2 lanes, as `autodiff::adam::step`
/// does: each lane runs the scalar operation sequence (both are the one
/// template below, instantiated for `double` and for a two-lane type whose
/// operators are the matching SSE2 instructions), and the scalar form
/// takes the tail and non-SSE2 builds. The lanes are explicit because
/// compilers leave the scalar loop unvectorised: gcc counts the clamps'
/// selects as control flow unless trapping math is off. `maxpd`/`minpd` pick their second
/// operand when either is NaN, which is what `a > b ? a : b` does, so the
/// clamps agree lane for lane too.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace fisone::linalg::numerics {

namespace detail {

inline constexpr double k_log2e = 0x1.71547652b82fep0;
inline constexpr double k_ln2_hi = 0x1.62e42fee00000p-1;  // low 21 bits zero
inline constexpr double k_ln2_lo = 0x1.a39ef35793c76p-33;
inline constexpr double k_shifter = 0x1.8p52;  // 2^52 + 2^51
inline constexpr std::uint64_t k_shifter_bits = 0x4338000000000000ULL;
inline constexpr std::uint64_t k_sign_bit = 0x8000000000000000ULL;

// P(r) ≈ (expm1(r) − r)/r² on [−0.3467, 0.3467], lowest degree first.
inline constexpr double k_p0 = 0x1.0000000000001p-1;
inline constexpr double k_p1 = 0x1.5555555555556p-3;
inline constexpr double k_p2 = 0x1.5555555553d56p-5;
inline constexpr double k_p3 = 0x1.11111111109afp-7;
inline constexpr double k_p4 = 0x1.6c16c17890eb4p-10;
inline constexpr double k_p5 = 0x1.a01a01a7c73c0p-13;
inline constexpr double k_p6 = 0x1.a019b8f9792eep-16;
inline constexpr double k_p7 = 0x1.71de0da24602dp-19;
inline constexpr double k_p8 = 0x1.28919ccaf9211p-22;
inline constexpr double k_p9 = 0x1.af38c67fbb53ep-26;

// The scalar lane: plain doubles and their bit patterns.
inline std::uint64_t bits(double x) noexcept { return std::bit_cast<std::uint64_t>(x); }
inline double from_bits(std::uint64_t b) noexcept { return std::bit_cast<double>(b); }
inline double max_of(double a, double b) noexcept { return a > b ? a : b; }
inline double min_of(double a, double b) noexcept { return a < b ? a : b; }

#if defined(__SSE2__)
// Two lanes: each operator is one SSE2 instruction that rounds as its
// scalar form does.
struct u64x2 {
    __m128i v;
    u64x2(std::uint64_t b) noexcept : v(_mm_set1_epi64x(static_cast<long long>(b))) {}
    u64x2(__m128i x) noexcept : v(x) {}
};
inline u64x2 operator+(u64x2 a, u64x2 b) noexcept { return _mm_add_epi64(a.v, b.v); }
inline u64x2 operator-(u64x2 a, u64x2 b) noexcept { return _mm_sub_epi64(a.v, b.v); }
inline u64x2 operator&(u64x2 a, u64x2 b) noexcept { return _mm_and_si128(a.v, b.v); }
inline u64x2 operator|(u64x2 a, u64x2 b) noexcept { return _mm_or_si128(a.v, b.v); }
inline u64x2 operator<<(u64x2 a, int n) noexcept { return _mm_slli_epi64(a.v, n); }
inline u64x2 operator>>(u64x2 a, int n) noexcept { return _mm_srli_epi64(a.v, n); }

struct f64x2 {
    __m128d v;
    f64x2(double x) noexcept : v(_mm_set1_pd(x)) {}
    f64x2(__m128d x) noexcept : v(x) {}
};
inline f64x2 operator+(f64x2 a, f64x2 b) noexcept { return _mm_add_pd(a.v, b.v); }
inline f64x2 operator-(f64x2 a, f64x2 b) noexcept { return _mm_sub_pd(a.v, b.v); }
inline f64x2 operator*(f64x2 a, f64x2 b) noexcept { return _mm_mul_pd(a.v, b.v); }
inline f64x2 operator/(f64x2 a, f64x2 b) noexcept { return _mm_div_pd(a.v, b.v); }
inline u64x2 bits(f64x2 x) noexcept { return _mm_castpd_si128(x.v); }
inline f64x2 from_bits(u64x2 b) noexcept { return _mm_castsi128_pd(b.v); }
inline f64x2 max_of(f64x2 a, f64x2 b) noexcept { return _mm_max_pd(a.v, b.v); }
inline f64x2 min_of(f64x2 a, f64x2 b) noexcept { return _mm_min_pd(a.v, b.v); }
#endif

/// expm1(r) for r = y − k·ln2, with \p t left holding k in its low bits
/// (`bits(t) = bits(0x1.8p52) + k`).
template <class V>
V expm1_reduced(V y, V& t) noexcept {
    t = y * V(k_log2e) + V(k_shifter);
    const V k = t - V(k_shifter);
    const V r = (y - k * V(k_ln2_hi)) - k * V(k_ln2_lo);
    // Estrin's scheme: the same polynomial in a quarter of Horner's
    // dependency chain, so consecutive elements overlap in the pipeline.
    const V r2 = r * r;
    const V r4 = r2 * r2;
    const V p01 = V(k_p0) + V(k_p1) * r;
    const V p23 = V(k_p2) + V(k_p3) * r;
    const V p45 = V(k_p4) + V(k_p5) * r;
    const V p67 = V(k_p6) + V(k_p7) * r;
    const V p89 = V(k_p8) + V(k_p9) * r;
    const V p03 = p01 + p23 * r2;
    const V p47 = p45 + p67 * r2;
    const V p = (p03 + p47 * r4) + p89 * (r4 * r4);
    return r + r2 * p;
}

template <class V>
V exp_kernel(V x) noexcept {
    // max_of(lo, x) and min_of(hi, x) hand a NaN through.
    x = min_of(V(710.0), max_of(V(-746.0), x));
    V t = x;
    const V q = expm1_reduced(x, t);
    // b = k + 2048 ≥ 0 (k ≥ −1077 after the clamp), so a logical shift
    // halves it: 2^k = 2^(h − 1024) · 2^(b − h − 1024) with h = b >> 1,
    // each factor a normal number.
    using U = decltype(bits(t));
    const U b = bits(t) - U(k_shifter_bits - 2048);
    const U h = b >> 1;
    const V s1 = from_bits((h - U(1)) << 52);
    const V s2 = from_bits((b - h - U(1)) << 52);
    return ((V(1.0) + q) * s1) * s2;
}

template <class V>
V tanh_kernel(V x) noexcept {
    const auto xb = bits(x);
    using U = decltype(xb);
    // |x|, clamped to 22 (a NaN passes min_of unchanged).
    const V a = min_of(V(22.0), from_bits(xb & U(~k_sign_bit)));
    V t = a;
    const V q = expm1_reduced(a + a, t);
    const V s = from_bits((bits(t) + U(1023)) << 52);  // 2^k, 0 ≤ k ≤ 64
    const V u = s * q + (s - V(1.0));
    const V th = u / (u + V(2.0));
    return from_bits(bits(th) | (xb & U(k_sign_bit)));
}

template <class Kernel>
void each(std::span<double> xs, Kernel kernel) noexcept {
    double* p = xs.data();
    const std::size_t n = xs.size();
    std::size_t i = 0;
#if defined(__SSE2__)
    for (; i + 2 <= n; i += 2) _mm_storeu_pd(p + i, kernel(f64x2(_mm_loadu_pd(p + i))).v);
#endif
    for (; i < n; ++i) p[i] = kernel(p[i]);
}

}  // namespace detail

/// e^x, within 1.5 ulp (see the file comment).
inline double exp(double x) noexcept { return detail::exp_kernel(x); }

/// tanh(x), within 3 ulp (see the file comment).
inline double tanh(double x) noexcept { return detail::tanh_kernel(x); }

/// Replace every element by its `exp`, two at a time; bit-identical to
/// calling the scalar `exp` on each.
inline void exp_each(std::span<double> xs) noexcept {
    detail::each(xs, [](auto x) { return detail::exp_kernel(x); });
}

/// Replace every element by its `tanh`, two at a time; bit-identical to
/// calling the scalar `tanh` on each.
inline void tanh_each(std::span<double> xs) noexcept {
    detail::each(xs, [](auto x) { return detail::tanh_kernel(x); });
}

}  // namespace fisone::linalg::numerics
