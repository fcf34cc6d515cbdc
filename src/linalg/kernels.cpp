#include "kernels.hpp"

#include <algorithm>

namespace fisone::linalg::kernels {

namespace {

// ---------------------------------------------------------------------------
// Shared axpy-style gemm core (`detail::gemm_axpy`): C(i, j) accumulates
// a_elem(i, kk) · B(kk, j) with B rows contiguous over j. The A element
// for output row i at depth kk sits at a[i·ras + kk·kas], which covers
// both layouts of A:
//   matmul    (A m×k):  ras = k, kas = 1
//   matmul_tn (A k×m):  ras = 1, kas = m   (output row i = column i of A)
// matmul_nt reaches it as matmul over a packed Bᵀ (see matrix.cpp).
// ---------------------------------------------------------------------------

#if defined(__GNUC__) || defined(__clang__)
#define FISONE_HAVE_VEC_EXT 1
/// Two-lane double vector (one SSE2 register). Lane arithmetic is
/// elementwise, so every output cell still owns one scalar accumulator
/// and its addition order is untouched — vectors only batch *independent*
/// cells, which is exactly what the bit-identity contract allows.
typedef double v2df __attribute__((vector_size(16)));

inline v2df load2(const double* p) noexcept {
    v2df v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}
inline void store2(double* p, v2df v) noexcept { __builtin_memcpy(p, &v, sizeof v); }
#endif

#if FISONE_HAVE_VEC_EXT && (defined(__x86_64__) || defined(__i386__))
#define FISONE_HAVE_AVX2_TILE 1
#else
#define FISONE_HAVE_AVX2_TILE 0
#endif

/// Full two-lane register tile (kKernelRows × kKernelCols) in tile-local
/// coordinates: `c_tile` points at the top-left output cell (row stride
/// n), `b_tile` at B(k0, j) (row stride n), and `a_tile` at A-element
/// (row 0, depth k0) with element address a_tile[r·ras + kk·kas].
/// Accumulators stay in registers for all `kd` depth steps; `first`
/// selects zero-init vs continuing from the previous k-block's stored
/// partials. Either way each cell's addition sequence is the depth index
/// in ascending order. This is the baseline tile (SSE2 on x86-64).
inline void tile_axpy_sse2(const double* a_tile, std::size_t ras, std::size_t kas,
                           const double* b_tile, double* c_tile, std::size_t n, std::size_t kd,
                           bool first) noexcept {
    constexpr std::size_t MR = kKernelRows;
    constexpr std::size_t NR = kKernelCols;
#if FISONE_HAVE_VEC_EXT
    // Explicit two-lane tiles: GCC's auto-vectoriser otherwise picks a
    // shuffle-heavy along-k scheme here that spills the accumulators.
    constexpr std::size_t NV = NR / 2;
    v2df acc[MR][NV];
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t q = 0; q < NV; ++q)
            acc[r][q] = first ? v2df{0.0, 0.0} : load2(c_tile + r * n + 2 * q);
    // Two depth steps per iteration amortise the loop control; each
    // cell's two updates stay sequential, so the order is unchanged.
    std::size_t kk = 0;
    for (; kk + 2 <= kd; kk += 2) {
        const double* brow0 = b_tile + kk * n;
        const double* brow1 = brow0 + n;
        v2df bv0[NV];
        v2df bv1[NV];
        for (std::size_t q = 0; q < NV; ++q) bv0[q] = load2(brow0 + 2 * q);
        for (std::size_t q = 0; q < NV; ++q) bv1[q] = load2(brow1 + 2 * q);
        for (std::size_t r = 0; r < MR; ++r) {
            const double a0 = a_tile[r * ras + kk * kas];
            const double a1 = a_tile[r * ras + (kk + 1) * kas];
            const v2df av0 = {a0, a0};
            const v2df av1 = {a1, a1};
            for (std::size_t q = 0; q < NV; ++q) {
                acc[r][q] += av0 * bv0[q];
                acc[r][q] += av1 * bv1[q];
            }
        }
    }
    for (; kk < kd; ++kk) {
        const double* brow = b_tile + kk * n;
        v2df bv[NV];
        for (std::size_t q = 0; q < NV; ++q) bv[q] = load2(brow + 2 * q);
        for (std::size_t r = 0; r < MR; ++r) {
            const double as = a_tile[r * ras + kk * kas];
            const v2df av = {as, as};
            for (std::size_t q = 0; q < NV; ++q) acc[r][q] += av * bv[q];
        }
    }
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t q = 0; q < NV; ++q) store2(c_tile + r * n + 2 * q, acc[r][q]);
#else
    double acc[MR][NR];
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t q = 0; q < NR; ++q) acc[r][q] = first ? 0.0 : c_tile[r * n + q];
    for (std::size_t kk = 0; kk < kd; ++kk) {
        const double* brow = b_tile + kk * n;
        for (std::size_t r = 0; r < MR; ++r) {
            const double av = a_tile[r * ras + kk * kas];
            for (std::size_t q = 0; q < NR; ++q) acc[r][q] += av * brow[q];
        }
    }
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t q = 0; q < NR; ++q) c_tile[r * n + q] = acc[r][q];
#endif
}

#if FISONE_HAVE_AVX2_TILE
/// Four-lane double vector (one AVX register). As with v2df, lanes are
/// independent output cells, each with its own accumulator.
typedef double v4df __attribute__((vector_size(32)));

__attribute__((target("avx2"))) inline v4df load4(const double* p) noexcept {
    v4df v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}
__attribute__((target("avx2"))) inline void store4(double* p, v4df v) noexcept {
    __builtin_memcpy(p, &v, sizeof v);
}

/// Wide register tile: kKernelRows × kWideCols cells in eight four-lane
/// accumulators, same coordinates and depth order as `tile_axpy_sse2`.
/// Compiled for AVX2 but never for FMA: every update is a separate
/// multiply and add, rounded exactly like the scalar `c += a·b` (the
/// build also pins -ffp-contract=off, so no flag can fuse them).
__attribute__((target("avx2"))) void tile_axpy_avx2(const double* a_tile, std::size_t ras,
                                                    std::size_t kas, const double* b_tile,
                                                    double* c_tile, std::size_t n,
                                                    std::size_t kd, bool first) noexcept {
    constexpr std::size_t MR = kKernelRows;
    constexpr std::size_t NV = kWideCols / 4;
    v4df acc[MR][NV];
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t q = 0; q < NV; ++q)
            acc[r][q] = first ? v4df{0.0, 0.0, 0.0, 0.0} : load4(c_tile + r * n + 4 * q);
    std::size_t kk = 0;
    for (; kk + 2 <= kd; kk += 2) {
        const double* brow0 = b_tile + kk * n;
        const double* brow1 = brow0 + n;
        v4df bv0[NV];
        v4df bv1[NV];
        for (std::size_t q = 0; q < NV; ++q) bv0[q] = load4(brow0 + 4 * q);
        for (std::size_t q = 0; q < NV; ++q) bv1[q] = load4(brow1 + 4 * q);
        for (std::size_t r = 0; r < MR; ++r) {
            const double a0 = a_tile[r * ras + kk * kas];
            const double a1 = a_tile[r * ras + (kk + 1) * kas];
            const v4df av0 = {a0, a0, a0, a0};
            const v4df av1 = {a1, a1, a1, a1};
            for (std::size_t q = 0; q < NV; ++q) {
                acc[r][q] += av0 * bv0[q];
                acc[r][q] += av1 * bv1[q];
            }
        }
    }
    for (; kk < kd; ++kk) {
        const double* brow = b_tile + kk * n;
        v4df bv[NV];
        for (std::size_t q = 0; q < NV; ++q) bv[q] = load4(brow + 4 * q);
        for (std::size_t r = 0; r < MR; ++r) {
            const double as = a_tile[r * ras + kk * kas];
            const v4df av = {as, as, as, as};
            for (std::size_t q = 0; q < NV; ++q) acc[r][q] += av * bv[q];
        }
    }
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t q = 0; q < NV; ++q) store4(c_tile + r * n + 4 * q, acc[r][q]);
}
#endif

/// Ragged edge tile (mr × nr smaller than the full tile), same tile-local
/// coordinates and the same ascending-depth accumulation order.
inline void tile_axpy_edge(const double* a_tile, std::size_t ras, std::size_t kas,
                           const double* b_tile, double* c_tile, std::size_t n, std::size_t mr,
                           std::size_t nr, std::size_t kd, bool first) noexcept {
    for (std::size_t r = 0; r < mr; ++r)
        for (std::size_t q = 0; q < nr; ++q) {
            double acc = first ? 0.0 : c_tile[r * n + q];
            for (std::size_t kk = 0; kk < kd; ++kk)
                acc += a_tile[r * ras + kk * kas] * b_tile[kk * n + q];
            c_tile[r * n + q] = acc;
        }
}

/// The tile `matmul_blocked` and `matmul_tn_blocked` run, chosen once per
/// process from the CPU's features.
detail::tile best_tile() noexcept {
    static const detail::tile t =
        detail::avx2_available() ? detail::tile::avx2 : detail::tile::sse2;
    return t;
}

}  // namespace

namespace detail {

bool avx2_available() noexcept {
#if FISONE_HAVE_AVX2_TILE
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

void gemm_axpy(tile t, const double* a, std::size_t ras, std::size_t kas, const double* b,
               double* c, std::size_t depth, std::size_t n, std::size_t r0,
               std::size_t r1) noexcept {
    if (n == 0 || r1 <= r0) return;
    if (depth == 0) {  // empty sum — the output rows are exactly zero
        std::fill(c + r0 * n, c + r1 * n, 0.0);
        return;
    }
#if FISONE_HAVE_AVX2_TILE
    const bool wide = t == tile::avx2;
#else
    static_cast<void>(t);
#endif
    // Column-strided A (the tn product, kas > 1) is repacked per i-tile
    // into a contiguous kKernelRows × k-block micro-panel: the pack pays
    // the strided loads once, and every j-tile then streams it with unit
    // depth stride like the nn layout. Copying values never changes them,
    // so bit-identity holds.
    const bool pack = kas != 1;
    double apack[kKernelRows * kBlockK];
    for (std::size_t k0 = 0; k0 < depth; k0 += kBlockK) {
        const std::size_t k1 = std::min(depth, k0 + kBlockK);
        const std::size_t kd = k1 - k0;
        const bool first = k0 == 0;
        for (std::size_t i = r0; i < r1; i += kKernelRows) {
            const std::size_t mr = std::min(kKernelRows, r1 - i);
            const double* a_tile = a + i * ras + k0 * kas;
            std::size_t t_ras = ras;
            std::size_t t_kas = kas;
            if (pack && mr == kKernelRows && n >= 2 * kKernelCols) {
                for (std::size_t r = 0; r < kKernelRows; ++r)
                    for (std::size_t kk = 0; kk < kd; ++kk)
                        apack[r * kBlockK + kk] = a_tile[r * ras + kk * kas];
                a_tile = apack;
                t_ras = kBlockK;
                t_kas = 1;
            }
            const double* b_panel = b + k0 * n;
            double* c_rows = c + i * n;
            std::size_t j = 0;
            if (mr == kKernelRows) {
#if FISONE_HAVE_AVX2_TILE
                if (wide)
                    for (; j + kWideCols <= n; j += kWideCols)
                        tile_axpy_avx2(a_tile, t_ras, t_kas, b_panel + j, c_rows + j, n, kd,
                                       first);
#endif
                for (; j + kKernelCols <= n; j += kKernelCols)
                    tile_axpy_sse2(a_tile, t_ras, t_kas, b_panel + j, c_rows + j, n, kd, first);
            }
            for (; j < n; j += kKernelCols)
                tile_axpy_edge(a_tile, t_ras, t_kas, b_panel + j, c_rows + j, n, mr,
                               std::min(kKernelCols, n - j), kd, first);
        }
    }
}

}  // namespace detail

// --- matmul: C(m×n) = A(m×k) · B(k×n) --------------------------------------

void matmul_scalar(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                   std::size_t n, std::size_t r0, std::size_t r1) noexcept {
    static_cast<void>(m);
    if (n == 0 || r1 <= r0) return;
    std::fill(c + r0 * n, c + r1 * n, 0.0);
    for (std::size_t i = r0; i < r1; ++i) {
        double* crow = c + i * n;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double av = a[i * k + kk];
            const double* brow = b + kk * n;
            for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
    }
}

void matmul_blocked(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                    std::size_t n, std::size_t r0, std::size_t r1) noexcept {
    static_cast<void>(m);
    detail::gemm_axpy(best_tile(), a, k, 1, b, c, k, n, r0, r1);
}

// --- matmul_nt: C(m×n) = A(m×k) · B(n×k)ᵀ ----------------------------------

void matmul_nt_scalar(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                      std::size_t n, std::size_t r0, std::size_t r1) noexcept {
    static_cast<void>(m);
    for (std::size_t i = r0; i < r1; ++i) {
        const double* arow = a + i * k;
        for (std::size_t j = 0; j < n; ++j) {
            const double* brow = b + j * k;
            double acc = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
            c[i * n + j] = acc;
        }
    }
}

// --- matmul_tn: C(m×n) = A(k×m)ᵀ · B(k×n) ----------------------------------

void matmul_tn_scalar(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                      std::size_t n, std::size_t r0, std::size_t r1) noexcept {
    if (n == 0 || r1 <= r0) return;
    std::fill(c + r0 * n, c + r1 * n, 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
        const double* brow = b + kk * n;
        for (std::size_t i = r0; i < r1; ++i) {
            const double av = a[kk * m + i];
            double* crow = c + i * n;
            for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
    }
}

void matmul_tn_blocked(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                       std::size_t n, std::size_t r0, std::size_t r1) noexcept {
    detail::gemm_axpy(best_tile(), a, 1, m, b, c, k, n, r0, r1);
}

// --- fused vector primitives ------------------------------------------------

void axpy(std::size_t n, double alpha, const double* x, double* y) noexcept {
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double dot(std::size_t n, const double* x, const double* y) noexcept {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
    return acc;
}

void scale(std::size_t n, double alpha, double* x) noexcept {
    for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

}  // namespace fisone::linalg::kernels
