#pragma once

/// \file kernels.hpp
/// The raw numeric kernel layer under `linalg::matrix`: cache-blocked,
/// register-tiled dense products plus the fused vector primitives
/// (axpy / dot / scale) everything above builds on. Kernels work on raw
/// row-major buffers so they carry no matrix dependency and can be
/// benchmarked / tested against the scalar reference in isolation.
///
/// ## The bit-identity contract
///
/// Every blocked kernel produces output that is **bit-identical** to its
/// scalar reference for finite inputs, at any thread count. The rule
/// that makes this possible: for every output cell, the sequence of
/// floating-point additions is exactly `c = 0; c += a·b` over the depth
/// index in ascending order — the same sequence the scalar i-k-j loop
/// performs. Blocking merely changes *where* the running value lives:
///  - the j-loop is register-tiled, which is pure loop unrolling — each
///    cell keeps its own accumulator. The tiles are two-lane (SSE2,
///    kKernelCols wide) everywhere and four-lane (AVX2, kWideCols wide)
///    where the CPU has AVX2, picked once per process at run time. A
///    vector lane is one cell, so lane width never reorders a sum;
///  - no tile uses FMA: the AVX2 tile is compiled for `avx2` only, and
///    the build pins `-ffp-contract=off`, so `c += a·b` is always a
///    rounded multiply followed by a rounded add, whatever `-march` a
///    build passes;
///  - the k-loop is split into kBlockK-sized blocks processed in
///    ascending order; between blocks the accumulators round-trip
///    through the output buffer, which does not change the value
///    (storing and reloading a double is exact);
///  - `A·Bᵀ` runs as `A·(Bᵀ)` over a packed copy of Bᵀ: its cell
///    (i, j) sums a(i,kk)·b(j,kk) in ascending kk from zero, exactly
///    the sequence of the plain product, and copying never changes a
///    value;
///  - threads split by *output rows*, and no cell is ever touched by two
///    threads.
/// Hence blocked, scalar, serial and pooled runs, and SSE2-only and AVX2
/// CPUs, all agree to the bit.

#include <cstddef>
#include <new>
#include <utility>

namespace fisone::linalg::kernels {

/// Alignment of every matrix/buffer allocation: one full cache line, so
/// a 64-byte SIMD load/store never straddles lines and row starts of
/// power-of-two widths land on line boundaries.
inline constexpr std::size_t kAlignment = 64;

/// Register tile geometry of the blocked axpy-style products:
/// kKernelRows output rows × kKernelCols output columns accumulate in
/// registers per k-block. 4×4 doubles = 16 accumulators = 8 SSE2
/// registers, spill-free on baseline x86-64. The tall tile matters:
/// every loaded B vector feeds 4 output rows, so a full B sweep happens
/// once per 4 rows of C — half the B-panel traffic of a 2-row tile,
/// which is what large (≥256³) products are bound by.
inline constexpr std::size_t kKernelRows = 4;
inline constexpr std::size_t kKernelCols = 4;

/// Columns of the wide (AVX2) tile: kKernelRows × 8 doubles = eight
/// four-lane accumulators, which leaves half of the sixteen AVX
/// registers for the B row vectors and the broadcast A values.
inline constexpr std::size_t kWideCols = 8;

/// Depth (k) block: 256 iterations × a 64-byte B row per iteration keeps
/// the streamed B panel ≈16 KiB — comfortably L1-resident — while the
/// accumulators stay in registers for the whole block.
inline constexpr std::size_t kBlockK = 256;

/// STL allocator returning kAlignment-aligned storage whose *default*
/// construction is a no-op: `std::vector<double, aligned_allocator<double>>(n)`
/// yields uninitialised storage (the uninit-alloc path used for buffers
/// that are fully overwritten), while the `(n, value)` form still fills.
template <class T>
class aligned_allocator {
public:
    using value_type = T;

    aligned_allocator() noexcept = default;
    template <class U>
    aligned_allocator(const aligned_allocator<U>&) noexcept {}

    [[nodiscard]] T* allocate(std::size_t n) {
        return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
    }
    void deallocate(T* p, std::size_t n) noexcept {
        ::operator delete(p, n * sizeof(T), std::align_val_t{kAlignment});
    }

    /// Default construction leaves trivially-destructible elements
    /// uninitialised — this is what makes `vector(n)` an uninit alloc.
    template <class U>
    void construct(U* p) noexcept {
        ::new (static_cast<void*>(p)) U;
    }
    template <class U, class... Args>
    void construct(U* p, Args&&... args) {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }

    template <class U>
    struct rebind {
        using other = aligned_allocator<U>;
    };

    friend bool operator==(const aligned_allocator&, const aligned_allocator&) noexcept {
        return true;
    }
};

// ---------------------------------------------------------------------------
// Dense products. All buffers are row-major. Each call computes output
// rows [r0, r1) only, so a caller can split work across threads by rows;
// the output range needs no pre-zeroing (the kernels fully define it).
// Output must not alias either input.
// ---------------------------------------------------------------------------

/// C(m×n) = A(m×k) · B(k×n) — scalar i-k-j reference.
void matmul_scalar(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                   std::size_t n, std::size_t r0, std::size_t r1) noexcept;

/// C(m×n) = A(m×k) · B(k×n) — cache-blocked, register-tiled.
void matmul_blocked(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                    std::size_t n, std::size_t r0, std::size_t r1) noexcept;

/// C(m×n) = A(m×k) · B(n×k)ᵀ — scalar i-j-k reference. The blocked form
/// is `matmul_blocked` over a packed Bᵀ (`linalg::matmul_nt_into`).
void matmul_nt_scalar(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                      std::size_t n, std::size_t r0, std::size_t r1) noexcept;

/// C(m×n) = A(k×m)ᵀ · B(k×n) — scalar k-outer reference.
void matmul_tn_scalar(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                      std::size_t n, std::size_t r0, std::size_t r1) noexcept;

/// C(m×n) = A(k×m)ᵀ · B(k×n) — cache-blocked, register-tiled.
void matmul_tn_blocked(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                       std::size_t n, std::size_t r0, std::size_t r1) noexcept;

namespace detail {

/// The register tiles of the blocked products, named so tests can run
/// each one on the same inputs. `matmul_blocked` and `matmul_tn_blocked`
/// use `avx2` when `avx2_available()`, else `sse2`.
enum class tile { sse2, avx2 };

/// True when this build has the AVX2 tile and the running CPU (and OS)
/// can execute it.
[[nodiscard]] bool avx2_available() noexcept;

/// The shared axpy core with an explicitly named tile: C(i, j) over rows
/// [r0, r1) accumulates A(i, kk)·B(kk, j) for kk in [0, depth), where
/// A(i, kk) = a[i·ras + kk·kas] and B is depth × n row-major
/// (`matmul_blocked` is ras = k, kas = 1; `matmul_tn_blocked` is ras = 1,
/// kas = m). \p t = tile::avx2 requires `avx2_available()`.
void gemm_axpy(tile t, const double* a, std::size_t ras, std::size_t kas, const double* b,
               double* c, std::size_t depth, std::size_t n, std::size_t r0,
               std::size_t r1) noexcept;

}  // namespace detail

// ---------------------------------------------------------------------------
// Fused vector primitives. Plain contiguous loops with restrict-style
// signatures that the compiler auto-vectorises; shared by the matrix
// elementwise operators, the tape's pointwise backprops and the row
// transforms. `dot` accumulates strictly left-to-right (it feeds
// bit-identity-sensitive paths), so it vectorises only across calls.
// ---------------------------------------------------------------------------

/// y[i] += alpha * x[i].
void axpy(std::size_t n, double alpha, const double* x, double* y) noexcept;

/// Σ x[i]·y[i], accumulated in index order.
[[nodiscard]] double dot(std::size_t n, const double* x, const double* y) noexcept;

/// x[i] *= alpha (row-scale when handed one row).
void scale(std::size_t n, double alpha, double* x) noexcept;

}  // namespace fisone::linalg::kernels
