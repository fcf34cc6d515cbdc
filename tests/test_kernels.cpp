// Tests for the linalg kernel layer: cache-blocked products checked
// bit-identical against a naive reference at 1 and 4 threads (including
// odd, non-tile-multiple, 1×N, N×1 and empty shapes, and the RF-GNN
// tape's own shapes), each register tile (SSE2, AVX2) against the scalar
// reference, the workspace arena, the uninit-alloc matrix path, the
// parallel policy and the work split, and allocation-reuse behaviour of
// the autodiff tape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "autodiff/tape.hpp"
#include "cluster/hierarchical.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/parallel_policy.hpp"
#include "linalg/workspace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fisone;
using linalg::matrix;

matrix random_matrix(std::size_t r, std::size_t c, util::rng& gen) {
    matrix m = matrix::uninit(r, c);
    for (double& x : m.flat()) x = gen.normal();
    return m;
}

bool bits_equal(const matrix& a, const matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Naive references: per output cell one scalar accumulator over the depth
// index in ascending order — the exact sequence the contract pins down.
matrix naive_matmul(const matrix& a, const matrix& b) {
    matrix out(a.rows(), b.cols(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
            out(i, j) = acc;
        }
    return out;
}

matrix naive_matmul_nt(const matrix& a, const matrix& b) {
    matrix out(a.rows(), b.rows(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.rows(); ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
            out(i, j) = acc;
        }
    return out;
}

matrix naive_matmul_tn(const matrix& a, const matrix& b) {
    matrix out(a.cols(), b.cols(), 0.0);
    for (std::size_t i = 0; i < a.cols(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < a.rows(); ++k) acc += a(k, i) * b(k, j);
            out(i, j) = acc;
        }
    return out;
}

// ---------- blocked kernels vs naive reference, serial and pooled ----------

struct mkn {
    std::size_t m, k, n;
};

const std::vector<mkn> kShapes{
    {0, 0, 0},   {1, 1, 1},    {1, 7, 1},      {5, 1, 9},    {1, 64, 1},
    {64, 1, 64}, {3, 5, 7},    {17, 33, 9},    {8, 8, 8},    {65, 129, 31},
    {4, 300, 4}, {31, 17, 63}, {160, 90, 110},  // big enough to engage the pool
    // The training tape's products for a 387-node graph at d = 16: the
    // forward layer (nn), the weight gradient (tn, 32 output rows) and
    // the input gradient (nt); each runs as every product here.
    {387, 32, 16}, {32, 387, 16}, {387, 16, 32},
    {4, 600, 8},  // one wide tile whose depth spans three kBlockK blocks
};

TEST(kernels, matmul_bit_identical_to_naive) {
    util::rng gen(101);
    util::thread_pool pool(4);
    for (const auto& s : kShapes) {
        const matrix a = random_matrix(s.m, s.k, gen);
        const matrix b = random_matrix(s.k, s.n, gen);
        const matrix ref = naive_matmul(a, b);
        EXPECT_TRUE(bits_equal(ref, linalg::matmul(a, b)))
            << s.m << "x" << s.k << "x" << s.n << " serial";
        EXPECT_TRUE(bits_equal(ref, linalg::matmul(a, b, &pool)))
            << s.m << "x" << s.k << "x" << s.n << " pooled";
    }
}

TEST(kernels, matmul_nt_bit_identical_to_naive) {
    util::rng gen(102);
    util::thread_pool pool(4);
    for (const auto& s : kShapes) {
        const matrix a = random_matrix(s.m, s.k, gen);
        const matrix b = random_matrix(s.n, s.k, gen);
        const matrix ref = naive_matmul_nt(a, b);
        EXPECT_TRUE(bits_equal(ref, linalg::matmul_nt(a, b)))
            << s.m << "x" << s.k << "x" << s.n << " serial";
        EXPECT_TRUE(bits_equal(ref, linalg::matmul_nt(a, b, &pool)))
            << s.m << "x" << s.k << "x" << s.n << " pooled";
    }
}

TEST(kernels, matmul_tn_bit_identical_to_naive) {
    util::rng gen(103);
    util::thread_pool pool(4);
    for (const auto& s : kShapes) {
        const matrix a = random_matrix(s.k, s.m, gen);
        const matrix b = random_matrix(s.k, s.n, gen);
        const matrix ref = naive_matmul_tn(a, b);
        EXPECT_TRUE(bits_equal(ref, linalg::matmul_tn(a, b)))
            << s.m << "x" << s.k << "x" << s.n << " serial";
        EXPECT_TRUE(bits_equal(ref, linalg::matmul_tn(a, b, &pool)))
            << s.m << "x" << s.k << "x" << s.n << " pooled";
    }
}

TEST(kernels, blocked_row_ranges_compose) {
    // Computing [0, split) and [split, m) separately must equal the full
    // range — this is what the pool's row partition relies on.
    util::rng gen(104);
    const std::size_t m = 37, k = 53, n = 29;
    const matrix a = random_matrix(m, k, gen);
    const matrix b = random_matrix(k, n, gen);
    matrix full = matrix::uninit(m, n);
    linalg::kernels::matmul_blocked(a.data(), b.data(), full.data(), m, k, n, 0, m);
    for (const std::size_t split : {std::size_t{1}, std::size_t{13}, std::size_t{36}}) {
        matrix parts = matrix::uninit(m, n);
        linalg::kernels::matmul_blocked(a.data(), b.data(), parts.data(), m, k, n, 0, split);
        linalg::kernels::matmul_blocked(a.data(), b.data(), parts.data(), m, k, n, split, m);
        EXPECT_TRUE(bits_equal(full, parts)) << "split " << split;
    }
}

TEST(kernels, scalar_reference_matches_naive) {
    // The bench compares blocked against the scalar kernels; anchor those
    // to the naive loops too so all three definitions agree.
    util::rng gen(105);
    const std::size_t m = 19, k = 23, n = 17;
    const matrix a = random_matrix(m, k, gen);
    const matrix b = random_matrix(k, n, gen);
    matrix c = matrix::uninit(m, n);
    linalg::kernels::matmul_scalar(a.data(), b.data(), c.data(), m, k, n, 0, m);
    EXPECT_TRUE(bits_equal(naive_matmul(a, b), c));

    const matrix bt = random_matrix(n, k, gen);
    linalg::kernels::matmul_nt_scalar(a.data(), bt.data(), c.data(), m, k, n, 0, m);
    EXPECT_TRUE(bits_equal(naive_matmul_nt(a, bt), c));

    const matrix at = random_matrix(k, m, gen);
    const matrix b2 = random_matrix(k, n, gen);
    linalg::kernels::matmul_tn_scalar(at.data(), b2.data(), c.data(), m, k, n, 0, m);
    EXPECT_TRUE(bits_equal(naive_matmul_tn(at, b2), c));
}

// Each register tile on the same inputs, in both A layouts the axpy core
// serves (nn: ras = k, kas = 1; tn: ras = 1, kas = m), against the scalar
// reference. Shapes cover full wide tiles, a 4-column remainder after
// them, ragged rows and columns, and depths across kBlockK blocks.
void expect_tile_matches_scalar(linalg::kernels::detail::tile t) {
    namespace kn = linalg::kernels;
    util::rng gen(111);
    for (const mkn s : {mkn{4, 600, 8}, mkn{8, 300, 16}, mkn{13, 37, 29}, mkn{32, 387, 16},
                        mkn{387, 32, 12}, mkn{5, 2, 20}}) {
        const matrix a = random_matrix(s.m, s.k, gen);
        const matrix at = random_matrix(s.k, s.m, gen);
        const matrix b = random_matrix(s.k, s.n, gen);
        matrix ref = matrix::uninit(s.m, s.n);
        matrix got = matrix::uninit(s.m, s.n);
        kn::matmul_scalar(a.data(), b.data(), ref.data(), s.m, s.k, s.n, 0, s.m);
        kn::detail::gemm_axpy(t, a.data(), s.k, 1, b.data(), got.data(), s.k, s.n, 0, s.m);
        EXPECT_TRUE(bits_equal(ref, got)) << "nn " << s.m << "x" << s.k << "x" << s.n;
        kn::matmul_tn_scalar(at.data(), b.data(), ref.data(), s.m, s.k, s.n, 0, s.m);
        kn::detail::gemm_axpy(t, at.data(), 1, s.m, b.data(), got.data(), s.k, s.n, 0, s.m);
        EXPECT_TRUE(bits_equal(ref, got)) << "tn " << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(kernels, sse2_tile_bit_identical_to_scalar) {
    expect_tile_matches_scalar(linalg::kernels::detail::tile::sse2);
}

TEST(kernels, avx2_tile_bit_identical_to_scalar) {
    if (!linalg::kernels::detail::avx2_available()) GTEST_SKIP() << "CPU has no AVX2";
    expect_tile_matches_scalar(linalg::kernels::detail::tile::avx2);
}

TEST(kernels, into_variants_reuse_capacity) {
    util::rng gen(106);
    const matrix a = random_matrix(12, 9, gen);
    const matrix b = random_matrix(9, 14, gen);
    matrix out = matrix::uninit(40, 40);  // larger than needed
    const double* storage = out.data();
    linalg::matmul_into(out, a, b);
    EXPECT_EQ(out.data(), storage);  // no reallocation
    EXPECT_EQ(out.rows(), 12u);
    EXPECT_EQ(out.cols(), 14u);
    EXPECT_TRUE(bits_equal(naive_matmul(a, b), out));
}

TEST(kernels, vector_primitives) {
    const std::vector<double> x{1.0, -2.0, 3.0};
    std::vector<double> y{0.5, 0.25, -1.0};
    linalg::kernels::axpy(3, 2.0, x.data(), y.data());
    EXPECT_DOUBLE_EQ(y[0], 2.5);
    EXPECT_DOUBLE_EQ(y[1], -3.75);
    EXPECT_DOUBLE_EQ(y[2], 5.0);
    EXPECT_DOUBLE_EQ(linalg::kernels::dot(3, x.data(), x.data()), 14.0);
    linalg::kernels::scale(3, -1.0, y.data());
    EXPECT_DOUBLE_EQ(y[2], -5.0);
}

// ---------- aligned + uninit storage ----------

TEST(matrix_storage, is_cache_line_aligned) {
    for (std::size_t n : {1u, 3u, 17u, 64u}) {
        const matrix m(n, n, 0.0);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % linalg::kernels::kAlignment, 0u);
    }
}

TEST(matrix_storage, uninit_has_shape_and_writable_cells) {
    matrix m = matrix::uninit(5, 7);
    EXPECT_EQ(m.rows(), 5u);
    EXPECT_EQ(m.cols(), 7u);
    for (double& x : m.flat()) x = 1.0;  // fully define before reading
    EXPECT_DOUBLE_EQ(m(4, 6), 1.0);
    matrix e = matrix::uninit(0, 9);
    EXPECT_TRUE(e.empty());
}

TEST(matrix_storage, fill_constructor_still_initialises) {
    const matrix m(3, 4, 2.5);
    for (const double x : m.flat()) EXPECT_DOUBLE_EQ(x, 2.5);
    const matrix z(3, 4);
    for (const double x : z.flat()) EXPECT_DOUBLE_EQ(x, 0.0);
}

// ---------- workspace ----------

TEST(workspace, recycles_storage) {
    linalg::workspace ws;
    matrix a = ws.take(8, 8);
    for (double& x : a.flat()) x = 3.0;
    const double* storage = a.data();
    ws.recycle(std::move(a));
    EXPECT_EQ(ws.pooled(), 1u);
    matrix b = ws.take(4, 16);  // same element count, new shape
    EXPECT_EQ(b.data(), storage);
    EXPECT_EQ(ws.pooled(), 0u);
}

TEST(workspace, take_zero_clears_dirty_buffer) {
    linalg::workspace ws;
    matrix a = ws.take(6, 6);
    for (double& x : a.flat()) x = 42.0;
    ws.recycle(std::move(a));
    const matrix z = ws.take_zero(6, 6);
    for (const double x : z.flat()) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(workspace, best_fit_prefers_smallest_sufficient) {
    linalg::workspace ws;
    matrix small = ws.take(2, 2);
    matrix big = ws.take(32, 32);
    const double* small_storage = small.data();
    const double* big_storage = big.data();
    ws.recycle(std::move(big));
    ws.recycle(std::move(small));
    const matrix got = ws.take(2, 2);
    EXPECT_EQ(got.data(), small_storage);  // not the 32×32 buffer
    const matrix got_big = ws.take(20, 20);
    EXPECT_EQ(got_big.data(), big_storage);
}

TEST(workspace, oversize_request_replaces_largest_without_copy) {
    linalg::workspace ws;
    matrix small = ws.take(2, 2);
    ws.recycle(std::move(small));
    ASSERT_EQ(ws.pooled(), 1u);
    matrix big = ws.take(50, 50);  // nothing fits: fresh alloc, pool entry dropped
    EXPECT_EQ(ws.pooled(), 0u);
    EXPECT_EQ(big.rows(), 50u);
    EXPECT_EQ(big.cols(), 50u);
}

TEST(matrix_storage, moved_from_matrix_is_clean_empty) {
    matrix a(3, 4, 1.0);
    matrix b = std::move(a);
    EXPECT_EQ(a.rows(), 0u);
    EXPECT_EQ(a.cols(), 0u);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(b.rows(), 3u);
    matrix c;
    c = std::move(b);
    EXPECT_EQ(b.rows(), 0u);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(c.cols(), 4u);
}

TEST(workspace, take_copy_matches_source) {
    linalg::workspace ws;
    util::rng gen(107);
    const matrix src = random_matrix(9, 5, gen);
    const matrix cp = ws.take_copy(src);
    EXPECT_TRUE(bits_equal(src, cp));
}

// ---------- parallel policy ----------

TEST(parallel_policy, thresholds) {
    using linalg::parallel_policy;
    constexpr std::size_t tile = linalg::kernels::kKernelRows;
    util::thread_pool pool(2);
    EXPECT_EQ(parallel_policy::effective(&pool, parallel_policy::min_parallel_flops - 1),
              nullptr);
    EXPECT_EQ(parallel_policy::effective(&pool, parallel_policy::min_parallel_flops), &pool);
    // The grain carries at least min_chunk_flops, in whole register tiles,
    // and is no bigger than that needs.
    for (const std::size_t per_row : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                      std::size_t{512}, std::size_t{5000},
                                      std::size_t{1} << 20}) {
        const std::size_t g = parallel_policy::row_grain(per_row);
        EXPECT_GE(g, tile) << per_row;
        EXPECT_EQ(g % tile, 0u) << per_row;
        EXPECT_GE(g * std::max<std::size_t>(per_row, 1), parallel_policy::min_chunk_flops)
            << per_row;
        if (g > tile) {
            EXPECT_LT((g - tile) * per_row, parallel_policy::min_chunk_flops) << per_row;
        }
    }
    // A product at the dispatch threshold splits into several chunks.
    EXPECT_EQ(parallel_policy::row_grain(512) * 512 * 4, parallel_policy::min_parallel_flops);
}

// ---------- work split ----------

using chunk_list = std::vector<std::pair<std::size_t, std::size_t>>;

chunk_list record_chunks(util::thread_pool* pool, std::size_t begin, std::size_t end,
                         std::size_t grain) {
    chunk_list chunks;
    std::mutex m;
    util::parallel_for(pool, begin, end, grain, [&](std::size_t b, std::size_t e) {
        const std::lock_guard<std::mutex> lock(m);
        chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
}

TEST(work_split, serial_parallel_for_calls_the_chunk_once) {
    EXPECT_EQ(record_chunks(nullptr, 3, 1000, 4), (chunk_list{{3, 1000}}));
    util::thread_pool no_workers(1);
    EXPECT_EQ(record_chunks(&no_workers, 0, 1000, 1), (chunk_list{{0, 1000}}));
    EXPECT_TRUE(record_chunks(nullptr, 5, 5, 1).empty());
}

TEST(work_split, pooled_chunks_are_whole_tiles_and_independent_of_pool_size) {
    using linalg::parallel_policy;
    constexpr std::size_t tile = linalg::kernels::kKernelRows;
    util::thread_pool two(2);
    util::thread_pool four(4);
    // Per-row costs of the tape's products (k·n) and a 1027-row range.
    for (const std::size_t per_row : {std::size_t{512}, std::size_t{16 * 32}, std::size_t{97}}) {
        const std::size_t g = parallel_policy::row_grain(per_row);
        const chunk_list at2 = record_chunks(&two, 0, 1027, g);
        EXPECT_EQ(at2, record_chunks(&four, 0, 1027, g)) << per_row;
        ASSERT_GT(at2.size(), 1u) << per_row;
        std::size_t next = 0;
        for (const auto& [b, e] : at2) {
            EXPECT_EQ(b, next);
            EXPECT_EQ(b % tile, 0u);
            if (e != 1027) {
                EXPECT_EQ(e % tile, 0u);
            }
            next = e;
        }
        EXPECT_EQ(next, 1027u);
    }
}

// ---------- tape reuse ----------

// One small forward+backward; returns (loss value, grad of w).
std::pair<matrix, matrix> run_step(autodiff::tape& t, const matrix& x, const matrix& w) {
    const autodiff::var xv = t.constant(x);
    const autodiff::var wv = t.parameter(w);
    const autodiff::var h = t.tanh_act(t.matmul(xv, wv));
    const autodiff::var loss = t.mean_all(t.hadamard(h, h));
    t.backward(loss);
    return {t.value(loss), t.grad(wv)};
}

TEST(tape_reuse, reset_reuses_storage_and_keeps_bits) {
    util::rng gen(108);
    const matrix x = random_matrix(20, 6, gen);
    const matrix w = random_matrix(6, 4, gen);

    autodiff::tape fresh;
    const auto [loss_a, grad_a] = run_step(fresh, x, w);

    autodiff::tape reused;
    (void)run_step(reused, x, w);
    reused.reset();
    const auto [loss_b, grad_b] = run_step(reused, x, w);

    EXPECT_TRUE(bits_equal(loss_a, loss_b));
    EXPECT_TRUE(bits_equal(grad_a, grad_b));
}

TEST(tape_reuse, many_resets_stay_stable) {
    util::rng gen(109);
    const matrix x = random_matrix(8, 3, gen);
    const matrix w = random_matrix(3, 5, gen);
    autodiff::tape t;
    const auto [loss0, grad0] = run_step(t, x, w);
    for (int i = 0; i < 10; ++i) {
        t.reset();
        const auto [loss, grad] = run_step(t, x, w);
        EXPECT_TRUE(bits_equal(loss0, loss)) << "iteration " << i;
        EXPECT_TRUE(bits_equal(grad0, grad)) << "iteration " << i;
    }
}

// ---------- UPGMA pooled bit-identity (distance init + merge updates) ----------

TEST(upgma, pooled_linkage_bit_identical_to_serial) {
    util::rng gen(110);
    const matrix pts = random_matrix(400, 8, gen);
    const auto serial = cluster::upgma_linkage(pts, nullptr);
    util::thread_pool pool(4);
    const auto pooled = cluster::upgma_linkage(pts, &pool);
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].a, pooled[i].a) << i;
        EXPECT_EQ(serial[i].b, pooled[i].b) << i;
        EXPECT_EQ(serial[i].height, pooled[i].height) << i;
    }
}

}  // namespace
