/// \file bench_kernels.cpp
/// Kernel-layer throughput harness with a machine-readable perf
/// trajectory. For every shape it times the scalar reference kernels
/// against the cache-blocked ones (GFLOP/s + speedup, serial and pooled)
/// and verifies the bit-identity contract (`memcmp`, not epsilon). Any
/// bitwise divergence makes the process exit non-zero — CI runs this in
/// quick mode, so a kernel that silently changes bits fails the build.
///
/// Run:  ./bench_kernels [--quick] [--json] [--out BENCH_kernels.json]
///                       [--seed S] [--reps R]
///
///  --quick   CI-sized shapes (a few seconds total)
///  --json    write the JSON report to --out (and echo the path)
///
/// The JSON schema is documented in README.md § Performance.

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/parallel_policy.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fisone;
using linalg::matrix;

using kernel_fn = void (*)(const double*, const double*, double*, std::size_t, std::size_t,
                           std::size_t, std::size_t, std::size_t) noexcept;
using wrapper_fn = matrix (*)(const matrix&, const matrix&, util::thread_pool*);

struct op_spec {
    const char* name;
    kernel_fn scalar;
    kernel_fn blocked;
    wrapper_fn wrapper;  // the public pooled entry point
};

/// The blocked A·Bᵀ path as `linalg::matmul_nt_into` runs it: pack Bᵀ,
/// then the plain product's kernel over the packed copy.
void matmul_nt_packed(const double* a, const double* b, double* c, std::size_t m,
                      std::size_t k, std::size_t n, std::size_t r0, std::size_t r1) noexcept {
    std::vector<double> bt(k * n);
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t kk = 0; kk < k; ++kk) bt[kk * n + j] = b[j * k + kk];
    linalg::kernels::matmul_blocked(a, bt.data(), c, m, k, n, r0, r1);
}

constexpr op_spec kOps[] = {
    {"matmul", linalg::kernels::matmul_scalar, linalg::kernels::matmul_blocked, linalg::matmul},
    {"matmul_nt", linalg::kernels::matmul_nt_scalar, matmul_nt_packed, linalg::matmul_nt},
    {"matmul_tn", linalg::kernels::matmul_tn_scalar, linalg::kernels::matmul_tn_blocked,
     linalg::matmul_tn},
};

struct shape {
    std::size_t m, k, n;
};

struct kernel_record {
    std::string op;
    shape s{};
    double flops = 0.0;
    double scalar_gflops = 0.0;
    double blocked_gflops = 0.0;
    double speedup = 0.0;
    std::size_t pool_threads = 1;
    double pooled_gflops = 0.0;
    double pooled_speedup = 0.0;
    bool bit_identical = false;
};

matrix random_matrix(std::size_t r, std::size_t c, util::rng& gen) {
    matrix m = matrix::uninit(r, c);
    for (double& x : m.flat()) x = gen.uniform(-1.0, 1.0);
    return m;
}

/// Best-of-\p reps wall seconds of \p fn (one untimed warm-up call).
template <class F>
double time_best(F&& fn, int reps) {
    fn();
    double best = std::numeric_limits<double>::max();
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

bool bits_equal(const matrix& a, const matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

kernel_record bench_one(const op_spec& op, const shape& s, util::thread_pool& pool, int reps,
                        util::rng& gen) {
    // Operand shapes per op: matmul A(m×k)·B(k×n); nt A(m×k)·B(n×k)ᵀ;
    // tn A(k×m)ᵀ·B(k×n). Output is always m×n.
    const bool tn = std::strcmp(op.name, "matmul_tn") == 0;
    const bool nt = std::strcmp(op.name, "matmul_nt") == 0;
    const matrix a = tn ? random_matrix(s.k, s.m, gen) : random_matrix(s.m, s.k, gen);
    const matrix b = nt ? random_matrix(s.n, s.k, gen) : random_matrix(s.k, s.n, gen);

    matrix c_scalar = matrix::uninit(s.m, s.n);
    matrix c_blocked = matrix::uninit(s.m, s.n);

    kernel_record rec;
    rec.op = op.name;
    rec.s = s;
    rec.flops = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
                static_cast<double>(s.n);

    const double t_scalar = time_best(
        [&] { op.scalar(a.data(), b.data(), c_scalar.data(), s.m, s.k, s.n, 0, s.m); }, reps);
    const double t_blocked = time_best(
        [&] { op.blocked(a.data(), b.data(), c_blocked.data(), s.m, s.k, s.n, 0, s.m); }, reps);

    rec.scalar_gflops = rec.flops / t_scalar / 1e9;
    rec.blocked_gflops = rec.flops / t_blocked / 1e9;
    rec.speedup = t_scalar / t_blocked;
    rec.bit_identical = bits_equal(c_scalar, c_blocked);

    // The production entry point: policy-gated pool dispatch over rows.
    rec.pool_threads = pool.size();
    matrix c_pooled;
    const double t_pooled = time_best([&] { c_pooled = op.wrapper(a, b, &pool); }, reps);
    rec.pooled_gflops = rec.flops / t_pooled / 1e9;
    rec.pooled_speedup = t_scalar / t_pooled;
    rec.bit_identical = rec.bit_identical && bits_equal(c_scalar, c_pooled);
    return rec;
}

// --- JSON emission ----------------------------------------------------------

void write_json(std::ostream& out, bool quick, const std::vector<kernel_record>& kernels) {
    out << "{\n";
    out << "  \"schema\": \"fisone-bench-kernels/v1\",\n";
    out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    out << "  \"hardware_threads\": " << util::resolve_num_threads(0) << ",\n";
    out << "  \"kernels\": [\n";
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const kernel_record& r = kernels[i];
        out << "    {\"op\": \"" << r.op << "\", \"m\": " << r.s.m << ", \"k\": " << r.s.k
            << ", \"n\": " << r.s.n << ", \"flops\": " << bench::json_num(r.flops)
            << ", \"scalar_gflops\": " << bench::json_num(r.scalar_gflops)
            << ", \"blocked_gflops\": " << bench::json_num(r.blocked_gflops)
            << ", \"speedup\": " << bench::json_num(r.speedup)
            << ", \"pool_threads\": " << r.pool_threads
            << ", \"pooled_gflops\": " << bench::json_num(r.pooled_gflops)
            << ", \"pooled_speedup\": " << bench::json_num(r.pooled_speedup)
            << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false") << "}"
            << (i + 1 < kernels.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
}

}  // namespace

int main(int argc, char** argv) try {
    const util::cli_args args(argc, argv);
    const bool quick = args.has("quick");
    const bool emit_json = args.has("json");
    const std::string out_path = args.get("out", "BENCH_kernels.json");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1234));
    const int reps = static_cast<int>(args.get_int("reps", quick ? 3 : 5));

    // {32, 512, 16} is the tape's weight-gradient shape for matmul_tn:
    // 2d = 32 output rows, a 512-node batch deep, d = 16 wide.
    std::vector<shape> shapes{{64, 64, 64}, {256, 256, 256}, {203, 97, 151}, {32, 512, 16}};
    if (!quick) {
        shapes.push_back({128, 128, 128});
        shapes.push_back({384, 384, 384});
        shapes.push_back({512, 64, 32});   // tape dense-layer shape
        shapes.push_back({1024, 32, 64});  // propagation shape
    }

    util::rng gen(seed);
    util::thread_pool pool(std::max<std::size_t>(2, util::resolve_num_threads(0)));

    std::vector<kernel_record> records;
    bool all_identical = true;
    for (const shape& s : shapes)
        for (const op_spec& op : kOps) {
            const kernel_record rec = bench_one(op, s, pool, reps, gen);
            all_identical = all_identical && rec.bit_identical;
            records.push_back(rec);
            std::cerr << rec.op << " " << s.m << "x" << s.k << "x" << s.n << " done\n";
        }

    util::table_printer table("Kernel throughput — scalar vs cache-blocked (best of " +
                              std::to_string(reps) + ")");
    table.header({"op", "shape", "scalar GF/s", "blocked GF/s", "speedup", "pooled GF/s",
                  "bit-identical"});
    for (const kernel_record& r : records)
        table.row({r.op,
                   std::to_string(r.s.m) + "x" + std::to_string(r.s.k) + "x" +
                       std::to_string(r.s.n),
                   util::table_printer::num(r.scalar_gflops, 2),
                   util::table_printer::num(r.blocked_gflops, 2),
                   util::table_printer::num(r.speedup, 2),
                   util::table_printer::num(r.pooled_gflops, 2),
                   r.bit_identical ? "yes" : "NO"});
    table.print(std::cout);

    if (emit_json) {
        std::ofstream f(out_path);
        if (!f) {
            std::cerr << "bench_kernels: cannot open " << out_path << " for writing\n";
            return EXIT_FAILURE;
        }
        write_json(f, quick, records);
        std::cout << "JSON perf trajectory: " << out_path << "\n";
    }

    if (!all_identical) {
        std::cerr << "bench_kernels: blocked kernels diverged bitwise from the scalar "
                     "reference\n";
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
} catch (const std::exception& e) {
    std::cerr << "bench_kernels: " << e.what() << '\n';
    return EXIT_FAILURE;
}
