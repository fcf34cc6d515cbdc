#include "matrix.hpp"

#include <cmath>

#include "linalg/parallel_policy.hpp"
#include "linalg/workspace.hpp"
#include "util/thread_pool.hpp"

namespace fisone::linalg {

namespace {
void check_same_shape(const matrix& a, const matrix& b, const char* what) {
    if (a.rows() != b.rows() || a.cols() != b.cols())
        throw std::invalid_argument(std::string(what) + ": shape mismatch");
}
void check_same_length(std::span<const double> a, std::span<const double> b, const char* what) {
    if (a.size() != b.size()) throw std::invalid_argument(std::string(what) + ": length mismatch");
}
}  // namespace

matrix& matrix::operator+=(const matrix& other) {
    check_same_shape(*this, other, "matrix::operator+=");
    kernels::axpy(data_.size(), 1.0, other.data_.data(), data_.data());
    return *this;
}

matrix& matrix::operator-=(const matrix& other) {
    check_same_shape(*this, other, "matrix::operator-=");
    kernels::axpy(data_.size(), -1.0, other.data_.data(), data_.data());
    return *this;
}

matrix& matrix::operator*=(double scalar) noexcept {
    kernels::scale(data_.size(), scalar, data_.data());
    return *this;
}

void matmul_into(matrix& out, const matrix& a, const matrix& b, util::thread_pool* pool) {
    if (a.cols() != b.rows()) throw std::invalid_argument("matmul: inner dimension mismatch");
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    out.resize_uninit(m, n);
    pool = parallel_policy::effective(pool, m * k * n);
    const auto rows = [&](std::size_t r0, std::size_t r1) {
        kernels::matmul_blocked(a.data(), b.data(), out.data(), m, k, n, r0, r1);
    };
    // One captured reference keeps the std::function allocation-free.
    util::parallel_for(pool, 0, m, parallel_policy::row_grain(k * n),
                       [&rows](std::size_t r0, std::size_t r1) { rows(r0, r1); });
}

void matmul_nt_into(matrix& out, const matrix& a, const matrix& b, util::thread_pool* pool,
                    workspace* ws) {
    if (a.cols() != b.cols()) throw std::invalid_argument("matmul_nt: dimension mismatch");
    const std::size_t k = a.cols(), n = b.rows();
    // Cell (i, j) of A·Bᵀ sums a(i,kk)·b(j,kk) in ascending kk from zero —
    // the sequence matmul(A, Bᵀ) performs — so pack Bᵀ once, before the
    // row split, and run the plain product's axpy core over it.
    matrix bt = ws != nullptr ? ws->take(k, n) : matrix::uninit(k, n);
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t kk = 0; kk < k; ++kk) bt(kk, j) = b(j, kk);
    matmul_into(out, a, bt, pool);
    if (ws != nullptr) ws->recycle(std::move(bt));
}

void matmul_tn_into(matrix& out, const matrix& a, const matrix& b, util::thread_pool* pool) {
    if (a.rows() != b.rows()) throw std::invalid_argument("matmul_tn: dimension mismatch");
    const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
    out.resize_uninit(m, n);
    pool = parallel_policy::effective(pool, m * k * n);
    const auto rows = [&](std::size_t r0, std::size_t r1) {
        kernels::matmul_tn_blocked(a.data(), b.data(), out.data(), m, k, n, r0, r1);
    };
    // One captured reference keeps the std::function allocation-free.
    util::parallel_for(pool, 0, m, parallel_policy::row_grain(k * n),
                       [&rows](std::size_t r0, std::size_t r1) { rows(r0, r1); });
}

matrix matmul(const matrix& a, const matrix& b, util::thread_pool* pool) {
    matrix out;
    matmul_into(out, a, b, pool);
    return out;
}

matrix matmul_nt(const matrix& a, const matrix& b, util::thread_pool* pool) {
    matrix out;
    matmul_nt_into(out, a, b, pool);
    return out;
}

matrix matmul_tn(const matrix& a, const matrix& b, util::thread_pool* pool) {
    matrix out;
    matmul_tn_into(out, a, b, pool);
    return out;
}

matrix transpose(const matrix& a) {
    matrix out = matrix::uninit(a.cols(), a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) out(j, i) = a(i, j);
    return out;
}

matrix identity(std::size_t n) {
    matrix out(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
    return out;
}

void hadamard_into(matrix& out, const matrix& a, const matrix& b) {
    check_same_shape(a, b, "hadamard");
    out.resize_uninit(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.size(); ++i) out.flat()[i] = a.flat()[i] * b.flat()[i];
}

matrix hadamard(const matrix& a, const matrix& b) {
    matrix out;
    hadamard_into(out, a, b);
    return out;
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
    check_same_length(a, b, "squared_distance");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        acc += d * d;
    }
    return acc;
}

double euclidean_distance(std::span<const double> a, std::span<const double> b) {
    return std::sqrt(squared_distance(a, b));
}

double dot(std::span<const double> a, std::span<const double> b) {
    check_same_length(a, b, "dot");
    return kernels::dot(a.size(), a.data(), b.data());
}

double norm2(std::span<const double> a) {
    double acc = 0.0;
    for (const double x : a) acc += x * x;
    return std::sqrt(acc);
}

double cosine_similarity(std::span<const double> a, std::span<const double> b) {
    check_same_length(a, b, "cosine_similarity");
    const double na = norm2(a);
    const double nb = norm2(b);
    if (na == 0.0 || nb == 0.0) return 0.0;
    return dot(a, b) / (na * nb);
}

}  // namespace fisone::linalg
