#pragma once

/// \file matrix.hpp
/// Dense row-major matrix of doubles — the numeric workhorse shared by the
/// autodiff engine, the classical-MDS baseline and the evaluation code.
/// Deliberately small: only the operations the library needs, all bounds-
/// checked at API boundaries. Storage is 64-byte aligned (one cache line)
/// and the dense products route through the cache-blocked kernel layer in
/// kernels.hpp, whose results are bit-identical to the scalar reference
/// kernels at any thread count.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/kernels.hpp"

namespace fisone::util {
class thread_pool;
}

namespace fisone::linalg {

class workspace;

/// Dense row-major matrix. Value-semantic; copies are deep.
class matrix {
public:
    using storage = std::vector<double, kernels::aligned_allocator<double>>;

    matrix() = default;
    matrix(const matrix&) = default;
    matrix& operator=(const matrix&) = default;

    /// Moves leave the source as a clean 0×0 matrix, so a moved-from
    /// matrix never reports stale dimensions over empty storage (the
    /// workspace recycles matrices by move and tape::grad exposes them).
    matrix(matrix&& other) noexcept
        : rows_(std::exchange(other.rows_, 0)),
          cols_(std::exchange(other.cols_, 0)),
          data_(std::move(other.data_)) {
        other.data_.clear();
    }
    matrix& operator=(matrix&& other) noexcept {
        rows_ = std::exchange(other.rows_, 0);
        cols_ = std::exchange(other.cols_, 0);
        data_ = std::move(other.data_);
        other.data_.clear();
        return *this;
    }

    /// Construct a \p rows × \p cols matrix filled with \p fill.
    matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    /// Construct a \p rows × \p cols matrix with **uninitialised** cells —
    /// the allocation path for outputs that are fully overwritten before
    /// any read (matmul results, gathers, workspace scratch). Never read
    /// an element before writing it.
    [[nodiscard]] static matrix uninit(std::size_t rows, std::size_t cols) {
        matrix m;
        m.rows_ = rows;
        m.cols_ = cols;
        m.data_.resize(rows * cols);  // default-init: aligned_allocator leaves cells untouched
        return m;
    }

    /// Construct from nested braces: `matrix{{1,2},{3,4}}`.
    /// \throws std::invalid_argument on ragged rows.
    matrix(std::initializer_list<std::initializer_list<double>> init) {
        rows_ = init.size();
        cols_ = rows_ == 0 ? 0 : init.begin()->size();
        data_.reserve(rows_ * cols_);
        for (const auto& r : init) {
            if (r.size() != cols_) throw std::invalid_argument("matrix: ragged initializer");
            data_.insert(data_.end(), r.begin(), r.end());
        }
    }

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
    [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

    /// Allocated capacity in elements (used by the workspace recycler).
    [[nodiscard]] std::size_t capacity() const noexcept { return data_.capacity(); }

    /// Unchecked element access (hot paths).
    [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
        return data_[r * cols_ + c];
    }
    [[nodiscard]] const double& operator()(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }

    /// Checked element access.
    [[nodiscard]] double& at(std::size_t r, std::size_t c) {
        check_index(r, c);
        return data_[r * cols_ + c];
    }
    [[nodiscard]] const double& at(std::size_t r, std::size_t c) const {
        check_index(r, c);
        return data_[r * cols_ + c];
    }

    /// Non-owning view of row \p r.
    [[nodiscard]] std::span<double> row(std::size_t r) {
        if (r >= rows_) throw std::out_of_range("matrix::row");
        return {data_.data() + r * cols_, cols_};
    }
    [[nodiscard]] std::span<const double> row(std::size_t r) const {
        if (r >= rows_) throw std::out_of_range("matrix::row");
        return {data_.data() + r * cols_, cols_};
    }

    /// Flat storage (row-major).
    [[nodiscard]] std::span<double> flat() noexcept { return data_; }
    [[nodiscard]] std::span<const double> flat() const noexcept { return data_; }
    [[nodiscard]] double* data() noexcept { return data_.data(); }
    [[nodiscard]] const double* data() const noexcept { return data_.data(); }

    /// Fill every element with \p value.
    void fill(double value) noexcept { data_.assign(data_.size(), value); }

    /// Reshape in place; total size must be preserved.
    void reshape(std::size_t rows, std::size_t cols) {
        if (rows * cols != data_.size()) throw std::invalid_argument("matrix::reshape: size change");
        rows_ = rows;
        cols_ = cols;
    }

    /// Re-shape to \p rows × \p cols, reusing the allocation when it is
    /// large enough; any newly exposed cells are **uninitialised**. This
    /// is how the workspace turns a recycled buffer into fresh scratch
    /// without paying a zero-fill.
    void resize_uninit(std::size_t rows, std::size_t cols) {
        rows_ = rows;
        cols_ = cols;
        data_.resize(rows * cols);  // default-init via aligned_allocator
    }

    // --- elementwise arithmetic (shape-checked) ---
    matrix& operator+=(const matrix& other);
    matrix& operator-=(const matrix& other);
    matrix& operator*=(double scalar) noexcept;
    [[nodiscard]] friend matrix operator+(matrix lhs, const matrix& rhs) { return lhs += rhs; }
    [[nodiscard]] friend matrix operator-(matrix lhs, const matrix& rhs) { return lhs -= rhs; }
    [[nodiscard]] friend matrix operator*(matrix lhs, double s) noexcept { return lhs *= s; }
    [[nodiscard]] friend matrix operator*(double s, matrix rhs) noexcept { return rhs *= s; }

    /// Exact elementwise equality (used by tests).
    [[nodiscard]] friend bool operator==(const matrix& a, const matrix& b) noexcept {
        return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
    }

private:
    void check_index(std::size_t r, std::size_t c) const {
        if (r >= rows_ || c >= cols_) throw std::out_of_range("matrix::at");
    }

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    storage data_;
};

/// Matrix product A·B. \throws std::invalid_argument on inner-dim mismatch.
/// All three products optionally split work over \p pool by *output rows*;
/// each output element keeps its serial accumulation order, so pooled
/// results are bit-identical to the single-threaded ones (kernels.hpp).
[[nodiscard]] matrix matmul(const matrix& a, const matrix& b, util::thread_pool* pool = nullptr);

/// A·Bᵀ without materialising the transpose.
[[nodiscard]] matrix matmul_nt(const matrix& a, const matrix& b,
                               util::thread_pool* pool = nullptr);

/// Aᵀ·B without materialising the transpose.
[[nodiscard]] matrix matmul_tn(const matrix& a, const matrix& b,
                               util::thread_pool* pool = nullptr);

/// Destination-passing forms of the three products: \p out is reshaped
/// (allocation-free when its capacity suffices — the workspace path) and
/// fully overwritten. \p out must not alias \p a or \p b.
void matmul_into(matrix& out, const matrix& a, const matrix& b, util::thread_pool* pool = nullptr);
/// `matmul_nt_into` packs Bᵀ into a scratch matrix taken from \p ws (a
/// fresh allocation when null) and runs the `matmul` kernel over it.
void matmul_nt_into(matrix& out, const matrix& a, const matrix& b,
                    util::thread_pool* pool = nullptr, workspace* ws = nullptr);
void matmul_tn_into(matrix& out, const matrix& a, const matrix& b,
                    util::thread_pool* pool = nullptr);

/// Destination-passing Hadamard product, same contract as the products
/// above. \throws std::invalid_argument on shape mismatch.
void hadamard_into(matrix& out, const matrix& a, const matrix& b);

/// Transpose.
[[nodiscard]] matrix transpose(const matrix& a);

/// Identity matrix of order n.
[[nodiscard]] matrix identity(std::size_t n);

/// Elementwise (Hadamard) product. \throws std::invalid_argument on shape mismatch.
[[nodiscard]] matrix hadamard(const matrix& a, const matrix& b);

/// Euclidean distance between two equal-length vectors.
[[nodiscard]] double euclidean_distance(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean distance between two equal-length vectors.
[[nodiscard]] double squared_distance(std::span<const double> a, std::span<const double> b);

/// Dot product of two equal-length vectors.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// L2 norm of a vector.
[[nodiscard]] double norm2(std::span<const double> a);

/// Cosine similarity; returns 0 when either vector is all-zero.
[[nodiscard]] double cosine_similarity(std::span<const double> a, std::span<const double> b);

}  // namespace fisone::linalg
