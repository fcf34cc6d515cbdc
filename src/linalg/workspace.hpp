#pragma once

/// \file workspace.hpp
/// Scratch-buffer arena for matrix temporaries. The autodiff tape recycles
/// every node's value and gradient through one, so a steady-state
/// forward+backward pass of a baseline allocates no matrix data; RF-GNN's
/// full-graph propagation takes its scratch from one, and its training
/// step packs `matmul_nt_into`'s Bᵀ in one (the step's own per-layer
/// buffers are plain reused matrices).
///
/// Usage pattern:
///   matrix t = ws.take(r, c);      // uninitialised scratch — write first!
///   ...                            // t behaves like any matrix
///   ws.recycle(std::move(t));      // storage returns to the arena
///
/// `take` hands back the pooled buffer whose capacity fits best (smallest
/// capacity ≥ the request, else the largest available, which then grows
/// once and stays). Matrices that escape (e.g. into a layer cache) simply
/// keep their storage — recycling is optional, never required.
///
/// Not thread-safe: one workspace per tape / per model, like the tape
/// itself.

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace fisone::linalg {

class workspace {
public:
    workspace() = default;
    workspace(const workspace&) = delete;
    workspace& operator=(const workspace&) = delete;
    workspace(workspace&&) = default;
    workspace& operator=(workspace&&) = default;

    /// Scratch matrix of \p rows × \p cols with **uninitialised** cells.
    [[nodiscard]] matrix take(std::size_t rows, std::size_t cols);

    /// Scratch matrix of \p rows × \p cols with every cell set to 0.0.
    [[nodiscard]] matrix take_zero(std::size_t rows, std::size_t cols);

    /// Scratch copy of \p src (shape and bits).
    [[nodiscard]] matrix take_copy(const matrix& src);

    /// Return a matrix's storage to the arena. Empty matrices are
    /// dropped, and if growing the arena itself fails the buffer is
    /// simply freed — recycling is an optimisation, so this never throws.
    void recycle(matrix&& m) noexcept;

    /// Drop every pooled buffer (frees the memory).
    void clear() noexcept { pool_.clear(); }

    /// Number of buffers currently pooled (observability + tests).
    [[nodiscard]] std::size_t pooled() const noexcept { return pool_.size(); }

private:
    std::vector<matrix> pool_;
};

}  // namespace fisone::linalg
