#pragma once

/// \file parallel_policy.hpp
/// The single place where the numeric kernels decide *whether* and *how
/// finely* to use a thread pool. Before this header existed the
/// thresholds were duplicated per kernel (a `kMinParallelFlops` inside
/// matrix.cpp, a `row_grain` inside thread_pool.hpp); tuning one of them
/// meant hunting through every hot path. Everything below is a pure
/// function of the problem size, never of the pool size, so the
/// decomposition — and therefore the bits — stay identical at every
/// thread count (see thread_pool.hpp for the determinism contract).

#include <cstddef>

#include "linalg/kernels.hpp"

namespace fisone::util {
class thread_pool;
}

namespace fisone::linalg {

struct parallel_policy {
    /// Minimum flop count before a kernel dispatches onto the pool at
    /// all. Pool hand-off (queue lock, condition-variable wake, future
    /// join) costs on the order of ten microseconds — tens of thousands
    /// of scalar flops. The tape's small matmuls (e.g. a 512×64 · 64×32
    /// dense layer ≈ 2·10⁶ flops) should still parallelise, but the tiny
    /// per-row products of inductive inference (1×2d · 2d×d ≈ 4·10³
    /// flops) must not pay dispatch for less math than the dispatch
    /// itself. 2¹⁸ ≈ 2.6·10⁵ flops ≈ the break-even point with a healthy
    /// margin; the old 2¹⁵ threshold made sub-dispatch-cost products
    /// eligible.
    static constexpr std::size_t min_parallel_flops = std::size_t{1} << 18;

    /// Minimum work per pooled `parallel_for` chunk. Claiming a chunk is
    /// one atomic increment, but every chunk re-streams its kernel's
    /// shared operand (the B panel of a product), so a chunk must carry
    /// enough rows to amortise that. 2¹⁶ flops keeps a product at the
    /// `min_parallel_flops` threshold at four chunks, and a large one at
    /// many chunks for load balance.
    static constexpr std::size_t min_chunk_flops = std::size_t{1} << 16;

    /// Rows per pooled `parallel_for` chunk for a row-partitioned kernel
    /// whose rows each cost about \p flops_per_row: enough rows to reach
    /// `min_chunk_flops`, rounded up to a whole register tile
    /// (`kernels::kKernelRows`) so no chunk boundary splits a tile and
    /// forces the product's edge path. Any grain is bit-exact (rows are
    /// independent); a serial `parallel_for` ignores the grain and runs
    /// the whole range as one chunk.
    [[nodiscard]] static constexpr std::size_t row_grain(std::size_t flops_per_row) noexcept {
        const std::size_t per_row = flops_per_row == 0 ? 1 : flops_per_row;
        const std::size_t rows = (min_chunk_flops + per_row - 1) / per_row;
        constexpr std::size_t tile = kernels::kKernelRows;
        return (rows + tile - 1) / tile * tile;
    }

    /// Elements per chunk for flat O(n) sweeps (e.g. the UPGMA
    /// Lance–Williams row update). A chunk below this span moves less
    /// memory than the dispatch costs, so sweeps of at most `min_span`
    /// items are one chunk — and a one-chunk parallel_for runs inline on
    /// the caller, paying no pool overhead at all.
    static constexpr std::size_t min_span = std::size_t{8} << 10;

    /// Gate a kernel's pool on the flop budget: below the threshold the
    /// serial path wins, so the kernel gets a null pool and runs inline.
    [[nodiscard]] static util::thread_pool* effective(util::thread_pool* pool,
                                                     std::size_t flops) noexcept {
        return flops >= min_parallel_flops ? pool : nullptr;
    }
};

}  // namespace fisone::linalg
