#pragma once

/// \file tape.hpp
/// Reverse-mode automatic differentiation over dense matrices.
///
/// The SDCN/DAEGC baselines build a fresh computation graph per training
/// step, so the engine is a classic tape: every operation appends a node
/// holding its value and a backprop closure; `backward()` runs the
/// closures in reverse topological (= insertion) order. Gradients are only
/// materialised for nodes that (transitively) depend on a trainable leaf.
///
/// RF-GNN does not record on the tape: its training step
/// (`gnn::rf_gnn_step`) is one hand-derived forward and backward pass per
/// hop. The tape is that pass's oracle — test_gnn records the same graph
/// here and requires bit-identical gradients — which is why the operation
/// set still covers the RF-GNN weighted aggregation (`weighted_sum_rows`,
/// paper §III-B AGGREGATE_w), row L2 normalisation, embedding lookup
/// (`gather_rows`) and the skip-gram losses (`row_dot`, `log_sigmoid`),
/// next to dense layers (matmul / bias / activations) and the
/// deep-clustering losses of the baselines (`pairwise_sqdist`,
/// `row_normalize`, `softmax_rows`, `log`).

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"

namespace fisone::autodiff {

using linalg::matrix;

class tape;

/// One term of a sparse row combination: `weight · a.row(row)`.
struct weighted_row {
    std::size_t row = 0;
    double weight = 0.0;
};

/// A sparse linear operator on rows in CSR form: output row i combines
/// `terms[offsets[i] .. offsets[i+1])`. `offsets` starts at 0, never
/// decreases and ends at `terms.size()`, so it has rows() + 1 entries.
/// Callers that rebuild one per step keep the object and call clear(),
/// which keeps both buffers' capacity.
struct row_csr {
    std::vector<std::size_t> offsets{0};
    std::vector<weighted_row> terms;

    [[nodiscard]] std::size_t rows() const noexcept { return offsets.size() - 1; }
    /// Close the current row after pushing its terms.
    void end_row() { offsets.push_back(terms.size()); }
    void clear() noexcept {
        offsets.resize(1);
        terms.clear();
    }
};

/// Lightweight handle to a node on a tape. Valid only for the lifetime of
/// the tape that produced it.
struct var {
    std::size_t index = static_cast<std::size_t>(-1);
    [[nodiscard]] bool valid() const noexcept { return index != static_cast<std::size_t>(-1); }
};

/// Append-only computation tape. Not thread-safe; call `reset()` between
/// training steps to reuse the tape: every node's value and gradient
/// storage is recycled through an internal `linalg::workspace`, so a
/// steady-state forward+backward pass allocates no matrix temporaries at
/// all. What a step still allocates is a fixed count per recorded op,
/// never proportional to the data: each op's backprop closure, and the
/// index vector a `gather_rows` takes by value. `weighted_sum_rows`
/// borrows its CSR operator and allocates nothing for it. Every op runs
/// serially.
class tape {
public:
    tape() = default;
    tape(const tape&) = delete;
    tape& operator=(const tape&) = delete;

    /// Remove all nodes; handles from before the reset become invalid.
    /// Node storage (values and gradients) is recycled into the tape's
    /// workspace so the next step's operations reuse it.
    void reset() noexcept;

    /// Number of nodes currently recorded.
    [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

    // --- leaves ---

    /// Non-trainable input (no gradient will be computed for it). The
    /// const& overloads copy through the workspace, so feeding the same
    /// leaves to a reused tape every step is allocation-free.
    var constant(const matrix& value);
    var constant(matrix&& value);

    /// Trainable leaf; after backward(), read its gradient with grad().
    var parameter(const matrix& value);
    var parameter(matrix&& value);

    // --- elementwise / arithmetic ---
    var add(var a, var b);                     ///< a + b, same shape
    var sub(var a, var b);                     ///< a - b, same shape
    var scale(var a, double s);                ///< s · a
    var add_scalar(var a, double s);           ///< a + s (elementwise)
    var hadamard(var a, var b);                ///< a ⊙ b, same shape
    var negate(var a) { return scale(a, -1.0); }

    // --- linear algebra ---
    var matmul(var a, var b);                  ///< a · b
    var add_broadcast_row(var a, var bias);    ///< a (n×d) + bias (1×d) to every row
    var concat_cols(var a, var b);             ///< [a | b], same row count

    // --- activations / pointwise functions ---
    var sigmoid(var a);
    var tanh_act(var a);
    var relu(var a);
    var log_op(var a);                         ///< elementwise natural log (input must be > 0)
    var reciprocal(var a);                     ///< 1 / a elementwise
    var log_sigmoid(var a);                    ///< numerically stable log σ(a)

    // --- row-structured operations ---

    /// Normalise every row to unit L2 norm; rows with norm < eps are scaled
    /// by 1/eps instead (keeps gradients finite). Paper §III-B: r ← r/‖r‖₂.
    var l2_normalize_rows(var a, double eps = 1e-12);

    /// Select rows `indices` of a (embedding lookup). Rows may repeat.
    var gather_rows(var a, std::vector<std::size_t> indices);

    /// out.row(i) = Σ_{t ∈ [op.offsets[i], op.offsets[i+1])}
    ///              op.terms[t].weight · a.row(op.terms[t].row),
    /// accumulated in term order, forward and backward. This is the RF-GNN
    /// attention aggregator (weights are the normalised f(RSS) edge
    /// weights of the sampled neighbourhood) and the baselines' sparse
    /// adjacency product.
    ///
    /// The tape *borrows* \p op: nothing is copied, so recording the op
    /// allocates nothing that scales with its size. \p op must stay alive
    /// and unchanged until the tape is reset or destroyed (backward()
    /// reads it); the rvalue overload is deleted so a temporary cannot
    /// dangle.
    /// \throws std::invalid_argument if the offsets are not a CSR row
    ///         index over `op.terms`; std::out_of_range on a bad row.
    var weighted_sum_rows(var a, const row_csr& op);
    var weighted_sum_rows(var a, const row_csr&& op) = delete;

    /// Row-wise dot product of two equally-shaped matrices → (n×1).
    var row_dot(var a, var b);

    /// s(i,j) = ‖a.row(i) − b.row(j)‖² → (n×k). Used by the Student-t soft
    /// assignment of SDCN/DAEGC.
    var pairwise_sqdist(var a, var b);

    /// Divide each row by its sum (rows must have positive sums).
    var row_normalize(var a);

    /// Row-wise softmax.
    var softmax_rows(var a);

    // --- reductions ---
    var sum_all(var a);   ///< → 1×1
    var mean_all(var a);  ///< → 1×1

    // --- access / backward ---

    /// Value of a node.
    [[nodiscard]] const matrix& value(var v) const;

    /// Gradient of the last backward() root w.r.t. node \p v.
    /// Empty matrix if the node did not require a gradient.
    [[nodiscard]] const matrix& grad(var v) const;

    /// Run reverse-mode accumulation from \p root, which must be 1×1.
    /// Clears previous gradients first.
    /// \throws std::invalid_argument if root is not scalar.
    void backward(var root);

private:
    struct node {
        matrix value;
        matrix grad;                    // empty until needed
        bool requires_grad = false;
        std::function<void()> backprop;  // empty for leaves
    };

    var push(matrix value, bool requires_grad, std::function<void()> backprop);
    node& at(var v);
    const node& at(var v) const;
    matrix& grad_buffer(std::size_t index);  ///< lazily allocate grad of node

    std::vector<node> nodes_;
    linalg::workspace ws_;  ///< recycled storage for node values/grads
};

}  // namespace fisone::autodiff
