#pragma once

/// \file rf_gnn.hpp
/// RF-GNN — the paper's attention-based graph neural network for RF
/// signals (§III). A GraphSAGE-style K-hop model where:
///  - neighbours are *sampled* proportionally to the edge weight
///    f(RSS) = RSS + c (the "attention" sampling, Pr(u) ∝ f(RSS_uv));
///  - sampled neighbours are *aggregated* with normalised f(RSS) weights
///    (AGGREGATE_w), i.e. the edge weights act as fixed attention scores;
///  - each hop concatenates the node's previous representation with the
///    aggregate, applies a dense layer + nonlinearity, and L2-normalises;
///  - training is unsupervised: skip-gram loss over 5-step random-walk
///    co-occurrences with τ = 4 negatives drawn ∝ degree^(3/4).
///
/// The "without attention" ablation (paper Fig. 8(a,b)) switches both the
/// sampling and the aggregation to uniform.
///
/// Training minibatches are assembled without hashing, in buffers reused
/// across batches (see the private members). RNG draws keep one order,
/// which the golden digests pin: the batch's negatives, then
/// `neighbor_samples` edges per row from hop K down to hop 1, rows in
/// first-seen order. The draws come from flat tables:
/// `graph::neighbor_sampler` keeps one alias column per CSR half-edge,
/// each node's run beside a record of its edges and its degree as a
/// prepared `util::rng::index_range` (rejection threshold and divisionless
/// remainder), and `graph::negative_table` one column per node. Each draw
/// consumes exactly the raw outputs a per-node `util::alias_sampler` (or
/// `rng::uniform_index`) would and returns the same index, so the draw
/// order above is the whole sampling contract. Each row's CSR terms are
/// written in place and normalised as they are drawn.
///
/// Each batch's loss and gradient come from `rf_gnn_step`, one
/// hand-derived forward and backward pass per hop that reproduces the
/// autodiff tape's arithmetic bit for bit. At d = 16 and 32 its row loops
/// run at a compile-time width, with register accumulators for the
/// aggregation and the gradient sums, and the row-wise dot products of
/// four rows at a time; every element keeps its own summation order.

#include <cstdint>
#include <vector>

#include "autodiff/optimizer.hpp"
#include "autodiff/tape.hpp"  // row_csr
#include "graph/bipartite_graph.hpp"
#include "graph/sampling.hpp"
#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"
#include "util/rng.hpp"

namespace fisone::util {
class thread_pool;
}

namespace fisone::gnn {

/// Nonlinearity σ(·) applied after each hop's dense layer.
enum class activation { tanh, relu, sigmoid };

/// All RF-GNN hyperparameters. Defaults follow the paper where it is
/// specific (walk length 5, τ = 4, degree^(3/4) negatives) and common
/// GraphSAGE practice elsewhere.
struct rf_gnn_config {
    std::size_t embedding_dim = 32;    ///< output dimension (paper sweeps 8–64)
    std::size_t num_hops = 2;          ///< K
    std::size_t neighbor_samples = 8;  ///< |N'(v)| sampled per hop during training
    bool use_attention = true;         ///< false → uniform sampling + mean aggregation
    bool train_base_embeddings = true; ///< train r⁰ (the paper: a random vector)
    activation act = activation::tanh;

    graph::walk_config walks{};        ///< 5-step walks by default
    std::size_t negatives = 4;         ///< τ
    double negative_exponent = 0.75;   ///< Pr(z) ∝ degree^exponent

    std::size_t epochs = 10;
    std::size_t batch_pairs = 512;
    double learning_rate = 0.01;
    double grad_clip = 5.0;
    std::uint64_t seed = 42;
};

/// One assembled training minibatch: the K+1 node layers of the sampled
/// computation, each hop's neighbourhoods, and the skip-gram pairs as
/// positions in the target layer. `rf_gnn` rebuilds one in place per
/// batch (every vector keeps its capacity); tests build them by hand.
struct rf_gnn_batch {
    /// layers[K] = the batch's targets; layers[k-1] = layers[k] plus its
    /// sampled neighbours, in first-seen order. Entries are node ids
    /// (rows of the base embeddings), distinct within a layer.
    std::vector<std::vector<std::uint32_t>> layers;
    /// self[k][i] (k ≥ 1): the position of layers[k][i] in layers[k-1].
    std::vector<std::vector<std::uint32_t>> self;
    /// hoods[k] (k ≥ 1): the sampled neighbourhood of each layer-k node
    /// as a CSR operator over layer k-1, normalised weights in sampling
    /// order.
    std::vector<autodiff::row_csr> hoods;
    /// Positions in layers[K]. Pair i is (left[i], right[i]); its τ
    /// negatives are negatives[i·τ, i·τ + τ), so τ = negatives / pairs.
    std::vector<std::uint32_t> left, right, negatives;
};

/// The RF-GNN skip-gram loss of one minibatch and its gradient, by one
/// hand-derived forward and backward pass per hop. Per hop: the self row
/// and the f(RSS)-weighted neighbour sum are written straight into
/// `cat`, then z = cat·W, σ in place, and L2 row normalisation; the
/// scores read the top layer's rows by position. The backward does the
/// autodiff tape's arithmetic in the tape's order with the same products
/// (`matmul_nt_into`, `matmul_tn_into`, same pool), so every gradient is
/// bit-identical to the same graph recorded on `autodiff::tape` — the
/// oracle test in test_gnn checks exactly that.
///
/// The per-layer buffers (`cat`, σ output, normalised rows, row norms)
/// and the gradient buffers are owned and reused across calls, so a
/// steady-state pass allocates nothing. Not thread-safe; one per model.
class rf_gnn_step {
public:
    /// Forward and backward over \p batch (at least one pair) with
    /// parameters \p base (num_nodes × d) and \p weights (K of them,
    /// 2d × d). Afterwards
    /// `weight_grads()` holds ∂loss/∂W per hop and, when \p train_base,
    /// `base_grad()` holds ∂loss/∂base (zero outside the batch's layer 0;
    /// untouched otherwise).
    /// \param with_loss compute the loss value; without it the pass skips
    ///        the `log1p` per score, since the gradient needs only σ(−x).
    /// \returns the batch loss, or 0.0 when \p with_loss is false.
    double run(const rf_gnn_batch& batch, const linalg::matrix& base,
               const std::vector<linalg::matrix>& weights, activation act, bool train_base,
               bool with_loss, util::thread_pool* pool);

    [[nodiscard]] const linalg::matrix& base_grad() const noexcept { return base_grad_; }
    [[nodiscard]] const std::vector<linalg::matrix>& weight_grads() const noexcept {
        return weight_grads_;
    }

private:
    /// `run` at row width \p D, or at the run-time width when D is 0.
    template <std::size_t D>
    double run_at(const rf_gnn_batch& batch, const linalg::matrix& base,
                  const std::vector<linalg::matrix>& weights, activation act, bool train_base,
                  bool with_loss, util::thread_pool* pool);

    /// Weighted row sums gathered per destination row instead of scattered
    /// into it. Terms are recorded in the order a scatter would add them
    /// (a counting pass, then a placing pass over the same sequence), so
    /// each destination's sum is the scatter's, from +0.0 term by term,
    /// bit for bit; but it is accumulated in registers and stored once,
    /// and rows nobody writes need no zero fill.
    class row_gather {
    public:
        void reset(std::size_t rows);
        void count(std::size_t row) { ++ends_[row + 1]; }
        /// Between the passes: turn the counts into each row's start.
        void seal();
        void place(std::size_t row, const double* src, double weight) {
            terms_[ends_[row]++] = {src, weight};
        }
        /// dst(row)[j] = Σ weight · src[j] over the row's terms, in order,
        /// for every row; \p d is the row width (D when D > 0).
        template <std::size_t D, class Dst>
        void apply(const Dst& dst, std::size_t d) const;

    private:
        struct term {
            const double* src;
            double weight;
        };
        /// After `seal`, ends_[r] is row r's start; each `place` advances
        /// it, so once placed it is row r's end and row r begins at
        /// ends_[r - 1] (0 for row 0).
        std::vector<std::size_t> ends_;
        std::vector<term> terms_;
    };

    /// Forward state of hop k (stored at k-1): cat = [self | aggregate]
    /// (n_k × 2d), act = σ(cat·W) (n_k × d), h = act with unit rows, and
    /// each row's clamped norm.
    struct hop_buffers {
        linalg::matrix cat;
        linalg::matrix act;
        linalg::matrix h;
        std::vector<double> norm;
    };

    std::vector<hop_buffers> hops_;
    /// Per-score gradients of the loss: B positives, then B·τ negatives.
    std::vector<double> pos_grad_, neg_grad_;
    /// exp(−|x|) of the scores being finished (positives, then negatives).
    std::vector<double> exps_;
    /// Per row of the hop being unwound: dh · h, the normalisation's
    /// backward projection.
    std::vector<double> gy_;
    /// dh of the hop being unwound (its σ and normalisation backward run
    /// in place, turning it into dz) and of the layer below it.
    linalg::matrix dh_, dh_lower_;
    linalg::matrix dcat_;
    row_gather gather_;  ///< the dh_K and dcat sums
    linalg::matrix base_grad_;
    std::vector<linalg::matrix> weight_grads_;
    linalg::workspace ws_;  ///< `matmul_nt_into`'s packing scratch
};

/// The trained model. Owns its parameters; the graph must outlive it.
class rf_gnn {
public:
    /// \throws std::invalid_argument on nonsensical config: zero
    ///         dims, hops, neighbour samples, batch pairs or walks per
    ///         node, walks shorter than 2 steps, or a zero co-occurrence
    ///         window.
    /// \param pool optional worker pool for the minibatch forward/backward
    ///        products and full-graph propagation. Pooled runs are
    ///        bit-identical to serial ones: the work splits over output
    ///        rows, whose accumulation order never changes, and all
    ///        stochastic sampling stays on the calling thread.
    rf_gnn(const graph::bipartite_graph& g, rf_gnn_config cfg,
           util::thread_pool* pool = nullptr);

    /// Run the full unsupervised training schedule (`cfg.epochs` epochs,
    /// walks regenerated every epoch). Skips the loss value, which only
    /// `train_epoch()` reports; the parameters move identically.
    void train();

    /// Run one epoch; returns the mean batch loss (useful for tests and
    /// convergence monitoring).
    double train_epoch();

    /// Deterministic full-neighbourhood inference for every node.
    /// Returns (num_nodes × embedding_dim); invalidated caches are rebuilt.
    [[nodiscard]] const linalg::matrix& embed_all_nodes();

    /// Rows of `embed_all_nodes()` restricted to signal-sample nodes, in
    /// sample order: (num_samples × embedding_dim).
    [[nodiscard]] linalg::matrix embed_samples();

    /// Inductive embedding of a *new* scan that is not a node of the graph
    /// (paper §I: "new incoming RF signals"). The scan's base representation
    /// is the attention-weighted mean of its detected MACs' base embeddings;
    /// the K-hop transform then runs against the cached full-graph layers.
    /// MACs never seen in the graph are ignored.
    /// \throws std::invalid_argument if no observation matches a known MAC.
    [[nodiscard]] std::vector<double> embed_new_sample(
        const std::vector<data::rf_observation>& observations);

    [[nodiscard]] const rf_gnn_config& config() const noexcept { return cfg_; }

    /// Trainable parameters, exposed for tests.
    [[nodiscard]] const linalg::matrix& base_embeddings() const noexcept { return base_; }
    [[nodiscard]] const std::vector<linalg::matrix>& hop_weights() const noexcept {
        return weights_;
    }

private:
    /// One full-neighbourhood propagation hop: H_k from H_{k-1}.
    [[nodiscard]] linalg::matrix propagate_full(const linalg::matrix& prev, std::size_t hop) const;

    /// One epoch; returns the mean batch loss, or 0.0 without \p with_loss.
    double run_epoch(bool with_loss);

    /// Train on one batch of positive pairs; returns the batch loss, or
    /// 0.0 without \p with_loss.
    double train_batch(const std::vector<graph::walk_pair>& pairs, std::size_t begin,
                       std::size_t end, bool with_loss);

    const graph::bipartite_graph* graph_;
    rf_gnn_config cfg_;
    util::thread_pool* pool_ = nullptr;
    util::rng rng_;
    graph::neighbor_sampler sampler_;
    graph::negative_table negatives_;
    autodiff::adam optimizer_;

    /// Forward/backward pass with its per-layer buffers, reused by every
    /// batch, so a steady-state step allocates no matrix.
    rf_gnn_step step_;
    /// Scratch arena for full-graph propagation; mutable because
    /// propagation is logically const but reuses these buffers. Only
    /// touched on the (already mutating) cache-rebuild path —
    /// `embed_new_sample` deliberately uses locals so warm-cache
    /// inference never mutates shared model state.
    mutable linalg::workspace ws_;

    /// Minibatch assembly buffers, reused for every layer of every batch
    /// so that a batch hashes nothing and its allocations do not grow
    /// with the node count. Node ids are dense in [0, num_nodes): the
    /// position of a node in the layer being built is `slots_[node].pos`,
    /// valid only while `slots_[node].stamp == slot_gen_`; starting a layer
    /// bumps `slot_gen_` instead of clearing the array (all but on the
    /// stamp's wrap, which clears it).
    struct node_slot {
        std::uint32_t stamp = 0;
        std::uint32_t pos = 0;
    };
    std::vector<node_slot> slots_;
    std::uint32_t slot_gen_ = 0;
    /// The batch being trained, rebuilt in place (see `rf_gnn_batch`).
    rf_gnn_batch batch_;

    linalg::matrix base_;                  // (num_nodes × d)
    std::vector<linalg::matrix> weights_;  // per hop, (2d × d)

    // Full-propagation cache for inference / inductive embedding.
    std::vector<linalg::matrix> layer_cache_;  // H_0 .. H_K
    bool cache_valid_ = false;
};

}  // namespace fisone::gnn
