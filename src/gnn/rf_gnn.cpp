#include "rf_gnn.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "linalg/parallel_policy.hpp"
#include "util/thread_pool.hpp"

namespace fisone::gnn {

using autodiff::var;
using linalg::matrix;

rf_gnn::rf_gnn(const graph::bipartite_graph& g, rf_gnn_config cfg, util::thread_pool* pool)
    : graph_(&g),
      cfg_(cfg),
      pool_(pool),
      rng_(cfg.seed),
      sampler_(g, cfg.use_attention),
      negatives_(g, cfg.negative_exponent),
      optimizer_(autodiff::adam::config{cfg.learning_rate, 0.9, 0.999, 1e-8, cfg.grad_clip}),
      tape_(pool) {
    if (cfg.embedding_dim == 0) throw std::invalid_argument("rf_gnn: embedding_dim must be > 0");
    if (cfg.num_hops == 0) throw std::invalid_argument("rf_gnn: num_hops must be > 0");
    if (cfg.neighbor_samples == 0)
        throw std::invalid_argument("rf_gnn: neighbor_samples must be > 0");
    if (cfg.batch_pairs == 0) throw std::invalid_argument("rf_gnn: batch_pairs must be > 0");
    if (cfg.walks.walk_length < 2)
        throw std::invalid_argument("rf_gnn: walks.walk_length must be >= 2");
    if (cfg.walks.window == 0) throw std::invalid_argument("rf_gnn: walks.window must be >= 1");

    slot_stamp_.assign(g.num_nodes(), 0);
    slot_pos_.resize(g.num_nodes());
    layers_.resize(cfg.num_hops + 1);
    hoods_.resize(cfg.num_hops + 1);

    const std::size_t d = cfg.embedding_dim;
    base_ = matrix(g.num_nodes(), d);
    for (double& x : base_.flat()) x = rng_.normal(0.0, 0.1);

    weights_.reserve(cfg.num_hops);
    for (std::size_t k = 0; k < cfg.num_hops; ++k) {
        matrix w(2 * d, d);
        const double bound = std::sqrt(6.0 / static_cast<double>(2 * d + d));
        for (double& x : w.flat()) x = rng_.uniform(-bound, bound);
        weights_.push_back(std::move(w));
    }
}

void rf_gnn::apply_activation(matrix& m) const noexcept {
    switch (cfg_.act) {
        case activation::tanh:
            for (double& x : m.flat()) x = std::tanh(x);
            break;
        case activation::relu:
            for (double& x : m.flat()) x = x > 0.0 ? x : 0.0;
            break;
        case activation::sigmoid:
            for (double& x : m.flat()) x = 1.0 / (1.0 + std::exp(-x));
            break;
    }
}

void rf_gnn::train() {
    for (std::size_t e = 0; e < cfg_.epochs; ++e) train_epoch();
}

double rf_gnn::train_epoch() {
    cache_valid_ = false;
    auto pairs = graph::generate_walk_pairs(*graph_, sampler_, cfg_.walks, rng_);
    rng_.shuffle(pairs);

    double total_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < pairs.size(); begin += cfg_.batch_pairs) {
        const std::size_t end = std::min(begin + cfg_.batch_pairs, pairs.size());
        total_loss += train_batch(pairs, begin, end);
        ++batches;
    }
    return batches == 0 ? 0.0 : total_loss / static_cast<double>(batches);
}

double rf_gnn::train_batch(const std::vector<graph::walk_pair>& pairs, std::size_t begin,
                           std::size_t end) {
    const std::size_t batch = end - begin;
    const std::size_t tau = cfg_.negatives;
    const std::size_t K = cfg_.num_hops;

    // The previous batch's tape borrows `hoods_`; drop it before rebuilding.
    tape_.reset();

    // `intern(layer, node)` returns the node's position in `layer`,
    // appending it on first sight. Positions never move once assigned, so
    // the position returned for a node is final (see `slot_pos_`).
    auto start_layer = [&](std::vector<std::uint32_t>& layer) {
        layer.clear();
        ++slot_gen_;
    };
    auto intern = [&](std::vector<std::uint32_t>& layer, std::uint32_t node) -> std::size_t {
        if (slot_stamp_[node] != slot_gen_) {
            slot_stamp_[node] = slot_gen_;
            slot_pos_[node] = static_cast<std::uint32_t>(layer.size());
            layer.push_back(node);
        }
        return slot_pos_[node];
    };

    // --- the target layer, deduplicated: lefts and rights first, then
    //     the whole batch's negatives (their draws precede all sampling) ---
    std::vector<std::uint32_t>& targets = layers_[K];
    start_layer(targets);
    std::vector<std::size_t> left_slots(batch), right_slots(batch), neg_slots(batch * tau),
        left_rep_slots(batch * tau);
    for (std::size_t i = 0; i < batch; ++i) {
        left_slots[i] = intern(targets, pairs[begin + i].first);
        right_slots[i] = intern(targets, pairs[begin + i].second);
    }
    for (std::size_t i = 0; i < batch; ++i)
        for (std::size_t z = 0; z < tau; ++z) {
            neg_slots[i * tau + z] = intern(targets, negatives_.sample(rng_));
            left_rep_slots[i * tau + z] = left_slots[i];
        }

    // --- build the layered computation from the top down:
    //     layers_[k-1] = layers_[k] ∪ sampled neighbours of layers_[k],
    //     in first-seen order. hoods_[k] row i holds the sampled
    //     (position in layer k-1, aggregation weight) terms of node i of
    //     layer k, in sampling order. ---
    std::vector<std::vector<std::size_t>> self_pos(K + 1);
    for (std::size_t k = K; k >= 1; --k) {
        const std::vector<std::uint32_t>& upper = layers_[k];
        std::vector<std::uint32_t>& lower = layers_[k - 1];
        autodiff::row_csr& hood = hoods_[k];
        start_layer(lower);
        hood.clear();
        self_pos[k].resize(upper.size());
        for (std::size_t i = 0; i < upper.size(); ++i) {
            const std::uint32_t node = upper[i];
            self_pos[k][i] = intern(lower, node);  // the node's own previous rep
            const std::size_t row_begin = hood.terms.size();
            for (std::size_t s = 0; s < cfg_.neighbor_samples; ++s) {
                const graph::edge& e = sampler_.sample_edge(node, rng_);
                hood.terms.push_back({intern(lower, e.neighbor), e.weight});
            }
            // Normalise in place: the total is summed in sampling order.
            const std::span<autodiff::weighted_row> row(hood.terms.data() + row_begin,
                                                        cfg_.neighbor_samples);
            double total = 0.0;
            if (cfg_.use_attention)
                for (const autodiff::weighted_row& t : row) total += t.weight;
            else
                total = static_cast<double>(row.size());
            for (autodiff::weighted_row& t : row)
                t.weight = cfg_.use_attention ? t.weight / total : 1.0 / total;
            hood.end_row();
        }
    }

    // --- forward pass on the reused tape (reset recycled node storage
    //     into the tape's workspace, so no matrix temporary allocates) ---
    autodiff::tape& t = tape_;
    const var base_var = cfg_.train_base_embeddings ? t.parameter(base_) : t.constant(base_);
    std::vector<var> weight_vars;
    weight_vars.reserve(K);
    for (const matrix& w : weights_) weight_vars.push_back(t.parameter(w));

    var h = t.gather_rows(base_var, std::vector<std::size_t>(layers_[0].begin(), layers_[0].end()));

    for (std::size_t k = 1; k <= K; ++k) {
        const var self_prev = t.gather_rows(h, std::move(self_pos[k]));
        const var agg = t.weighted_sum_rows(h, hoods_[k]);
        const var cat = t.concat_cols(self_prev, agg);
        var z = t.matmul(cat, weight_vars[k - 1]);
        switch (cfg_.act) {
            case activation::tanh: z = t.tanh_act(z); break;
            case activation::relu: z = t.relu(z); break;
            case activation::sigmoid: z = t.sigmoid(z); break;
        }
        h = t.l2_normalize_rows(z);
    }

    // --- skip-gram loss with negative sampling (paper §III-B) ---
    const var left_rep = t.gather_rows(h, std::move(left_slots));
    const var right_rep = t.gather_rows(h, std::move(right_slots));
    const var pos_scores = t.row_dot(left_rep, right_rep);
    var loss = t.negate(t.mean_all(t.log_sigmoid(pos_scores)));
    if (tau > 0) {
        const var left_rep2 = t.gather_rows(h, std::move(left_rep_slots));
        const var neg_rep = t.gather_rows(h, std::move(neg_slots));
        const var neg_scores = t.row_dot(left_rep2, neg_rep);
        // τ · E_z[−log σ(−r_i·r_z)] estimated with τ samples per pair:
        // mean over the τ·B entries times τ recovers (1/B)·Σ.
        loss = t.add(loss, t.scale(t.mean_all(t.log_sigmoid(t.negate(neg_scores))),
                                   -static_cast<double>(tau)));
    }

    t.backward(loss);

    if (cfg_.train_base_embeddings) optimizer_.step(base_, t.grad(base_var));
    for (std::size_t k = 0; k < K; ++k) optimizer_.step(weights_[k], t.grad(weight_vars[k]));
    optimizer_.end_step();

    return t.value(loss)(0, 0);
}

matrix rf_gnn::propagate_full(const matrix& prev, std::size_t hop) const {
    const std::size_t n = graph_->num_nodes();
    const std::size_t d = cfg_.embedding_dim;

    // Aggregate over the *full* neighbourhood (deterministic inference).
    // Every node writes only its own output row, so pooling is bit-exact.
    matrix agg = ws_.take_zero(n, d);
    const std::size_t flops_per_node =
        (2 * graph_->num_edges() / std::max<std::size_t>(n, 1) + 1) * d;
    util::parallel_for(pool_, 0, n, linalg::parallel_policy::row_grain(flops_per_node),
                       [&](std::size_t n0, std::size_t n1) {
        for (std::uint32_t node = static_cast<std::uint32_t>(n0); node < n1; ++node) {
            const auto nbrs = graph_->neighbors(node);
            if (nbrs.empty()) continue;
            double total = 0.0;
            if (cfg_.use_attention)
                for (const graph::edge& e : nbrs) total += e.weight;
            else
                total = static_cast<double>(nbrs.size());
            for (const graph::edge& e : nbrs) {
                const double w = cfg_.use_attention ? e.weight / total : 1.0 / total;
                const auto prow = prev.row(e.neighbor);
                for (std::size_t j = 0; j < d; ++j) agg(node, j) += w * prow[j];
            }
        }
    });

    // cat = [prev | agg], z = cat · W_hop, σ, normalise
    matrix cat = ws_.take(n, 2 * d);
    for (std::size_t i = 0; i < n; ++i) {
        const auto prow = prev.row(i);
        for (std::size_t j = 0; j < d; ++j) {
            cat(i, j) = prow[j];
            cat(i, d + j) = agg(i, j);
        }
    }
    matrix z = ws_.take(n, d);
    linalg::matmul_into(z, cat, weights_[hop], pool_);
    ws_.recycle(std::move(agg));
    ws_.recycle(std::move(cat));
    apply_activation(z);
    for (std::size_t i = 0; i < n; ++i) {
        double nrm = linalg::norm2(z.row(i));
        if (nrm < 1e-12) nrm = 1e-12;
        for (std::size_t j = 0; j < d; ++j) z(i, j) /= nrm;
    }
    return z;
}

const matrix& rf_gnn::embed_all_nodes() {
    if (!cache_valid_) {
        // Stale layers go back to the arena; the rebuild takes them out again.
        for (matrix& layer : layer_cache_) ws_.recycle(std::move(layer));
        layer_cache_.clear();
        layer_cache_.push_back(base_);
        for (std::size_t k = 0; k < cfg_.num_hops; ++k)
            layer_cache_.push_back(propagate_full(layer_cache_.back(), k));
        cache_valid_ = true;
    }
    return layer_cache_.back();
}

matrix rf_gnn::embed_samples() {
    const matrix& all = embed_all_nodes();
    matrix out = matrix::uninit(graph_->num_samples(), cfg_.embedding_dim);
    for (std::size_t i = 0; i < graph_->num_samples(); ++i) {
        const auto row = all.row(graph_->sample_node(i));
        for (std::size_t j = 0; j < cfg_.embedding_dim; ++j) out(i, j) = row[j];
    }
    return out;
}

std::vector<double> rf_gnn::embed_new_sample(
    const std::vector<data::rf_observation>& observations) {
    static_cast<void>(embed_all_nodes());  // ensure caches
    const std::size_t d = cfg_.embedding_dim;

    // Known-MAC neighbourhood with f(RSS) weights.
    std::vector<std::pair<std::uint32_t, double>> nbrs;
    for (const data::rf_observation& o : observations) {
        if (o.mac_id >= graph_->num_macs()) continue;  // unseen MAC: skip
        const double w = o.rss_dbm + graph_->rss_offset();
        if (w > 0.0) nbrs.emplace_back(graph_->mac_node(o.mac_id), w);
    }
    if (nbrs.empty())
        throw std::invalid_argument("rf_gnn::embed_new_sample: no known MACs in the scan");

    double total = 0.0;
    if (cfg_.use_attention)
        for (const auto& [node, w] : nbrs) total += w;
    else
        total = static_cast<double>(nbrs.size());

    // h_0(new) = weighted mean of neighbour base embeddings (inductive
    // convention for a node with no trained base vector; see header).
    std::vector<double> h(d, 0.0);
    for (const auto& [node, w] : nbrs) {
        const double ww = cfg_.use_attention ? w / total : 1.0 / total;
        const auto row = layer_cache_[0].row(node);
        for (std::size_t j = 0; j < d; ++j) h[j] += ww * row[j];
    }

    for (std::size_t k = 1; k <= cfg_.num_hops; ++k) {
        // aggregate neighbours' H_{k-1}
        std::vector<double> agg(d, 0.0);
        for (const auto& [node, w] : nbrs) {
            const double ww = cfg_.use_attention ? w / total : 1.0 / total;
            const auto row = layer_cache_[k - 1].row(node);
            for (std::size_t j = 0; j < d; ++j) agg[j] += ww * row[j];
        }
        // z = [h | agg] · W_{k-1}. Deliberately plain locals, not the
        // shared ws_ arena: once the layer cache is warm this method only
        // reads model state, so concurrent inference on one fitted model
        // stays safe (the 1×2d scratch is too small to matter anyway).
        matrix cat = matrix::uninit(1, 2 * d);
        for (std::size_t j = 0; j < d; ++j) {
            cat(0, j) = h[j];
            cat(0, d + j) = agg[j];
        }
        matrix z = matrix::uninit(1, d);
        linalg::matmul_into(z, cat, weights_[k - 1]);
        apply_activation(z);
        double nrm = linalg::norm2(z.row(0));
        if (nrm < 1e-12) nrm = 1e-12;
        for (std::size_t j = 0; j < d; ++j) h[j] = z(0, j) / nrm;
    }
    return h;
}

}  // namespace fisone::gnn
