#include "rf_gnn.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "linalg/parallel_policy.hpp"
#include "util/thread_pool.hpp"

namespace fisone::gnn {

using linalg::matrix;

namespace {

/// σ(−x) = exp(−x)/(1+exp(−x)) for x ≥ 0, else 1/(1+exp(x)) — the tape's
/// log_sigmoid derivative — given e = exp(−|x|), the one `exp` a score
/// costs. The loss term log σ(x) reuses the same e.
double sigmoid_neg(double x, double e) noexcept {
    return x >= 0.0 ? e / (1.0 + e) : 1.0 / (1.0 + e);
}
double log_sigmoid(double x, double e) noexcept {
    return x >= 0.0 ? -std::log1p(e) : x - std::log1p(e);
}

/// Apply σ in place.
void apply_activation(activation act, matrix& m) noexcept {
    switch (act) {
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

/// dst[j] += g · src[j], the row_dot backward term.
void add_scaled(double* dst, double g, const double* src, std::size_t d) noexcept {
    for (std::size_t j = 0; j < d; ++j) dst[j] += g * src[j];
}

}  // namespace

double rf_gnn_step::run(const rf_gnn_batch& batch, const matrix& base,
                        const std::vector<matrix>& weights, activation act, bool train_base,
                        bool with_loss, util::thread_pool* pool) {
    const std::size_t K = weights.size();
    const std::size_t d = base.cols();
    const std::size_t pairs = batch.left.size();
    const std::size_t tau = pairs == 0 ? 0 : batch.negatives.size() / pairs;
    hops_.resize(K);
    weight_grads_.resize(K);

    // Row `pos` of layer k's representation: base rows for k = 0.
    auto lower_row = [&](std::size_t k, std::size_t pos) -> const double* {
        return k == 0 ? base.data() + static_cast<std::size_t>(batch.layers[0][pos]) * d
                      : hops_[k - 1].h.data() + pos * d;
    };

    // --- forward, hop by hop ---
    for (std::size_t k = 1; k <= K; ++k) {
        hop_buffers& hb = hops_[k - 1];
        const autodiff::row_csr& hood = batch.hoods[k];
        const std::vector<std::uint32_t>& self = batch.self[k];
        const std::size_t n = self.size();

        // cat = [self row | Σ w·neighbour row], the sum from 0.0 in CSR
        // order. Rows are independent, so pooled runs are bit-exact.
        hb.cat.resize_uninit(n, 2 * d);
        const auto fill_row = [&](std::size_t i) {
            double* out = hb.cat.data() + i * 2 * d;
            const double* own = lower_row(k - 1, self[i]);
            for (std::size_t j = 0; j < d; ++j) out[j] = own[j];
            double* agg = out + d;
            for (std::size_t j = 0; j < d; ++j) agg[j] = 0.0;
            for (std::size_t t = hood.offsets[i]; t < hood.offsets[i + 1]; ++t)
                add_scaled(agg, hood.terms[t].weight, lower_row(k - 1, hood.terms[t].row), d);
        };
        const std::size_t flops_per_row =
            (hood.terms.size() / std::max<std::size_t>(n, 1) + 1) * d;
        // One captured reference keeps the std::function allocation-free.
        util::parallel_for(pool, 0, n, linalg::parallel_policy::row_grain(flops_per_row),
                           [&fill_row](std::size_t r0, std::size_t r1) {
                               for (std::size_t i = r0; i < r1; ++i) fill_row(i);
                           });

        linalg::matmul_into(hb.act, hb.cat, weights[k - 1], pool);
        apply_activation(act, hb.act);

        hb.h.resize_uninit(n, d);
        hb.norm.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            double nrm = linalg::norm2(hb.act.row(i));
            if (nrm < 1e-12) nrm = 1e-12;
            hb.norm[i] = nrm;
            for (std::size_t j = 0; j < d; ++j) hb.h(i, j) = hb.act(i, j) / nrm;
        }
    }
    const matrix& top = hops_[K - 1].h;
    auto top_row = [&](std::size_t pos) { return top.data() + pos * d; };
    auto dh_row = [&](std::size_t pos) { return dh_.data() + pos * d; };

    // --- skip-gram scores and the scalar chain of
    //     loss = −mean(log σ(pos)) − τ·mean(log σ(−neg)).
    //     Each `0.0 +` stands where the tape adds into a fresh zero
    //     buffer, so even the sign of a zero matches. ---
    double loss = 0.0;  // stays 0.0 without with_loss
    pos_grad_.resize(pairs);
    {
        const double gmean = (-1.0 * 1.0) / static_cast<double>(pairs);
        double total = 0.0;
        for (std::size_t i = 0; i < pairs; ++i) {
            const double x =
                linalg::kernels::dot(d, top_row(batch.left[i]), top_row(batch.right[i]));
            const double e = std::exp(x >= 0.0 ? -x : x);
            pos_grad_[i] = 0.0 + gmean * sigmoid_neg(x, e);
            if (with_loss) total += log_sigmoid(x, e);
        }
        if (with_loss) loss = (total / static_cast<double>(pairs)) * -1.0;
    }
    neg_grad_.resize(pairs * tau);
    if (tau > 0) {
        const double count = static_cast<double>(pairs * tau);
        const double gmean = (-static_cast<double>(tau) * 1.0) / count;
        double total = 0.0;
        for (std::size_t i = 0; i < pairs; ++i)
            for (std::size_t z = 0; z < tau; ++z) {
                const std::size_t r = i * tau + z;
                const double x =
                    -linalg::kernels::dot(d, top_row(batch.left[i]), top_row(batch.negatives[r]));
                const double e = std::exp(x >= 0.0 ? -x : x);
                neg_grad_[r] = 0.0 + -1.0 * (0.0 + gmean * sigmoid_neg(x, e));
                if (with_loss) total += log_sigmoid(x, e);
            }
        if (with_loss) loss += (total / count) * -static_cast<double>(tau);
    }

    // --- backward into dh_K, in the tape's reverse insertion order:
    //     the negatives' rows, their lefts, the positives' rights, lefts ---
    dh_.resize_uninit(top.rows(), d);
    dh_.fill(0.0);
    for (std::size_t r = 0; r < pairs * tau; ++r)
        add_scaled(dh_row(batch.negatives[r]), neg_grad_[r], top_row(batch.left[r / tau]), d);
    for (std::size_t r = 0; r < pairs * tau; ++r)
        add_scaled(dh_row(batch.left[r / tau]), neg_grad_[r], top_row(batch.negatives[r]), d);
    for (std::size_t i = 0; i < pairs; ++i)
        add_scaled(dh_row(batch.right[i]), pos_grad_[i], top_row(batch.left[i]), d);
    for (std::size_t i = 0; i < pairs; ++i)
        add_scaled(dh_row(batch.left[i]), pos_grad_[i], top_row(batch.right[i]), d);

    // --- backward through the hops, top down ---
    if (train_base) {
        base_grad_.resize_uninit(base.rows(), d);
        base_grad_.fill(0.0);
    }
    for (std::size_t k = K; k >= 1; --k) {
        const hop_buffers& hb = hops_[k - 1];
        const std::size_t n = hb.h.rows();

        // L2 normalisation, then σ, in place: dh becomes dz.
        for (std::size_t i = 0; i < n; ++i) {
            double* g = dh_row(i);
            const double* y = hb.h.data() + i * d;
            const double* a = hb.act.data() + i * d;
            const double gy = linalg::kernels::dot(d, g, y);
            for (std::size_t j = 0; j < d; ++j) g[j] = 0.0 + (g[j] - gy * y[j]) / hb.norm[i];
            switch (act) {
                case activation::tanh:
                    for (std::size_t j = 0; j < d; ++j) g[j] = 0.0 + g[j] * (1.0 - a[j] * a[j]);
                    break;
                case activation::relu:
                    for (std::size_t j = 0; j < d; ++j) g[j] = a[j] > 0.0 ? 0.0 + g[j] : 0.0;
                    break;
                case activation::sigmoid:
                    for (std::size_t j = 0; j < d; ++j) g[j] = 0.0 + g[j] * a[j] * (1.0 - a[j]);
                    break;
            }
        }

        linalg::matmul_tn_into(weight_grads_[k - 1], hb.cat, dh_, pool);
        if (k == 1 && !train_base) break;  // the frozen base needs no dcat
        linalg::matmul_nt_into(dcat_, dh_, weights[k - 1], pool, &ws_);

        // Scatter dcat into the layer below: the weighted-sum half first,
        // then the self half. Layer 0's rows are base rows.
        matrix& lower = k == 1 ? base_grad_ : dh_lower_;
        if (k > 1) {
            dh_lower_.resize_uninit(batch.layers[k - 1].size(), d);
            dh_lower_.fill(0.0);
        }
        auto lower_grad = [&](std::size_t pos) {
            return lower.data() + (k == 1 ? batch.layers[0][pos] : pos) * d;
        };
        const autodiff::row_csr& hood = batch.hoods[k];
        for (std::size_t i = 0; i < n; ++i) {
            const double* g = dcat_.data() + i * 2 * d + d;
            for (std::size_t t = hood.offsets[i]; t < hood.offsets[i + 1]; ++t)
                add_scaled(lower_grad(hood.terms[t].row), hood.terms[t].weight, g, d);
        }
        const std::vector<std::uint32_t>& self = batch.self[k];
        for (std::size_t i = 0; i < n; ++i) {
            double* dst = lower_grad(self[i]);
            const double* g = dcat_.data() + i * 2 * d;
            for (std::size_t j = 0; j < d; ++j) dst[j] += g[j];
        }
        if (k > 1) std::swap(dh_, dh_lower_);
    }
    return loss;
}

rf_gnn::rf_gnn(const graph::bipartite_graph& g, rf_gnn_config cfg, util::thread_pool* pool)
    : graph_(&g),
      cfg_(cfg),
      pool_(pool),
      rng_(cfg.seed),
      sampler_(g, cfg.use_attention),
      negatives_(g, cfg.negative_exponent),
      optimizer_(autodiff::adam::config{cfg.learning_rate, 0.9, 0.999, 1e-8, cfg.grad_clip}) {
    if (cfg.embedding_dim == 0) throw std::invalid_argument("rf_gnn: embedding_dim must be > 0");
    if (cfg.num_hops == 0) throw std::invalid_argument("rf_gnn: num_hops must be > 0");
    if (cfg.neighbor_samples == 0)
        throw std::invalid_argument("rf_gnn: neighbor_samples must be > 0");
    if (cfg.batch_pairs == 0) throw std::invalid_argument("rf_gnn: batch_pairs must be > 0");
    if (cfg.walks.walk_length < 2)
        throw std::invalid_argument("rf_gnn: walks.walk_length must be >= 2");
    if (cfg.walks.window == 0) throw std::invalid_argument("rf_gnn: walks.window must be >= 1");
    // Zero walks yield zero pairs: every epoch would train nothing.
    if (cfg.walks.walks_per_node == 0)
        throw std::invalid_argument("rf_gnn: walks.walks_per_node must be > 0");

    slot_stamp_.assign(g.num_nodes(), 0);
    slot_pos_.resize(g.num_nodes());
    batch_.layers.resize(cfg.num_hops + 1);
    batch_.self.resize(cfg.num_hops + 1);
    batch_.hoods.resize(cfg.num_hops + 1);

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

void rf_gnn::train() {
    for (std::size_t e = 0; e < cfg_.epochs; ++e) run_epoch(false);
}

double rf_gnn::train_epoch() { return run_epoch(true); }

double rf_gnn::run_epoch(bool with_loss) {
    cache_valid_ = false;
    auto pairs = graph::generate_walk_pairs(*graph_, sampler_, cfg_.walks, rng_);
    rng_.shuffle(pairs);

    double total_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < pairs.size(); begin += cfg_.batch_pairs) {
        const std::size_t end = std::min(begin + cfg_.batch_pairs, pairs.size());
        total_loss += train_batch(pairs, begin, end, with_loss);
        ++batches;
    }
    return batches == 0 ? 0.0 : total_loss / static_cast<double>(batches);
}

double rf_gnn::train_batch(const std::vector<graph::walk_pair>& pairs, std::size_t begin,
                           std::size_t end, bool with_loss) {
    const std::size_t batch = end - begin;
    const std::size_t tau = cfg_.negatives;
    const std::size_t K = cfg_.num_hops;
    rf_gnn_batch& b = batch_;

    // `intern(layer, node)` returns the node's position in `layer`,
    // appending it on first sight. Positions never move once assigned, so
    // the position returned for a node is final (see `slot_pos_`).
    auto start_layer = [&](std::vector<std::uint32_t>& layer) {
        layer.clear();
        ++slot_gen_;
    };
    auto intern = [&](std::vector<std::uint32_t>& layer, std::uint32_t node) -> std::uint32_t {
        if (slot_stamp_[node] != slot_gen_) {
            slot_stamp_[node] = slot_gen_;
            slot_pos_[node] = static_cast<std::uint32_t>(layer.size());
            layer.push_back(node);
        }
        return slot_pos_[node];
    };

    // --- the target layer, deduplicated: lefts and rights first, then
    //     the whole batch's negatives (their draws precede all sampling) ---
    std::vector<std::uint32_t>& targets = b.layers[K];
    start_layer(targets);
    b.left.resize(batch);
    b.right.resize(batch);
    b.negatives.resize(batch * tau);
    for (std::size_t i = 0; i < batch; ++i) {
        b.left[i] = intern(targets, pairs[begin + i].first);
        b.right[i] = intern(targets, pairs[begin + i].second);
    }
    for (std::uint32_t& neg : b.negatives) neg = intern(targets, negatives_.sample(rng_));

    // --- build the layered computation from the top down:
    //     layers[k-1] = layers[k] ∪ sampled neighbours of layers[k],
    //     in first-seen order. hoods[k] row i holds the sampled
    //     (position in layer k-1, aggregation weight) terms of node i of
    //     layer k, in sampling order. ---
    for (std::size_t k = K; k >= 1; --k) {
        const std::vector<std::uint32_t>& upper = b.layers[k];
        std::vector<std::uint32_t>& lower = b.layers[k - 1];
        autodiff::row_csr& hood = b.hoods[k];
        start_layer(lower);
        hood.clear();
        b.self[k].resize(upper.size());
        for (std::size_t i = 0; i < upper.size(); ++i) {
            const std::uint32_t node = upper[i];
            b.self[k][i] = intern(lower, node);  // the node's own previous rep
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

    const double loss = step_.run(b, base_, weights_, cfg_.act, cfg_.train_base_embeddings,
                                  with_loss, pool_);

    if (cfg_.train_base_embeddings) optimizer_.step(base_, step_.base_grad());
    for (std::size_t k = 0; k < K; ++k) optimizer_.step(weights_[k], step_.weight_grads()[k]);
    optimizer_.end_step();
    return loss;
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
    apply_activation(cfg_.act, z);
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
        apply_activation(cfg_.act, z);
        double nrm = linalg::norm2(z.row(0));
        if (nrm < 1e-12) nrm = 1e-12;
        for (std::size_t j = 0; j < d; ++j) h[j] = z(0, j) / nrm;
    }
    return h;
}

}  // namespace fisone::gnn
