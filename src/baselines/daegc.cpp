#include "daegc.hpp"

#include <cmath>
#include <stdexcept>

#include "autodiff/optimizer.hpp"
#include "autodiff/tape.hpp"
#include "cluster/kmeans.hpp"
#include "graph/bipartite_graph.hpp"
#include "graph_features.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace fisone::baselines {

namespace {

using autodiff::tape;
using autodiff::var;
using linalg::matrix;

matrix glorot(std::size_t rows, std::size_t cols, util::rng& gen) {
    matrix w(rows, cols);
    const double bound = std::sqrt(6.0 / static_cast<double>(rows + cols));
    for (double& x : w.flat()) x = gen.uniform(-bound, bound);
    return w;
}

/// RSS-derived attention operator: row-normalised f(RSS) transition with a
/// self-loop of weight equal to the node's mean incident weight.
autodiff::row_csr attention_adjacency(const graph::bipartite_graph& g) {
    autodiff::row_csr rows;
    rows.offsets.reserve(g.num_nodes() + 1);
    rows.terms.reserve(g.num_nodes() + 2 * g.num_edges());
    for (std::uint32_t v = 0; v < g.num_nodes(); ++v) {
        const auto nbrs = g.neighbors(v);
        double total = 0.0;
        for (const graph::edge& e : nbrs) total += e.weight;
        const double self_w = nbrs.empty() ? 1.0 : total / static_cast<double>(nbrs.size());
        const double denom = total + self_w;
        rows.terms.push_back({v, self_w / denom});
        for (const graph::edge& e : nbrs) rows.terms.push_back({e.neighbor, e.weight / denom});
        rows.end_row();
    }
    return rows;
}

struct daegc_params {
    matrix w1, w2;      // attention-encoder layers
    matrix centroids;   // trainable cluster centres
};

/// Encoder forward: z = Â_att · relu(Â_att · X · W1) · W2 (linear output).
var encode(tape& t, const var x, const autodiff::row_csr& att, const var w1, const var w2) {
    const var h1 = t.relu(t.matmul(t.weighted_sum_rows(x, att), w1));
    return t.matmul(t.weighted_sum_rows(h1, att), w2);
}

}  // namespace

std::vector<int> daegc_cluster(const data::building& b, const daegc_config& cfg) {
    if (cfg.embedding_dim == 0 || cfg.hidden_dim == 0)
        throw std::invalid_argument("daegc_cluster: zero dimension");

    const graph::bipartite_graph g = graph::bipartite_graph::from_building(b);
    const matrix x_data = node_features(b, g);
    const autodiff::row_csr att = attention_adjacency(g);
    const std::size_t m = x_data.cols();
    const std::size_t n = g.num_nodes();
    const std::size_t k = b.num_floors;
    util::rng gen(cfg.seed);

    // Flat edge list for reconstruction sampling.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::uint32_t v = 0; v < n; ++v)
        for (const graph::edge& e : g.neighbors(v))
            if (v < e.neighbor) edges.emplace_back(v, e.neighbor);
    if (edges.empty()) throw std::invalid_argument("daegc_cluster: graph has no edges");

    daegc_params p;
    p.w1 = glorot(m, cfg.hidden_dim, gen);
    p.w2 = glorot(cfg.hidden_dim, cfg.embedding_dim, gen);
    p.centroids = matrix(k, cfg.embedding_dim, 0.0);

    autodiff::adam opt(autodiff::adam::config{cfg.learning_rate, 0.9, 0.999, 1e-8, 5.0});

    // Reconstruction loss over sampled edges + equally many negatives.
    auto reconstruction_loss = [&](tape& t, const var z) {
        const std::size_t batch = std::min(cfg.edge_batch, edges.size());
        std::vector<std::size_t> pos_a(batch), pos_b(batch), neg_a(batch), neg_b(batch);
        for (std::size_t i = 0; i < batch; ++i) {
            const auto& [u, v] = edges[gen.uniform_index(edges.size())];
            pos_a[i] = u;
            pos_b[i] = v;
            neg_a[i] = gen.uniform_index(n);
            neg_b[i] = gen.uniform_index(n);
        }
        const var pos =
            t.row_dot(t.gather_rows(z, std::move(pos_a)), t.gather_rows(z, std::move(pos_b)));
        const var neg =
            t.row_dot(t.gather_rows(z, std::move(neg_a)), t.gather_rows(z, std::move(neg_b)));
        const var loss_pos = t.negate(t.mean_all(t.log_sigmoid(pos)));
        const var loss_neg = t.negate(t.mean_all(t.log_sigmoid(t.negate(neg))));
        return t.add(loss_pos, loss_neg);
    };

    // --- phase 1: reconstruction-only pretraining ---
    for (std::size_t epoch = 0; epoch < cfg.pretrain_epochs; ++epoch) {
        tape t;
        const var x = t.constant(x_data);
        const var w1 = t.parameter(p.w1);
        const var w2 = t.parameter(p.w2);
        const var z = encode(t, x, att, w1, w2);
        const var loss = reconstruction_loss(t, z);
        t.backward(loss);
        opt.step(p.w1, t.grad(w1));
        opt.step(p.w2, t.grad(w2));
        opt.end_step();
    }

    // --- centroid init: k-means on the pretrained embeddings ---
    {
        tape t;
        const var x = t.constant(x_data);
        const var z = encode(t, x, att, t.constant(p.w1), t.constant(p.w2));
        p.centroids = cluster::kmeans(t.value(z), k, gen).centroids;
    }

    // --- phase 2: joint self-training ---
    matrix p_target;
    matrix last_q;
    for (std::size_t epoch = 0; epoch < cfg.train_epochs; ++epoch) {
        if (epoch % cfg.target_refresh == 0) {
            tape t;
            const var x = t.constant(x_data);
            const var z = encode(t, x, att, t.constant(p.w1), t.constant(p.w2));
            p_target = target_distribution(student_t_assignment(t.value(z), p.centroids));
        }
        tape t;
        const var x = t.constant(x_data);
        const var w1 = t.parameter(p.w1);
        const var w2 = t.parameter(p.w2);
        const var mu = t.parameter(p.centroids);
        const var z = encode(t, x, att, w1, w2);

        const var sq = t.pairwise_sqdist(z, mu);
        const var q = t.row_normalize(t.reciprocal(t.add_scalar(sq, 1.0)));
        const var p_const = t.constant(p_target);
        const var ce = t.sum_all(t.hadamard(p_const, t.log_op(t.add_scalar(q, 1e-12))));
        const var kl = t.scale(ce, -1.0 / static_cast<double>(n));

        const var loss = t.add(reconstruction_loss(t, z), t.scale(kl, cfg.cluster_weight));
        t.backward(loss);
        opt.step(p.w1, t.grad(w1));
        opt.step(p.w2, t.grad(w2));
        opt.step(p.centroids, t.grad(mu));
        opt.end_step();
        last_q = t.value(q);
    }

    if (last_q.empty()) {
        tape t;
        const var x = t.constant(x_data);
        const var z = encode(t, x, att, t.constant(p.w1), t.constant(p.w2));
        const std::vector<int> km = cluster::kmeans(t.value(z), k, gen).assignment;
        return sample_labels(g, km);
    }

    // --- labels: argmax of Q on sample nodes ---
    std::vector<int> node_labels(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        int best = 0;
        for (std::size_t c = 1; c < k; ++c)
            if (last_q(i, c) > last_q(i, static_cast<std::size_t>(best)))
                best = static_cast<int>(c);
        node_labels[i] = best;
    }
    return sample_labels(g, node_labels);
}

}  // namespace fisone::baselines
