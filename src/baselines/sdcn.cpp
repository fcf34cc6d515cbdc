#include "sdcn.hpp"

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

/// All trainable state of the model.
struct sdcn_params {
    // autoencoder
    matrix enc_w1, enc_b1, enc_w2, enc_b2;
    matrix dec_w1, dec_b1, dec_w2, dec_b2;
    // GCN module
    matrix gcn_w1, gcn_w2, gcn_w3;
    // cluster centroids
    matrix centroids;
};

/// Tape handles of one forward pass.
struct sdcn_forward {
    var h1, z, xhat;     // autoencoder
    var gz;              // GCN softmax output (n × k)
    var q;               // Student-t assignment (n × k)
};

sdcn_forward forward(tape& t, const var x, const autodiff::row_csr& adj, bool with_gcn, bool with_q,
                     std::vector<var>* out_param_vars, std::vector<matrix*>* out_params,
                     sdcn_params& owner) {
    auto param = [&](matrix& m) {
        const var v = t.parameter(m);
        if (out_param_vars != nullptr) {
            out_param_vars->push_back(v);
            out_params->push_back(&m);
        }
        return v;
    };

    sdcn_forward f{};

    // --- autoencoder ---
    const var ew1 = param(owner.enc_w1);
    const var eb1 = param(owner.enc_b1);
    const var ew2 = param(owner.enc_w2);
    const var eb2 = param(owner.enc_b2);
    f.h1 = t.relu(t.add_broadcast_row(t.matmul(x, ew1), eb1));
    f.z = t.add_broadcast_row(t.matmul(f.h1, ew2), eb2);  // linear latent

    const var dw1 = param(owner.dec_w1);
    const var db1 = param(owner.dec_b1);
    const var dw2 = param(owner.dec_w2);
    const var db2 = param(owner.dec_b2);
    const var dh = t.relu(t.add_broadcast_row(t.matmul(f.z, dw1), db1));
    f.xhat = t.add_broadcast_row(t.matmul(dh, dw2), db2);

    if (with_gcn) {
        // --- GCN with per-layer AE interpolation (ε = 0.5) ---
        const var g1 = param(owner.gcn_w1);
        const var g2 = param(owner.gcn_w2);
        const var g3 = param(owner.gcn_w3);
        const var hg1 = t.relu(t.matmul(t.weighted_sum_rows(x, adj), g1));
        const var mix1 = t.scale(t.add(hg1, f.h1), 0.5);
        const var hg2 = t.relu(t.matmul(t.weighted_sum_rows(mix1, adj), g2));
        const var mix2 = t.scale(t.add(hg2, f.z), 0.5);
        const var logits = t.matmul(t.weighted_sum_rows(mix2, adj), g3);
        f.gz = t.softmax_rows(logits);
    }
    if (with_q) {
        const var mu = param(owner.centroids);
        const var sq = t.pairwise_sqdist(f.z, mu);
        const var kern = t.reciprocal(t.add_scalar(sq, 1.0));
        f.q = t.row_normalize(kern);
    }
    return f;
}

/// −(1/n)·Σ P ⊙ log Q — cross-entropy with constant targets (same gradient
/// as KL(P‖Q) in the trainable quantities).
var kl_to_target(tape& t, const matrix& p_target, const var q) {
    const var p_const = t.constant(p_target);
    const var ce = t.sum_all(t.hadamard(p_const, t.log_op(t.add_scalar(q, 1e-12))));
    return t.scale(ce, -1.0 / static_cast<double>(p_target.rows()));
}

}  // namespace

std::vector<int> sdcn_cluster(const data::building& b, const sdcn_config& cfg) {
    if (cfg.embedding_dim == 0 || cfg.hidden_dim == 0)
        throw std::invalid_argument("sdcn_cluster: zero dimension");

    const graph::bipartite_graph g = graph::bipartite_graph::from_building(b);
    const matrix x_data = node_features(b, g);
    const autodiff::row_csr adj = normalized_adjacency(g);
    const std::size_t m = x_data.cols();
    const std::size_t k = b.num_floors;
    util::rng gen(cfg.seed);

    sdcn_params p;
    p.enc_w1 = glorot(m, cfg.hidden_dim, gen);
    p.enc_b1 = matrix(1, cfg.hidden_dim, 0.0);
    p.enc_w2 = glorot(cfg.hidden_dim, cfg.embedding_dim, gen);
    p.enc_b2 = matrix(1, cfg.embedding_dim, 0.0);
    p.dec_w1 = glorot(cfg.embedding_dim, cfg.hidden_dim, gen);
    p.dec_b1 = matrix(1, cfg.hidden_dim, 0.0);
    p.dec_w2 = glorot(cfg.hidden_dim, m, gen);
    p.dec_b2 = matrix(1, m, 0.0);
    p.gcn_w1 = glorot(m, cfg.hidden_dim, gen);
    p.gcn_w2 = glorot(cfg.hidden_dim, cfg.embedding_dim, gen);
    p.gcn_w3 = glorot(cfg.embedding_dim, k, gen);
    p.centroids = matrix(k, cfg.embedding_dim, 0.0);

    autodiff::adam opt(autodiff::adam::config{cfg.learning_rate, 0.9, 0.999, 1e-8, 5.0});

    // --- phase 1: autoencoder pretraining ---
    for (std::size_t epoch = 0; epoch < cfg.pretrain_epochs; ++epoch) {
        tape t;
        const var x = t.constant(x_data);
        std::vector<var> vars;
        std::vector<matrix*> params;
        const sdcn_forward f = forward(t, x, adj, false, false, &vars, &params, p);
        const var diff = t.sub(f.xhat, x);
        const var loss = t.mean_all(t.hadamard(diff, diff));
        t.backward(loss);
        for (std::size_t i = 0; i < vars.size(); ++i) opt.step(*params[i], t.grad(vars[i]));
        opt.end_step();
    }

    // --- centroid initialisation: k-means on the pretrained latent ---
    {
        tape t;
        const var x = t.constant(x_data);
        const sdcn_forward f = forward(t, x, adj, false, false, nullptr, nullptr, p);
        const matrix z = t.value(f.z);
        const cluster::kmeans_result km = cluster::kmeans(z, k, gen);
        p.centroids = km.centroids;
    }

    // --- phase 2: joint training with dual self-supervision ---
    matrix p_target;
    matrix last_gz;
    for (std::size_t epoch = 0; epoch < cfg.train_epochs; ++epoch) {
        if (epoch % cfg.target_refresh == 0) {
            tape t;
            const var x = t.constant(x_data);
            const sdcn_forward f = forward(t, x, adj, false, true, nullptr, nullptr, p);
            p_target = target_distribution(t.value(f.q));
        }
        tape t;
        const var x = t.constant(x_data);
        std::vector<var> vars;
        std::vector<matrix*> params;
        const sdcn_forward f = forward(t, x, adj, true, true, &vars, &params, p);
        const var diff = t.sub(f.xhat, x);
        var loss = t.mean_all(t.hadamard(diff, diff));
        loss = t.add(loss, t.scale(kl_to_target(t, p_target, f.q), cfg.kl_q_weight));
        loss = t.add(loss, t.scale(kl_to_target(t, p_target, f.gz), cfg.kl_z_weight));
        t.backward(loss);
        for (std::size_t i = 0; i < vars.size(); ++i) opt.step(*params[i], t.grad(vars[i]));
        opt.end_step();
        last_gz = t.value(f.gz);
    }

    if (last_gz.empty()) {
        // Degenerate config (no joint epochs): fall back to k-means labels.
        tape t;
        const var x = t.constant(x_data);
        const sdcn_forward f = forward(t, x, adj, false, false, nullptr, nullptr, p);
        const cluster::kmeans_result km = cluster::kmeans(t.value(f.z), k, gen);
        std::vector<int> node_labels_km(km.assignment);
        return sample_labels(g, node_labels_km);
    }

    // --- labels: argmax of the GCN distribution on sample nodes ---
    std::vector<int> node_labels(g.num_nodes(), 0);
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        int best = 0;
        for (std::size_t c = 1; c < k; ++c)
            if (last_gz(i, c) > last_gz(i, static_cast<std::size_t>(best)))
                best = static_cast<int>(c);
        node_labels[i] = best;
    }
    return sample_labels(g, node_labels);
}

}  // namespace fisone::baselines
