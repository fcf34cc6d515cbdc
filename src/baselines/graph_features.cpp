#include "graph_features.hpp"

#include <cmath>
#include <stdexcept>

namespace fisone::baselines {

linalg::matrix node_features(const data::building& b, const graph::bipartite_graph& g) {
    const std::size_t m = g.num_macs();
    linalg::matrix x(g.num_nodes(), m, 0.0);

    // MAC nodes: one-hot of their own id.
    for (std::size_t k = 0; k < m; ++k) x(k, k) = 1.0;

    // Sample nodes: RSS readings scaled to (0, 1].
    for (std::size_t i = 0; i < b.samples.size(); ++i) {
        const std::size_t row = g.sample_node(i);
        for (const data::rf_observation& o : b.samples[i].observations) {
            const double scaled = (o.rss_dbm + 120.0) / 120.0;
            if (scaled > x(row, o.mac_id)) x(row, o.mac_id) = scaled;
        }
    }
    return x;
}

autodiff::row_csr normalized_adjacency(const graph::bipartite_graph& g) {
    const std::size_t n = g.num_nodes();
    std::vector<double> degree(n, 1.0);  // +1 for the self-loop
    for (std::uint32_t v = 0; v < n; ++v) degree[v] += static_cast<double>(g.degree(v));

    autodiff::row_csr rows;
    rows.offsets.reserve(n + 1);
    rows.terms.reserve(n + 2 * g.num_edges());
    for (std::uint32_t v = 0; v < n; ++v) {
        const double dv = std::sqrt(degree[v]);
        rows.terms.push_back({v, 1.0 / (dv * dv)});  // self-loop
        for (const graph::edge& e : g.neighbors(v))
            rows.terms.push_back({e.neighbor, 1.0 / (dv * std::sqrt(degree[e.neighbor]))});
        rows.end_row();
    }
    return rows;
}

linalg::matrix student_t_assignment(const linalg::matrix& z, const linalg::matrix& centroids) {
    if (z.cols() != centroids.cols())
        throw std::invalid_argument("student_t_assignment: dimension mismatch");
    const std::size_t n = z.rows();
    const std::size_t k = centroids.rows();
    linalg::matrix q(n, k);
    for (std::size_t i = 0; i < n; ++i) {
        double total = 0.0;
        for (std::size_t c = 0; c < k; ++c) {
            const double sq = linalg::squared_distance(z.row(i), centroids.row(c));
            q(i, c) = 1.0 / (1.0 + sq);
            total += q(i, c);
        }
        for (std::size_t c = 0; c < k; ++c) q(i, c) /= total;
    }
    return q;
}

linalg::matrix target_distribution(const linalg::matrix& q) {
    const std::size_t n = q.rows();
    const std::size_t k = q.cols();
    std::vector<double> freq(k, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t c = 0; c < k; ++c) freq[c] += q(i, c);

    linalg::matrix p(n, k);
    for (std::size_t i = 0; i < n; ++i) {
        double total = 0.0;
        for (std::size_t c = 0; c < k; ++c) {
            p(i, c) = q(i, c) * q(i, c) / (freq[c] > 0.0 ? freq[c] : 1.0);
            total += p(i, c);
        }
        for (std::size_t c = 0; c < k; ++c) p(i, c) /= total > 0.0 ? total : 1.0;
    }
    return p;
}

std::vector<int> sample_labels(const graph::bipartite_graph& g,
                               const std::vector<int>& node_labels) {
    if (node_labels.size() != g.num_nodes())
        throw std::invalid_argument("sample_labels: node_labels size mismatch");
    std::vector<int> out(g.num_samples());
    for (std::size_t i = 0; i < g.num_samples(); ++i) out[i] = node_labels[g.sample_node(i)];
    return out;
}

}  // namespace fisone::baselines
