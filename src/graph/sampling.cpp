#include "sampling.hpp"

#include <cmath>
#include <span>

namespace fisone::graph {

neighbor_sampler::neighbor_sampler(const bipartite_graph& g, bool weighted)
    : weighted_(weighted), nodes_(g.num_nodes()) {
    std::size_t column = 0;
    for (std::uint32_t node = 0; node < g.num_nodes(); ++node) {
        const auto nbrs = g.neighbors(node);
        node_table& t = nodes_[node];
        t.edges = nbrs.data();
        if (!nbrs.empty()) t.degree = util::rng::index_range(nbrs.size());
        t.first_column = column;
        column += nbrs.size();
    }
    if (!weighted_) return;
    columns_.resize(column);
    util::alias_builder builder;
    std::vector<double> weights;
    for (const node_table& t : nodes_) {
        if (t.degree.size() == 0) continue;
        weights.clear();
        for (std::size_t i = 0; i < t.degree.size(); ++i) weights.push_back(t.edges[i].weight);
        builder.build(weights, std::span(columns_).subspan(t.first_column, t.degree.size()));
    }
}

std::vector<std::uint32_t> neighbor_sampler::sample_many(std::uint32_t node, std::size_t count,
                                                         util::rng& gen) const {
    std::vector<std::uint32_t> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) out.push_back(sample(node, gen));
    return out;
}

negative_table::negative_table(const bipartite_graph& g, double exponent)
    : columns_(g.num_nodes()) {
    std::vector<double> weights(g.num_nodes());
    for (std::uint32_t node = 0; node < g.num_nodes(); ++node)
        weights[node] = std::pow(static_cast<double>(g.degree(node)), exponent);
    util::alias_builder().build(weights, columns_);
    range_ = util::rng::index_range(columns_.size());
}

std::vector<walk_pair> generate_walk_pairs(const bipartite_graph& g,
                                           const neighbor_sampler& sampler,
                                           const walk_config& cfg, util::rng& gen) {
    if (cfg.walk_length < 2)
        throw std::invalid_argument("generate_walk_pairs: walk_length must be >= 2");
    if (cfg.window == 0) throw std::invalid_argument("generate_walk_pairs: window must be >= 1");

    std::vector<walk_pair> pairs;
    pairs.reserve(g.num_nodes() * cfg.walks_per_node * cfg.walk_length);
    std::vector<std::uint32_t> walk(cfg.walk_length);

    for (std::uint32_t start = 0; start < g.num_nodes(); ++start) {
        if (g.degree(start) == 0) continue;  // isolated nodes contribute no pairs
        for (std::size_t w = 0; w < cfg.walks_per_node; ++w) {
            walk[0] = start;
            for (std::size_t step = 1; step < cfg.walk_length; ++step)
                walk[step] = sampler.sample(walk[step - 1], gen);
            for (std::size_t i = 0; i < cfg.walk_length; ++i)
                for (std::size_t j = i + 1; j < cfg.walk_length && j - i <= cfg.window; ++j)
                    if (walk[i] != walk[j]) pairs.push_back(walk_pair{walk[i], walk[j]});
        }
    }
    return pairs;
}

}  // namespace fisone::graph
