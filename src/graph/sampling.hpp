#pragma once

/// \file sampling.hpp
/// Stochastic machinery on the bipartite RF graph:
///  - RSS-proportional neighbour sampling (paper §III-B: Pr(u) =
///    f(RSS_uv) / Σ f(RSS_u'v)), with a uniform variant for the
///    "without attention" ablation of Fig. 8(a,b);
///  - the degree^(3/4) negative-sampling table of the unsupervised loss;
///  - fixed-length weighted random walks (length 5 per the paper) and
///    their co-occurring positive pairs.

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bipartite_graph.hpp"
#include "util/alias_sampler.hpp"
#include "util/rng.hpp"

namespace fisone::graph {

/// O(1) per-draw neighbour sampler. The alias tables are flat: one
/// `util::alias_column` per CSR half-edge, each node's run in its CSR
/// order, beside one record per node (its edges and its degree as a
/// prepared `rng::index_range`). A draw makes exactly the raw draws a
/// per-node `util::alias_sampler` (or, uniform, one
/// `rng::uniform_index(degree)`) would, and returns the same edge.
class neighbor_sampler {
public:
    /// \param weighted true → Pr(neighbour) ∝ f(RSS) (the RF-GNN attention
    ///        sampling); false → uniform (ablation).
    neighbor_sampler(const bipartite_graph& g, bool weighted);

    /// Draw one neighbour of \p node.
    /// \throws std::out_of_range for a node not in the graph,
    ///         std::logic_error on an isolated node.
    [[nodiscard]] std::uint32_t sample(std::uint32_t node, util::rng& gen) const {
        return sample_edge(node, gen).neighbor;
    }

    /// Draw one incident *edge* of \p node (neighbour id + its f(RSS)
    /// weight, needed by the attention aggregator). Throws as `sample`.
    [[nodiscard]] const edge& sample_edge(std::uint32_t node, util::rng& gen) const {
        const edge* drawn = nullptr;
        sample_edges(node, 1, gen, [&drawn](std::size_t, const edge& e) { drawn = &e; });
        return *drawn;
    }

    /// Draw \p count incident edges of \p node with replacement, calling
    /// \p each(i, edge) for the i-th: the draws of \p count `sample_edge`
    /// calls, in order, with the node's table read once. Throws as
    /// `sample`.
    template <class Each>
    void sample_edges(std::uint32_t node, std::size_t count, util::rng& gen, Each&& each) const {
        if (node >= nodes_.size()) throw std::out_of_range("neighbor_sampler: node out of range");
        const node_table t = nodes_[node];
        if (t.degree.size() == 0) throw std::logic_error("neighbor_sampler: isolated node");
        if (weighted_) {
            const util::alias_column* const columns = columns_.data() + t.first_column;
            for (std::size_t i = 0; i < count; ++i)
                each(i, t.edges[util::draw_alias(columns, t.degree, gen)]);
        } else {
            for (std::size_t i = 0; i < count; ++i) each(i, t.edges[gen.uniform_index(t.degree)]);
        }
    }

    /// Draw \p count neighbours with replacement (GraphSAGE-style).
    [[nodiscard]] std::vector<std::uint32_t> sample_many(std::uint32_t node, std::size_t count,
                                                         util::rng& gen) const;

    [[nodiscard]] bool weighted() const noexcept { return weighted_; }

private:
    struct node_table {
        util::rng::index_range degree;  ///< empty for an isolated node
        const edge* edges = nullptr;    ///< the node's CSR run in the graph
        std::size_t first_column = 0;   ///< the run's offset in `columns_` (weighted only)
    };

    bool weighted_;
    std::vector<node_table> nodes_;
    std::vector<util::alias_column> columns_;  ///< per half-edge; only built when weighted
};

/// Alias table over all nodes with Pr(z) ∝ degree(z)^(3/4) — the paper's
/// negative-sampling distribution (following word2vec / LINE).
class negative_table {
public:
    /// \throws std::invalid_argument when no node has an edge.
    explicit negative_table(const bipartite_graph& g, double exponent = 0.75);

    /// Draw one negative node: the raw draws and result of a
    /// `util::alias_sampler` over the same weights.
    [[nodiscard]] std::uint32_t sample(util::rng& gen) const {
        return util::draw_alias(columns_.data(), range_, gen);
    }

private:
    std::vector<util::alias_column> columns_;
    util::rng::index_range range_;  ///< [0, num_nodes)
};

/// A positive training pair: two nodes co-occurring on a random walk.
struct walk_pair {
    std::uint32_t first = 0;
    std::uint32_t second = 0;
};

/// Configuration for walk generation.
struct walk_config {
    std::size_t walk_length = 5;     ///< steps per walk (paper: five)
    std::size_t walks_per_node = 6;  ///< walks started from every node
    std::size_t window = 2;          ///< co-occurrence window within a walk
};

/// Generate weighted random walks from every node and emit co-occurring
/// pairs within the window. Steps follow the same distribution as the
/// neighbour sampler passed in (weighted or uniform).
[[nodiscard]] std::vector<walk_pair> generate_walk_pairs(const bipartite_graph& g,
                                                         const neighbor_sampler& sampler,
                                                         const walk_config& cfg, util::rng& gen);

}  // namespace fisone::graph
