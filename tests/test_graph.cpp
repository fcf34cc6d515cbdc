// Tests for src/graph: bipartite construction, CSR integrity, RSS-weighted
// sampling, negative table, random walks.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "graph/sampling.hpp"
#include "sim/building_generator.hpp"
#include "util/alias_sampler.hpp"

namespace {

using namespace fisone;
using graph::bipartite_graph;

/// Tiny deterministic building: 2 floors, 3 MACs, 4 samples.
data::building tiny_building() {
    data::building b;
    b.name = "tiny";
    b.num_floors = 2;
    b.num_macs = 3;
    // floor 0 samples see macs {0,1}; floor 1 samples see {1,2}
    b.samples.push_back({{{0, -40.0}, {1, -60.0}}, 0, 0});
    b.samples.push_back({{{0, -45.0}, {1, -65.0}}, 0, 1});
    b.samples.push_back({{{1, -70.0}, {2, -50.0}}, 1, 0});
    b.samples.push_back({{{2, -55.0}}, 1, 1});
    b.labeled_sample = 0;
    b.labeled_floor = 0;
    return b;
}

TEST(bipartite_graph, node_counts_and_ids) {
    const auto b = tiny_building();
    const auto g = bipartite_graph::from_building(b);
    EXPECT_EQ(g.num_macs(), 3u);
    EXPECT_EQ(g.num_samples(), 4u);
    EXPECT_EQ(g.num_nodes(), 7u);
    EXPECT_EQ(g.num_edges(), 7u);  // total observations
    EXPECT_EQ(g.mac_node(2), 2u);
    EXPECT_EQ(g.sample_node(0), 3u);
    EXPECT_TRUE(g.is_sample_node(3));
    EXPECT_FALSE(g.is_sample_node(2));
    EXPECT_EQ(g.sample_index(4), 1u);
    EXPECT_THROW((void)g.sample_index(0), std::invalid_argument);
}

TEST(bipartite_graph, edge_weights_are_rss_plus_offset) {
    const auto b = tiny_building();
    const auto g = bipartite_graph::from_building(b, 120.0);
    // sample 0 ↔ mac 0 with RSS −40 → weight 80
    bool found = false;
    for (const graph::edge& e : g.neighbors(g.sample_node(0))) {
        if (e.neighbor == g.mac_node(0)) {
            EXPECT_DOUBLE_EQ(e.weight, 80.0);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    // symmetric edge exists with the same weight
    found = false;
    for (const graph::edge& e : g.neighbors(g.mac_node(0))) {
        if (e.neighbor == g.sample_node(0)) {
            EXPECT_DOUBLE_EQ(e.weight, 80.0);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(bipartite_graph, degrees_and_weighted_degrees) {
    const auto b = tiny_building();
    const auto g = bipartite_graph::from_building(b);
    EXPECT_EQ(g.degree(g.mac_node(1)), 3u);  // seen by samples 0,1,2
    EXPECT_EQ(g.degree(g.sample_node(3)), 1u);
    EXPECT_DOUBLE_EQ(g.weighted_degree(g.sample_node(3)), 120.0 - 55.0);
}

TEST(bipartite_graph, rejects_nonpositive_weights) {
    auto b = tiny_building();
    EXPECT_THROW((void)bipartite_graph::from_building(b, 30.0), std::invalid_argument);
}

TEST(bipartite_graph, bipartiteness_invariant) {
    const auto b = tiny_building();
    const auto g = bipartite_graph::from_building(b);
    for (std::uint32_t v = 0; v < g.num_nodes(); ++v)
        for (const graph::edge& e : g.neighbors(v))
            EXPECT_NE(g.is_sample_node(v), g.is_sample_node(e.neighbor))
                << "edge within one side of the bipartition";
}

TEST(neighbor_sampler, weighted_prefers_strong_edges) {
    const auto b = tiny_building();
    const auto g = bipartite_graph::from_building(b);
    graph::neighbor_sampler sampler(g, true);
    util::rng gen(3);
    // sample 0's neighbours: mac0 (w=80), mac1 (w=60) → mac0 ~ 57%
    std::map<std::uint32_t, int> counts;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) ++counts[sampler.sample(g.sample_node(0), gen)];
    EXPECT_NEAR(counts[g.mac_node(0)] / static_cast<double>(draws), 80.0 / 140.0, 0.02);
    EXPECT_NEAR(counts[g.mac_node(1)] / static_cast<double>(draws), 60.0 / 140.0, 0.02);
}

TEST(neighbor_sampler, uniform_ignores_weights) {
    const auto b = tiny_building();
    const auto g = bipartite_graph::from_building(b);
    graph::neighbor_sampler sampler(g, false);
    util::rng gen(3);
    std::map<std::uint32_t, int> counts;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) ++counts[sampler.sample(g.sample_node(0), gen)];
    EXPECT_NEAR(counts[g.mac_node(0)] / static_cast<double>(draws), 0.5, 0.02);
}

TEST(neighbor_sampler, sample_edge_returns_incident_edge) {
    const auto b = tiny_building();
    const auto g = bipartite_graph::from_building(b);
    graph::neighbor_sampler sampler(g, true);
    util::rng gen(5);
    for (int i = 0; i < 100; ++i) {
        const graph::edge& e = sampler.sample_edge(g.sample_node(2), gen);
        EXPECT_TRUE(e.neighbor == g.mac_node(1) || e.neighbor == g.mac_node(2));
        EXPECT_GT(e.weight, 0.0);
    }
}

TEST(neighbor_sampler, sample_many_size) {
    const auto b = tiny_building();
    const auto g = bipartite_graph::from_building(b);
    graph::neighbor_sampler sampler(g, true);
    util::rng gen(5);
    EXPECT_EQ(sampler.sample_many(g.mac_node(1), 7, gen).size(), 7u);
}

TEST(negative_table, respects_degree_exponent) {
    const auto b = tiny_building();
    const auto g = bipartite_graph::from_building(b);
    graph::negative_table table(g, 0.75);
    util::rng gen(11);
    std::map<std::uint32_t, int> counts;
    const int draws = 60000;
    for (int i = 0; i < draws; ++i) ++counts[table.sample(gen)];
    // mac1 has degree 3, sample 3 degree 1: ratio 3^0.75 ≈ 2.28
    const double ratio = counts[g.mac_node(1)] / static_cast<double>(counts[g.sample_node(3)]);
    EXPECT_NEAR(ratio, std::pow(3.0, 0.75), 0.35);
}

TEST(walks, pairs_respect_window_and_exclude_self) {
    const auto b = tiny_building();
    const auto g = bipartite_graph::from_building(b);
    graph::neighbor_sampler sampler(g, true);
    util::rng gen(7);
    graph::walk_config cfg;
    cfg.walk_length = 5;
    cfg.walks_per_node = 3;
    cfg.window = 2;
    const auto pairs = graph::generate_walk_pairs(g, sampler, cfg, gen);
    EXPECT_FALSE(pairs.empty());
    for (const auto& p : pairs) {
        EXPECT_NE(p.first, p.second);
        EXPECT_LT(p.first, g.num_nodes());
        EXPECT_LT(p.second, g.num_nodes());
    }
}

TEST(walks, isolated_nodes_are_skipped) {
    auto b = tiny_building();
    b.num_macs = 4;  // mac 3 never observed → isolated node
    const auto g = bipartite_graph::from_building(b);
    EXPECT_EQ(g.degree(g.mac_node(3)), 0u);
    graph::neighbor_sampler sampler(g, true);
    util::rng gen(7);
    const auto pairs = graph::generate_walk_pairs(g, sampler, {}, gen);
    for (const auto& p : pairs) {
        EXPECT_NE(p.first, g.mac_node(3));
        EXPECT_NE(p.second, g.mac_node(3));
    }
}

TEST(walks, rejects_degenerate_config) {
    const auto b = tiny_building();
    const auto g = bipartite_graph::from_building(b);
    graph::neighbor_sampler sampler(g, true);
    util::rng gen(7);
    graph::walk_config bad;
    bad.walk_length = 1;
    EXPECT_THROW((void)graph::generate_walk_pairs(g, sampler, bad, gen), std::invalid_argument);
    bad.walk_length = 5;
    bad.window = 0;
    EXPECT_THROW((void)graph::generate_walk_pairs(g, sampler, bad, gen), std::invalid_argument);
}

TEST(walks, pairs_connect_local_neighbourhoods) {
    // In the tiny building, sample 3 only sees mac 2; window-1 pairs from
    // its walks must start (3's node, mac2's node).
    const auto b = tiny_building();
    const auto g = bipartite_graph::from_building(b);
    graph::neighbor_sampler sampler(g, true);
    util::rng gen(13);
    graph::walk_config cfg;
    cfg.window = 1;
    cfg.walks_per_node = 2;
    const auto pairs = graph::generate_walk_pairs(g, sampler, cfg, gen);
    bool found = false;
    for (const auto& p : pairs)
        if (p.first == g.sample_node(3)) {
            EXPECT_EQ(p.second, g.mac_node(2));
            found = true;
        }
    EXPECT_TRUE(found);
}

// ---- flat alias tables against per-node ones ----

/// A simulated building: node degrees in the tens, many of them odd.
data::building simulated_building() {
    sim::building_spec spec;
    spec.num_floors = 3;
    spec.samples_per_floor = 25;
    spec.seed = 29;
    return sim::generate_building(spec).building;
}

/// The draws the flat sampler must reproduce: one `util::alias_sampler`
/// per node over its edge weights (weighted), or `rng::uniform_index` over
/// its degree (uniform).
std::size_t reference_draw(const bipartite_graph& g, const std::vector<util::alias_sampler>& tables,
                           bool weighted, std::uint32_t node, util::rng& gen) {
    return weighted ? tables[node].sample(gen) : gen.uniform_index(g.degree(node));
}

TEST(neighbor_sampler, flat_tables_draw_what_per_node_tables_draw) {
    bool degree_one = false, odd_degree = false;  // both buildings together
    for (const data::building& b : {tiny_building(), simulated_building()}) {
        const auto g = bipartite_graph::from_building(b);
        std::vector<util::alias_sampler> tables;
        for (std::uint32_t node = 0; node < g.num_nodes(); ++node) {
            std::vector<double> weights;
            for (const graph::edge& e : g.neighbors(node)) weights.push_back(e.weight);
            tables.push_back(weights.empty() ? util::alias_sampler{}
                                             : util::alias_sampler{weights});
            degree_one = degree_one || weights.size() == 1;
            odd_degree = odd_degree || (weights.size() > 2 && weights.size() % 2 == 1);
        }
        for (const bool weighted : {true, false}) {
            SCOPED_TRACE(::testing::Message() << b.name << " weighted " << weighted);
            const graph::neighbor_sampler sampler(g, weighted);
            util::rng flat(17), ref(17);
            for (int round = 0; round < 50; ++round)
                for (std::uint32_t node = 0; node < g.num_nodes(); ++node) {
                    const auto nbrs = g.neighbors(node);
                    ASSERT_EQ(&sampler.sample_edge(node, flat),
                              &nbrs[reference_draw(g, tables, weighted, node, ref)]);
                    sampler.sample_edges(node, 3, flat,
                                         [&](std::size_t, const graph::edge& e) {
                                             EXPECT_EQ(&e, &nbrs[reference_draw(
                                                               g, tables, weighted, node, ref)]);
                                         });
                }
            for (int k = 0; k < 4; ++k) EXPECT_EQ(flat(), ref()) << "generator state";
        }
    }
    EXPECT_TRUE(degree_one);
    EXPECT_TRUE(odd_degree);
}

TEST(negative_table, flat_table_draws_what_an_alias_sampler_draws) {
    for (const data::building& b : {tiny_building(), simulated_building()}) {
        const auto g = bipartite_graph::from_building(b);
        std::vector<double> weights;
        for (std::uint32_t node = 0; node < g.num_nodes(); ++node)
            weights.push_back(std::pow(static_cast<double>(g.degree(node)), 0.75));
        const util::alias_sampler reference(weights);
        const graph::negative_table table(g, 0.75);
        util::rng flat(23), ref(23);
        for (int i = 0; i < 5000; ++i) ASSERT_EQ(table.sample(flat), reference.sample(ref));
        for (int k = 0; k < 4; ++k) EXPECT_EQ(flat(), ref()) << "generator state";
    }
}

TEST(neighbor_sampler, rejects_isolated_and_unknown_nodes) {
    auto b = tiny_building();
    b.num_macs = 4;  // mac 3 never observed → isolated node
    const auto g = bipartite_graph::from_building(b);
    for (const bool weighted : {true, false}) {
        const graph::neighbor_sampler sampler(g, weighted);
        util::rng gen(3);
        const auto none = [](std::size_t, const graph::edge&) {};
        EXPECT_THROW((void)sampler.sample_edge(g.mac_node(3), gen), std::logic_error);
        EXPECT_THROW(sampler.sample_edges(g.mac_node(3), 2, gen, none), std::logic_error);
        const auto past_end = static_cast<std::uint32_t>(g.num_nodes());
        EXPECT_THROW((void)sampler.sample(past_end, gen), std::out_of_range);
        EXPECT_THROW(sampler.sample_edges(past_end, 2, gen, none), std::out_of_range);
    }
}

}  // namespace
