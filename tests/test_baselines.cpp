// Tests for src/baselines: shared feature/adjacency helpers, the METIS-style
// partitioner, MDS, and smoke + quality checks for SDCN and DAEGC.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "baselines/daegc.hpp"
#include "baselines/graph_features.hpp"
#include "baselines/mds.hpp"
#include "baselines/metis_partitioner.hpp"
#include "baselines/sdcn.hpp"
#include "eval/metrics.hpp"
#include "graph/bipartite_graph.hpp"
#include "data/dataset_io.hpp"
#include "sim/building_generator.hpp"

namespace {

using namespace fisone;

const data::building& easy_building() {
    static const data::building b = [] {
        sim::building_spec spec;
        spec.num_floors = 3;
        spec.samples_per_floor = 50;
        spec.aps_per_floor = 12;
        spec.model.path_loss_exponent = 3.3;
        spec.floor_width_m = 60.0;
        spec.floor_depth_m = 40.0;
        spec.seed = 61;
        return sim::generate_building(spec).building;
    }();
    return b;
}

std::vector<int> truths(const data::building& b) {
    std::vector<int> t;
    t.reserve(b.samples.size());
    for (const auto& s : b.samples) t.push_back(s.true_floor);
    return t;
}

void expect_valid_labels(const std::vector<int>& labels, std::size_t n, std::size_t k) {
    ASSERT_EQ(labels.size(), n);
    for (const int l : labels) {
        EXPECT_GE(l, 0);
        EXPECT_LT(l, static_cast<int>(k));
    }
}

// ---------- shared helpers ----------

TEST(graph_features, feature_matrix_layout) {
    const auto& b = easy_building();
    const auto g = graph::bipartite_graph::from_building(b);
    const auto x = baselines::node_features(b, g);
    EXPECT_EQ(x.rows(), g.num_nodes());
    EXPECT_EQ(x.cols(), g.num_macs());
    // MAC nodes are one-hot
    for (std::size_t k = 0; k < std::min<std::size_t>(g.num_macs(), 5); ++k) {
        double sum = 0.0;
        for (std::size_t j = 0; j < g.num_macs(); ++j) sum += x(k, j);
        EXPECT_DOUBLE_EQ(sum, 1.0);
        EXPECT_DOUBLE_EQ(x(k, k), 1.0);
    }
    // sample features in [0, 1]
    for (std::size_t i = 0; i < 5; ++i) {
        const std::size_t row = g.sample_node(i);
        for (std::size_t j = 0; j < g.num_macs(); ++j) {
            EXPECT_GE(x(row, j), 0.0);
            EXPECT_LE(x(row, j), 1.0);
        }
    }
}

TEST(graph_features, normalized_adjacency_is_symmetric_operator) {
    const auto& b = easy_building();
    const auto g = graph::bipartite_graph::from_building(b);
    const auto adj = baselines::normalized_adjacency(g);
    ASSERT_EQ(adj.rows(), g.num_nodes());
    // Â entries: Â[u][v] must equal Â[v][u]
    for (std::size_t u = 0; u < 10; ++u)
        for (std::size_t t = adj.offsets[u]; t < adj.offsets[u + 1]; ++t) {
            const auto [v, w] = adj.terms[t];
            bool found = false;
            for (std::size_t tt = adj.offsets[v]; tt < adj.offsets[v + 1]; ++tt)
                if (adj.terms[tt].row == u) {
                    EXPECT_NEAR(w, adj.terms[tt].weight, 1e-12);
                    found = true;
                }
            EXPECT_TRUE(found);
        }
}

TEST(graph_features, student_t_rows_are_distributions) {
    linalg::matrix z{{0.0, 0.0}, {1.0, 1.0}, {4.0, 4.0}};
    linalg::matrix mu{{0.0, 0.0}, {4.0, 4.0}};
    const auto q = baselines::student_t_assignment(z, mu);
    for (std::size_t i = 0; i < q.rows(); ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < q.cols(); ++j) sum += q(i, j);
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
    // point 0 prefers centroid 0; point 2 prefers centroid 1
    EXPECT_GT(q(0, 0), q(0, 1));
    EXPECT_GT(q(2, 1), q(2, 0));
}

TEST(graph_features, target_distribution_sharpens) {
    linalg::matrix q{{0.7, 0.3}, {0.6, 0.4}};
    const auto p = baselines::target_distribution(q);
    for (std::size_t i = 0; i < 2; ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < 2; ++j) sum += p(i, j);
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
    EXPECT_GT(p(0, 0), q(0, 0));  // dominant assignment grows
}

// ---------- METIS ----------

TEST(metis, partitions_two_cliques_cleanly) {
    // Two 8-cliques joined by a single weak edge: the partitioner must cut
    // the bridge.
    const std::size_t n = 16;
    std::vector<std::vector<std::pair<std::uint32_t, double>>> adj(n);
    auto connect = [&adj](std::uint32_t a, std::uint32_t b, double w) {
        adj[a].emplace_back(b, w);
        adj[b].emplace_back(a, w);
    };
    for (std::uint32_t i = 0; i < 8; ++i)
        for (std::uint32_t j = i + 1; j < 8; ++j) connect(i, j, 10.0);
    for (std::uint32_t i = 8; i < 16; ++i)
        for (std::uint32_t j = i + 1; j < 16; ++j) connect(i, j, 10.0);
    connect(0, 8, 0.1);

    const auto part = baselines::metis_partition(adj, 2);
    expect_valid_labels(part, n, 2);
    for (std::size_t i = 1; i < 8; ++i) EXPECT_EQ(part[i], part[0]);
    for (std::size_t i = 9; i < 16; ++i) EXPECT_EQ(part[i], part[8]);
    EXPECT_NE(part[0], part[8]);
}

TEST(metis, respects_balance_roughly) {
    // Ring of 60 vertices into 3 parts: parts must stay within tolerance.
    const std::size_t n = 60;
    std::vector<std::vector<std::pair<std::uint32_t, double>>> adj(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        adj[i].emplace_back((i + 1) % n, 1.0);
        adj[(i + 1) % n].emplace_back(i, 1.0);
    }
    const auto part = baselines::metis_partition(adj, 3);
    std::vector<std::size_t> sizes(3, 0);
    for (const int p : part) ++sizes[static_cast<std::size_t>(p)];
    for (const std::size_t s : sizes) {
        EXPECT_GE(s, 10u);
        EXPECT_LE(s, 30u);
    }
}

TEST(metis, trivial_cases) {
    EXPECT_TRUE(baselines::metis_partition({}, 2).empty());
    std::vector<std::vector<std::pair<std::uint32_t, double>>> two(2);
    two[0].emplace_back(1, 1.0);
    two[1].emplace_back(0, 1.0);
    const auto part = baselines::metis_partition(two, 2);
    EXPECT_NE(part[0], part[1]);
    EXPECT_THROW((void)baselines::metis_partition(two, 0), std::invalid_argument);
}

TEST(metis, clusters_building_samples) {
    const auto& b = easy_building();
    const auto labels = baselines::metis_cluster(b);
    expect_valid_labels(labels, b.samples.size(), b.num_floors);
    std::set<int> used(labels.begin(), labels.end());
    EXPECT_GE(used.size(), 2u);  // not everything in one part
}

// ---------- MDS ----------

TEST(mds_baseline, embedding_shape) {
    const auto& b = easy_building();
    baselines::mds_config cfg;
    cfg.embedding_dim = 8;
    const auto emb = baselines::mds_embed(b, cfg);
    EXPECT_EQ(emb.rows(), b.samples.size());
    EXPECT_EQ(emb.cols(), 8u);
}

TEST(mds_baseline, produces_valid_clustering) {
    const auto& b = easy_building();
    const auto labels = baselines::mds_cluster(b);
    expect_valid_labels(labels, b.samples.size(), b.num_floors);
    std::set<int> used(labels.begin(), labels.end());
    EXPECT_EQ(used.size(), b.num_floors);
}

TEST(mds_baseline, suffers_the_missing_value_pathology) {
    // The paper's diagnosis (Fig. 3): filling the missing entries of the
    // samples × MACs matrix at −120 dBm makes all row vectors nearly
    // parallel, so 1−cosine distances collapse. Verify the effect is real:
    // the mean pairwise distance must be tiny compared to the 0..2 range.
    const auto& b = easy_building();
    const auto rss = fisone::data::to_rss_matrix(b, -120.0);
    fisone::util::rng gen(4);
    double total = 0.0;
    const int draws = 500;
    for (int t = 0; t < draws; ++t) {
        const std::size_t i = gen.uniform_index(rss.rows());
        const std::size_t j = gen.uniform_index(rss.rows());
        total += 1.0 - fisone::linalg::cosine_similarity(rss.row(i), rss.row(j));
    }
    EXPECT_LT(total / draws, 0.1);
}

// ---------- SDCN / DAEGC ----------

TEST(sdcn, smoke_and_quality) {
    const auto& b = easy_building();
    baselines::sdcn_config cfg;
    cfg.pretrain_epochs = 8;
    cfg.train_epochs = 12;
    cfg.seed = 3;
    const auto labels = baselines::sdcn_cluster(b, cfg);
    expect_valid_labels(labels, b.samples.size(), b.num_floors);
    EXPECT_GT(eval::adjusted_rand_index(labels, truths(b)), 0.15);
}

TEST(sdcn, rejects_zero_dims) {
    baselines::sdcn_config cfg;
    cfg.embedding_dim = 0;
    EXPECT_THROW((void)baselines::sdcn_cluster(easy_building(), cfg), std::invalid_argument);
}

TEST(daegc, smoke_and_quality) {
    const auto& b = easy_building();
    baselines::daegc_config cfg;  // default (tuned) schedule
    cfg.seed = 3;
    const auto labels = baselines::daegc_cluster(b, cfg);
    expect_valid_labels(labels, b.samples.size(), b.num_floors);
    EXPECT_GT(eval::adjusted_rand_index(labels, truths(b)), 0.15);
}

TEST(daegc, rejects_zero_dims) {
    baselines::daegc_config cfg;
    cfg.hidden_dim = 0;
    EXPECT_THROW((void)baselines::daegc_cluster(easy_building(), cfg), std::invalid_argument);
}

TEST(baselines, deterministic_per_seed) {
    const auto& b = easy_building();
    baselines::sdcn_config cfg;
    cfg.pretrain_epochs = 3;
    cfg.train_epochs = 4;
    EXPECT_EQ(baselines::sdcn_cluster(b, cfg), baselines::sdcn_cluster(b, cfg));
    EXPECT_EQ(baselines::metis_cluster(b), baselines::metis_cluster(b));
    EXPECT_EQ(baselines::mds_cluster(b), baselines::mds_cluster(b));
}

}  // namespace
