// Tests for src/cluster: UPGMA (NN-chain + linkage cutting) and k-means.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "cluster/hierarchical.hpp"
#include "cluster/kmeans.hpp"
#include "eval/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace fisone;
using linalg::matrix;

/// k well-separated Gaussian blobs in `dim` dimensions.
matrix make_blobs(std::size_t k, std::size_t per_cluster, std::size_t dim, double spread,
                  util::rng& gen, std::vector<int>* truth = nullptr) {
    matrix pts(k * per_cluster, dim);
    for (std::size_t c = 0; c < k; ++c) {
        std::vector<double> center(dim);
        for (double& x : center) x = gen.uniform(-50.0, 50.0);
        for (std::size_t i = 0; i < per_cluster; ++i) {
            const std::size_t row = c * per_cluster + i;
            for (std::size_t j = 0; j < dim; ++j)
                pts(row, j) = center[j] + gen.normal(0.0, spread);
            if (truth != nullptr) truth->push_back(static_cast<int>(c));
        }
    }
    return pts;
}

// ---------- UPGMA ----------

TEST(upgma, linkage_has_n_minus_1_merges) {
    util::rng gen(1);
    const matrix pts = make_blobs(3, 10, 4, 0.5, gen);
    const auto merges = cluster::upgma_linkage(pts);
    EXPECT_EQ(merges.size(), pts.rows() - 1);
}

TEST(upgma, separates_well_separated_blobs) {
    util::rng gen(2);
    std::vector<int> truth;
    const matrix pts = make_blobs(4, 25, 8, 0.5, gen, &truth);
    const auto labels = cluster::upgma_cluster(pts, 4);
    EXPECT_DOUBLE_EQ(eval::adjusted_rand_index(labels, truth), 1.0);
}

TEST(upgma, label_range_and_coverage) {
    util::rng gen(3);
    const matrix pts = make_blobs(3, 15, 4, 2.0, gen);
    const auto labels = cluster::upgma_cluster(pts, 5);
    std::set<int> seen(labels.begin(), labels.end());
    EXPECT_EQ(seen.size(), 5u);
    for (const int l : labels) {
        EXPECT_GE(l, 0);
        EXPECT_LT(l, 5);
    }
}

TEST(upgma, two_points) {
    matrix pts{{0.0, 0.0}, {1.0, 1.0}};
    const auto merges = cluster::upgma_linkage(pts);
    ASSERT_EQ(merges.size(), 1u);
    EXPECT_NEAR(merges[0].height, std::sqrt(2.0), 1e-6);  // float-precision linkage storage
    const auto labels = cluster::cut_linkage(merges, 2, 1);
    EXPECT_EQ(labels[0], labels[1]);
}

TEST(upgma, singleton_input) {
    matrix pts{{1.0, 2.0}};
    EXPECT_TRUE(cluster::upgma_linkage(pts).empty());
    EXPECT_EQ(cluster::upgma_cluster(pts, 1), std::vector<int>{0});
}

TEST(upgma, average_linkage_heights_are_exact_on_line) {
    // Points 0, 1, 10 on a line: merge (0,1) at 1, then {0,1} with {10} at
    // average distance (10 + 9)/2 = 9.5.
    matrix pts{{0.0}, {1.0}, {10.0}};
    const auto merges = cluster::upgma_linkage(pts);
    ASSERT_EQ(merges.size(), 2u);
    EXPECT_NEAR(merges[0].height, 1.0, 1e-9);
    EXPECT_NEAR(merges[1].height, 9.5, 1e-6);  // float storage
}

TEST(upgma, cut_at_n_gives_singletons) {
    util::rng gen(4);
    const matrix pts = make_blobs(2, 5, 3, 1.0, gen);
    const auto merges = cluster::upgma_linkage(pts);
    const auto labels = cluster::cut_linkage(merges, 10, 10);
    std::set<int> seen(labels.begin(), labels.end());
    EXPECT_EQ(seen.size(), 10u);
}

TEST(upgma, cut_validation) {
    util::rng gen(5);
    const matrix pts = make_blobs(2, 5, 3, 1.0, gen);
    const auto merges = cluster::upgma_linkage(pts);
    EXPECT_THROW((void)cluster::cut_linkage(merges, 10, 0), std::invalid_argument);
    EXPECT_THROW((void)cluster::cut_linkage(merges, 10, 11), std::invalid_argument);
    EXPECT_THROW((void)cluster::upgma_linkage(matrix{}), std::invalid_argument);
}

TEST(upgma, deterministic) {
    util::rng gen(6);
    const matrix pts = make_blobs(3, 20, 4, 1.0, gen);
    EXPECT_EQ(cluster::upgma_cluster(pts, 3), cluster::upgma_cluster(pts, 3));
}

TEST(upgma, handles_duplicate_points) {
    matrix pts(6, 2, 0.0);
    for (std::size_t i = 3; i < 6; ++i) {
        pts(i, 0) = 5.0;
        pts(i, 1) = 5.0;
    }
    const auto labels = cluster::upgma_cluster(pts, 2);
    EXPECT_EQ(labels[0], labels[1]);
    EXPECT_EQ(labels[1], labels[2]);
    EXPECT_EQ(labels[3], labels[4]);
    EXPECT_NE(labels[0], labels[3]);
}

// ---------- k-means ----------

TEST(kmeans, separates_blobs) {
    util::rng gen(7);
    std::vector<int> truth;
    const matrix pts = make_blobs(3, 40, 5, 0.5, gen, &truth);
    const auto result = cluster::kmeans(pts, 3, gen);
    EXPECT_DOUBLE_EQ(eval::adjusted_rand_index(result.assignment, truth), 1.0);
    EXPECT_EQ(result.centroids.rows(), 3u);
}

TEST(kmeans, inertia_decreases_with_more_clusters) {
    util::rng gen(8);
    const matrix pts = make_blobs(4, 30, 4, 3.0, gen);
    const double inertia2 = cluster::kmeans(pts, 2, gen).inertia;
    const double inertia8 = cluster::kmeans(pts, 8, gen).inertia;
    EXPECT_LT(inertia8, inertia2);
}

TEST(kmeans, all_clusters_non_empty) {
    util::rng gen(9);
    const matrix pts = make_blobs(2, 30, 3, 1.0, gen);
    const auto result = cluster::kmeans(pts, 6, gen);
    std::set<int> seen(result.assignment.begin(), result.assignment.end());
    EXPECT_EQ(seen.size(), 6u);
}

TEST(kmeans, k_equals_n) {
    util::rng gen(10);
    const matrix pts = make_blobs(1, 5, 2, 3.0, gen);
    const auto result = cluster::kmeans(pts, 5, gen);
    std::set<int> seen(result.assignment.begin(), result.assignment.end());
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_NEAR(result.inertia, 0.0, 1e-9);
}

TEST(kmeans, identical_points) {
    matrix pts(8, 3, 2.5);
    util::rng gen(11);
    const auto result = cluster::kmeans(pts, 2, gen);
    EXPECT_EQ(result.assignment.size(), 8u);
    EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(kmeans, validation) {
    util::rng gen(12);
    const matrix pts = make_blobs(1, 4, 2, 1.0, gen);
    EXPECT_THROW((void)cluster::kmeans(pts, 0, gen), std::invalid_argument);
    EXPECT_THROW((void)cluster::kmeans(pts, 5, gen), std::invalid_argument);
    EXPECT_THROW((void)cluster::kmeans(matrix(3, 0), 2, gen), std::invalid_argument);
}

// ---------- UPGMA vs k-means on elongated clusters ----------

TEST(clustering, upgma_separates_anisotropic_strips) {
    // Two moderately elongated strips whose within-strip average distance is
    // clearly below the across-strip distance: average linkage must recover
    // them exactly. (The pipeline-level hierarchical-vs-k-means comparison
    // of paper Fig. 8(c,d) is bench_paper_claims' F8-upgma-* claims.)
    util::rng gen(13);
    const std::size_t per = 60;
    matrix pts(2 * per, 2);
    std::vector<int> truth;
    for (std::size_t i = 0; i < per; ++i) {
        pts(i, 0) = gen.uniform(0.0, 10.0);
        pts(i, 1) = gen.normal(0.0, 0.3);
        truth.push_back(0);
    }
    for (std::size_t i = 0; i < per; ++i) {
        pts(per + i, 0) = gen.uniform(0.0, 10.0);
        pts(per + i, 1) = 9.0 + gen.normal(0.0, 0.3);
        truth.push_back(1);
    }
    const double upgma_ari =
        eval::adjusted_rand_index(cluster::upgma_cluster(pts, 2), truth);
    EXPECT_DOUBLE_EQ(upgma_ari, 1.0);
}

}  // namespace
