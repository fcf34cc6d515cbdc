// End-to-end tests for src/core: the full FIS-ONE pipeline on simulated
// buildings, both label protocols, ablation switches, and the baseline
// adapter.

#include <gtest/gtest.h>

#include <set>

#include "core/fis_one.hpp"
#include "eval/metrics.hpp"
#include "service/profiles.hpp"
#include "sim/building_generator.hpp"
#include "util/hash.hpp"

namespace {

using namespace fisone;

data::building make_building(std::size_t floors, std::uint64_t seed,
                             std::size_t samples_per_floor = 60) {
    sim::building_spec spec;
    spec.num_floors = floors;
    spec.samples_per_floor = samples_per_floor;
    spec.aps_per_floor = 12;
    spec.model.path_loss_exponent = 3.3;
    spec.floor_width_m = 60.0;
    spec.floor_depth_m = 40.0;
    spec.seed = seed;
    return sim::generate_building(spec).building;
}

core::fis_one_config fast_config(std::uint64_t seed = 7) {
    core::fis_one_config cfg;
    cfg.gnn.embedding_dim = 16;
    cfg.gnn.epochs = 6;
    cfg.gnn.walks.walks_per_node = 3;
    cfg.gnn.seed = seed;
    cfg.seed = seed;
    return cfg;
}

TEST(fis_one, end_to_end_high_quality_on_easy_building) {
    const auto b = make_building(3, 71);
    const auto r = core::fis_one(fast_config()).run(b);
    EXPECT_GT(r.ari, 0.6);
    EXPECT_GT(r.nmi, 0.6);
    EXPECT_GT(r.edit_distance, 0.66);
    EXPECT_FALSE(r.ambiguous);
}

TEST(fis_one, result_structure_is_consistent) {
    const auto b = make_building(4, 72);
    const auto r = core::fis_one(fast_config()).run(b);

    ASSERT_EQ(r.assignment.size(), b.samples.size());
    ASSERT_EQ(r.predicted_floor.size(), b.samples.size());
    ASSERT_EQ(r.cluster_to_floor.size(), b.num_floors);
    EXPECT_EQ(r.embeddings.rows(), b.samples.size());

    // cluster_to_floor is a permutation of 0..N-1
    std::set<int> floors(r.cluster_to_floor.begin(), r.cluster_to_floor.end());
    EXPECT_EQ(floors.size(), b.num_floors);
    EXPECT_EQ(*floors.begin(), 0);

    // predictions follow the mapping
    for (std::size_t i = 0; i < b.samples.size(); ++i) {
        if (i == b.labeled_sample) continue;
        ASSERT_GE(r.assignment[i], 0);
        EXPECT_EQ(r.predicted_floor[i],
                  r.cluster_to_floor[static_cast<std::size_t>(r.assignment[i])]);
    }
    // the labeled sample keeps its known label
    EXPECT_EQ(r.predicted_floor[b.labeled_sample], b.labeled_floor);
}

TEST(fis_one, labeled_cluster_is_anchored_to_floor_zero) {
    const auto b = make_building(4, 73);
    const auto r = core::fis_one(fast_config()).run(b);
    const int labeled_cluster = r.assignment[b.labeled_sample];
    ASSERT_GE(labeled_cluster, 0);
    EXPECT_EQ(r.cluster_to_floor[static_cast<std::size_t>(labeled_cluster)], 0);
}

TEST(fis_one, deterministic_given_seed) {
    const auto b = make_building(3, 74);
    const auto r1 = core::fis_one(fast_config(11)).run(b);
    const auto r2 = core::fis_one(fast_config(11)).run(b);
    EXPECT_EQ(r1.assignment, r2.assignment);
    EXPECT_EQ(r1.cluster_to_floor, r2.cluster_to_floor);
    EXPECT_DOUBLE_EQ(r1.ari, r2.ari);
}

// Golden bits: one fixed quick-profile building, hashed over everything
// the pipeline derives from the embedding. A kernel, tiling, work-split
// or numerics (linalg/numerics.hpp) change that moves a single bit fails
// here, at every thread count. 6 floors × 80 scans is large enough
// that the 4-thread run puts the tape's forward products on the pool.
TEST(fis_one, quick_profile_golden_digest_at_every_thread_count) {
    const auto b = make_building(6, 77, 80);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        core::fis_one_config cfg = service::quick_profile(7, 1).pipeline;
        cfg.num_threads = threads;
        const auto r = core::fis_one(cfg).run(b);
        util::fnv1a64 h;
        h.size(r.embeddings.rows());
        h.size(r.embeddings.cols());
        for (const double x : r.embeddings.flat()) h.f64(x);
        for (const int c : r.assignment) h.i32(c);
        for (const int f : r.cluster_to_floor) h.i32(f);
        EXPECT_EQ(h.digest(), 0x23f5a427b7832ea6ULL) << "num_threads " << threads;
    }
}

// The quick profile's fingerprint under "fisone-config-fingerprint/v1",
// before tanh and exp moved in-tree. A result_cache spill keyed by it holds
// results of the old numerics and must miss now.
TEST(fis_one, numerics_version_retires_v1_fingerprints) {
    const core::fis_one_config cfg = service::quick_profile(1, 1).pipeline;
    EXPECT_NE(core::config_fingerprint(cfg), 0x4d6a37c01f0bf7c9ULL);
}

TEST(fis_one, kmeans_variant_runs) {
    const auto b = make_building(3, 75);
    auto cfg = fast_config();
    cfg.clustering = core::clustering_algorithm::kmeans;
    const auto r = core::fis_one(cfg).run(b);
    EXPECT_GT(r.ari, 0.4);
}

TEST(fis_one, two_opt_variant_matches_exact_on_small_buildings) {
    const auto b = make_building(4, 76);
    auto exact_cfg = fast_config(13);
    auto approx_cfg = fast_config(13);
    approx_cfg.solver = indexing::tsp_solver::two_opt;
    const auto r_exact = core::fis_one(exact_cfg).run(b);
    const auto r_approx = core::fis_one(approx_cfg).run(b);
    // Same clustering; indexing may differ slightly but edit distance stays close.
    EXPECT_EQ(r_exact.assignment, r_approx.assignment);
    EXPECT_NEAR(r_exact.edit_distance, r_approx.edit_distance, 0.15);
}

TEST(fis_one, plain_jaccard_variant_runs) {
    const auto b = make_building(3, 77);
    auto cfg = fast_config();
    cfg.similarity = indexing::similarity_kind::jaccard;
    const auto r = core::fis_one(cfg).run(b);
    EXPECT_GE(r.edit_distance, 0.0);
    EXPECT_LE(r.edit_distance, 1.0);
}

TEST(fis_one, arbitrary_floor_label_protocol) {
    auto b = make_building(4, 78);
    util::rng gen(5);
    sim::relabel_floor(b, 2, gen);  // label on floor 2 of 4: unambiguous

    auto cfg = fast_config();
    cfg.label = core::label_mode::arbitrary_floor;
    const auto r = core::fis_one(cfg).run(b);

    EXPECT_FALSE(r.ambiguous);
    EXPECT_EQ(r.assignment[b.labeled_sample], -1);  // excluded from clustering
    EXPECT_EQ(r.predicted_floor[b.labeled_sample], 2);
    EXPECT_GT(r.ari, 0.5);
    EXPECT_GT(r.edit_distance, 0.6);
}

TEST(fis_one, middle_floor_label_flags_ambiguity) {
    auto b = make_building(3, 79);
    util::rng gen(6);
    sim::relabel_floor(b, 1, gen);  // middle of 3 floors: §VI Case 1

    auto cfg = fast_config();
    cfg.label = core::label_mode::arbitrary_floor;
    const auto r = core::fis_one(cfg).run(b);
    EXPECT_TRUE(r.ambiguous);
}

TEST(fis_one, rejects_invalid_building) {
    data::building bad;
    bad.num_floors = 3;
    EXPECT_THROW((void)core::fis_one(fast_config()).run(bad), std::invalid_argument);
    core::fis_one_config cfg;
    cfg.gnn.embedding_dim = 0;
    EXPECT_THROW(core::fis_one{cfg}, std::invalid_argument);
}

TEST(evaluate_with_indexing, scores_ground_truth_assignment_perfectly) {
    const auto b = make_building(4, 80);
    std::vector<int> perfect;
    perfect.reserve(b.samples.size());
    for (const auto& s : b.samples) perfect.push_back(s.true_floor);
    const auto s = core::evaluate_with_indexing(
        b, perfect, indexing::similarity_kind::adapted_jaccard, indexing::tsp_solver::exact, 1);
    EXPECT_DOUBLE_EQ(s.ari, 1.0);
    EXPECT_DOUBLE_EQ(s.nmi, 1.0);
    EXPECT_DOUBLE_EQ(s.edit_distance, 1.0);
}

TEST(evaluate_with_indexing, validates_input) {
    const auto b = make_building(3, 81);
    EXPECT_THROW((void)core::evaluate_with_indexing(b, {0, 1},
                                                    indexing::similarity_kind::adapted_jaccard,
                                                    indexing::tsp_solver::exact, 1),
                 std::invalid_argument);
}

// Property sweep: the pipeline holds up across floor counts (Fig. 12 at
// unit-test scale).
class fis_one_floor_sweep : public ::testing::TestWithParam<int> {};

TEST_P(fis_one_floor_sweep, reasonable_quality_across_heights) {
    const auto floors = static_cast<std::size_t>(GetParam());
    const auto b = make_building(floors, 90 + floors, 40);
    const auto r = core::fis_one(fast_config(static_cast<std::uint64_t>(floors))).run(b);
    EXPECT_GT(r.ari, 0.35) << "floors=" << floors;
    EXPECT_GT(r.edit_distance, 0.5) << "floors=" << floors;
}

INSTANTIATE_TEST_SUITE_P(building_heights, fis_one_floor_sweep, ::testing::Values(3, 4, 5, 6, 7));

}  // namespace
