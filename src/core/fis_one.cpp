#include "fis_one.hpp"

#include <memory>
#include <stdexcept>

#include "cluster/floor_count.hpp"
#include "cluster/hierarchical.hpp"
#include "cluster/kmeans.hpp"
#include "eval/metrics.hpp"
#include "graph/bipartite_graph.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace fisone::core {

std::uint64_t config_fingerprint(const fis_one_config& cfg) noexcept {
    util::fnv1a64 h;
    // Domain separator + version: bump whenever a field is added, removed
    // or re-ordered below, or the numerics move result bits (v2: in-tree
    // tanh and exp, linalg/numerics.hpp) — a stale fingerprint must never
    // alias a config with different result semantics, and a result_cache
    // spill written under the old version must miss.
    h.str("fisone-config-fingerprint/v2");
    // RF-GNN knobs.
    h.size(cfg.gnn.embedding_dim);
    h.size(cfg.gnn.num_hops);
    h.size(cfg.gnn.neighbor_samples);
    h.boolean(cfg.gnn.use_attention);
    h.boolean(cfg.gnn.train_base_embeddings);
    h.u8(static_cast<std::uint8_t>(cfg.gnn.act));
    h.size(cfg.gnn.walks.walk_length);
    h.size(cfg.gnn.walks.walks_per_node);
    h.size(cfg.gnn.walks.window);
    h.size(cfg.gnn.negatives);
    h.f64(cfg.gnn.negative_exponent);
    h.size(cfg.gnn.epochs);
    h.size(cfg.gnn.batch_pairs);
    h.f64(cfg.gnn.learning_rate);
    h.f64(cfg.gnn.grad_clip);
    h.u64(cfg.gnn.seed);
    // Pipeline-level switches.
    h.u8(static_cast<std::uint8_t>(cfg.clustering));
    h.u8(static_cast<std::uint8_t>(cfg.similarity));
    h.u8(static_cast<std::uint8_t>(cfg.solver));
    h.u8(static_cast<std::uint8_t>(cfg.label));
    h.boolean(cfg.estimate_floor_count);
    h.size(cfg.min_floors);
    h.size(cfg.max_floors);
    h.u64(cfg.seed);
    // cfg.num_threads intentionally NOT hashed — results are thread-count
    // invariant by the repo-wide bit-identity contract.
    return h.digest();
}

namespace {

/// Cluster embedding rows into k clusters with the configured algorithm.
std::vector<int> cluster_embeddings(const linalg::matrix& points, std::size_t k,
                                    clustering_algorithm alg, util::rng& gen,
                                    util::thread_pool* pool) {
    if (alg == clustering_algorithm::hierarchical)
        return cluster::upgma_cluster(points, k, pool);
    return cluster::kmeans(points, k, gen, {}, pool).assignment;
}

/// True floors of every sample (evaluation only).
std::vector<int> true_floors(const data::building& b) {
    std::vector<int> floors(b.samples.size());
    for (std::size_t i = 0; i < b.samples.size(); ++i) floors[i] = b.samples[i].true_floor;
    return floors;
}

/// Metrics restricted to samples with both a cluster label and known
/// ground truth. Returns false when too few scored samples exist (e.g.
/// imported corpora where only the labeled scan has a known floor).
bool score(const data::building& b, const std::vector<int>& assignment,
           const std::vector<int>& cluster_to_floor, pipeline_scores& s) {
    const std::vector<int> truth_all = true_floors(b);
    std::vector<int> pred, truth;
    std::vector<int> assignment_known(assignment.size(), -1);
    pred.reserve(assignment.size());
    truth.reserve(assignment.size());
    for (std::size_t i = 0; i < assignment.size(); ++i) {
        if (assignment[i] == -1 || truth_all[i] < 0) continue;
        assignment_known[i] = assignment[i];
        pred.push_back(assignment[i]);
        truth.push_back(truth_all[i]);
    }
    if (pred.size() < 2) return false;
    s.ari = eval::adjusted_rand_index(pred, truth);
    s.nmi = eval::normalized_mutual_information(pred, truth);
    const std::vector<int> majority =
        eval::cluster_majority_floor(assignment_known, truth_all, cluster_to_floor.size());
    s.edit_distance = eval::indexing_edit_distance(cluster_to_floor, majority);
    return true;
}

}  // namespace

fis_one::fis_one(fis_one_config cfg) : cfg_(cfg) {
    if (cfg.gnn.embedding_dim == 0)
        throw std::invalid_argument("fis_one: embedding_dim must be > 0");
}

fis_one_result fis_one::run(const data::building& b, util::thread_pool* pool) const {
    b.validate();
    util::rng gen(cfg_.seed ^ 0xf15f0e1ULL);

    // One pool per run unless the caller lent one, shared by every kernel
    // below. All pooled kernels are bit-identical to their serial forms,
    // so results do not depend on it (see fis_one_config::num_threads).
    std::unique_ptr<util::thread_pool> owned_pool;
    if (pool == nullptr && util::resolve_num_threads(cfg_.num_threads) > 1) {
        owned_pool = std::make_unique<util::thread_pool>(cfg_.num_threads);
        pool = owned_pool.get();
    }

    // --- 1. graph construction + RF-GNN representation learning ---
    const graph::bipartite_graph g = [&] {
        obs::scoped_span span("pipeline.graph_build");
        return graph::bipartite_graph::from_building(b);
    }();
    fis_one_result result;
    {
        obs::scoped_span span("pipeline.gnn_embed");
        gnn::rf_gnn model(g, cfg_.gnn, pool);
        model.train();
        result.embeddings = model.embed_samples();
    }

    const std::size_t n = b.samples.size();
    std::size_t k = b.num_floors;
    if (cfg_.estimate_floor_count) {
        // Unsupervised extension: infer the floor count from the dendrogram
        // gap before clustering (see cluster/floor_count.hpp).
        obs::scoped_span span("pipeline.floor_count");
        k = cluster::estimate_floor_count(result.embeddings, cfg_.min_floors, cfg_.max_floors,
                                          pool)
                .num_floors;
    }
    result.num_clusters = k;

    if (cfg_.label == label_mode::bottom_floor) {
        // --- 2. cluster all samples ---
        {
            obs::scoped_span span("pipeline.cluster");
            result.assignment =
                cluster_embeddings(result.embeddings, k, cfg_.clustering, gen, pool);
        }

        // --- 3. index clusters, anchored at the labeled sample's cluster ---
        obs::scoped_span span("pipeline.index");
        const auto profiles = indexing::build_profiles(b, result.assignment, k);
        const linalg::matrix sim = indexing::similarity_matrix(profiles, cfg_.similarity, pool);
        const auto start = static_cast<std::size_t>(result.assignment[b.labeled_sample]);
        const indexing::indexing_result idx =
            indexing::index_from_bottom(sim, start, cfg_.solver, gen);
        result.cluster_to_floor = idx.cluster_to_floor;
        result.ambiguous = false;
    } else {
        // §VI: exclude the labeled sample from clustering, solve free-start,
        // orient by embedding distance to the two candidate clusters.
        linalg::matrix points(n - 1, result.embeddings.cols());
        std::vector<std::size_t> owner;  // row in points → sample index
        owner.reserve(n - 1);
        for (std::size_t i = 0; i < n; ++i) {
            if (i == b.labeled_sample) continue;
            const auto row = result.embeddings.row(i);
            for (std::size_t j = 0; j < points.cols(); ++j) points(owner.size(), j) = row[j];
            owner.push_back(i);
        }
        const std::vector<int> sub_assignment = [&] {
            obs::scoped_span span("pipeline.cluster");
            return cluster_embeddings(points, k, cfg_.clustering, gen, pool);
        }();
        result.assignment.assign(n, -1);
        for (std::size_t r = 0; r < owner.size(); ++r)
            result.assignment[owner[r]] = sub_assignment[r];

        obs::scoped_span span("pipeline.index");
        const auto profiles = indexing::build_profiles(b, result.assignment, k);
        const linalg::matrix sim = indexing::similarity_matrix(profiles, cfg_.similarity, pool);

        // d(r, C_i): mean distance from the labeled embedding to each cluster.
        std::vector<double> dist_to(k, 0.0);
        std::vector<std::size_t> counts(k, 0);
        const auto labeled_row = result.embeddings.row(b.labeled_sample);
        for (std::size_t i = 0; i < n; ++i) {
            if (result.assignment[i] == -1) continue;
            const auto c = static_cast<std::size_t>(result.assignment[i]);
            dist_to[c] += linalg::euclidean_distance(labeled_row, result.embeddings.row(i));
            ++counts[c];
        }
        for (std::size_t c = 0; c < k; ++c)
            if (counts[c] > 0) dist_to[c] /= static_cast<double>(counts[c]);

        const indexing::indexing_result idx = indexing::index_from_arbitrary(
            sim, b.labeled_floor, dist_to, cfg_.solver, gen);
        result.cluster_to_floor = idx.cluster_to_floor;
        result.ambiguous = idx.ambiguous;
    }

    // --- 4. per-sample floor predictions ---
    result.predicted_floor.assign(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
        if (result.assignment[i] >= 0)
            result.predicted_floor[i] =
                result.cluster_to_floor[static_cast<std::size_t>(result.assignment[i])];
    }
    result.predicted_floor[b.labeled_sample] = b.labeled_floor;  // the known label

    // --- 5. metrics (only where ground truth exists) ---
    pipeline_scores s;
    result.has_ground_truth = score(b, result.assignment, result.cluster_to_floor, s);
    result.ari = s.ari;
    result.nmi = s.nmi;
    result.edit_distance = s.edit_distance;
    return result;
}

pipeline_scores evaluate_with_indexing(const data::building& b,
                                       const std::vector<int>& assignment,
                                       indexing::similarity_kind similarity,
                                       indexing::tsp_solver solver, std::uint64_t seed) {
    if (assignment.size() != b.samples.size())
        throw std::invalid_argument("evaluate_with_indexing: assignment size mismatch");
    util::rng gen(seed ^ 0xba5e11e5ULL);
    const std::size_t k = b.num_floors;
    const auto profiles = indexing::build_profiles(b, assignment, k);
    const linalg::matrix sim = indexing::similarity_matrix(profiles, similarity);
    const int labeled_cluster = assignment[b.labeled_sample];
    if (labeled_cluster < 0)
        throw std::invalid_argument("evaluate_with_indexing: labeled sample unassigned");
    const indexing::indexing_result idx = indexing::index_from_bottom(
        sim, static_cast<std::size_t>(labeled_cluster), solver, gen);
    pipeline_scores s;
    if (!score(b, assignment, idx.cluster_to_floor, s))
        throw std::invalid_argument("evaluate_with_indexing: building has no ground truth");
    return s;
}

}  // namespace fisone::core
