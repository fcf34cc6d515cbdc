#pragma once

/// \file fis_one.hpp
/// The FIS-ONE pipeline (paper Fig. 2): crowdsourced RF signals → bipartite
/// graph → RF-GNN embeddings → hierarchical clustering into one cluster per
/// floor → spillover-based cluster indexing anchored on the single labeled
/// sample. Every ablation the paper studies is a switch here:
///  - RF-GNN attention on/off (Fig. 8(a,b));
///  - hierarchical clustering vs k-means (Fig. 8(c,d));
///  - adapted vs plain Jaccard (Fig. 9(a,b));
///  - exact Held–Karp vs 2-opt TSP (Fig. 9(c,d));
///  - bottom-floor label vs arbitrary-floor label (§VI, Fig. 14);
///  - embedding dimension (Figs. 10–11).

#include <cstdint>
#include <vector>

#include "data/rf_sample.hpp"
#include "gnn/rf_gnn.hpp"
#include "indexing/cluster_indexer.hpp"
#include "indexing/similarity.hpp"
#include "linalg/matrix.hpp"

namespace fisone::core {

/// Clustering algorithm used on the learned embeddings.
enum class clustering_algorithm { hierarchical, kmeans };

/// Where the single labeled sample is assumed to come from.
enum class label_mode { bottom_floor, arbitrary_floor };

/// Full configuration surface of the pipeline.
struct fis_one_config {
    gnn::rf_gnn_config gnn{};
    clustering_algorithm clustering = clustering_algorithm::hierarchical;
    indexing::similarity_kind similarity = indexing::similarity_kind::adapted_jaccard;
    indexing::tsp_solver solver = indexing::tsp_solver::exact;
    label_mode label = label_mode::bottom_floor;
    /// Extension beyond the paper (its conclusion's "towards unsupervised
    /// floor identification"): estimate the floor count from the UPGMA
    /// dendrogram gap instead of trusting `building::num_floors`. Only
    /// meaningful with hierarchical clustering.
    bool estimate_floor_count = false;
    std::size_t min_floors = 2;   ///< search bounds for the estimate
    std::size_t max_floors = 12;
    std::uint64_t seed = 7;  ///< drives clustering restarts and TSP restarts
    /// Worker threads for the hot kernels (RF-GNN products, k-means
    /// assignment, UPGMA distance initialisation, profile similarity).
    /// 0 = the CPUs this thread may run on (`util::resolve_num_threads`);
    /// 1 runs fully serial. Every parallel kernel is bit-identical to its
    /// serial form, so this knob never changes results — only wall clock.
    std::size_t num_threads = 0;
};

/// Canonical fingerprint of a pipeline configuration: an FNV-1a 64 digest
/// over a fixed, versioned field-by-field serialisation of every knob that
/// can change pipeline *results* — including the seeds. `num_threads` is
/// deliberately excluded: every parallel kernel is bit-identical to its
/// serial form (the repo-wide contract), so results never depend on it and
/// cached results stay valid across worker counts. Configs fingerprint
/// equal iff they produce bit-identical results on every building; the API
/// layer's `result_cache` keys on (building `data::content_hash`, this).
/// New config fields MUST be folded in here (and the version tag bumped).
[[nodiscard]] std::uint64_t config_fingerprint(const fis_one_config& cfg) noexcept;

/// Everything the pipeline produces for one building.
struct fis_one_result {
    /// Number of clusters used (== building::num_floors unless
    /// `estimate_floor_count` chose otherwise).
    std::size_t num_clusters = 0;
    /// Per-sample cluster label; −1 for the labeled sample when it was
    /// excluded from clustering (arbitrary-floor protocol).
    std::vector<int> assignment;
    /// Floor assigned to each cluster (0 = bottom).
    std::vector<int> cluster_to_floor;
    /// Per-sample predicted floor (labeled sample gets its known label).
    std::vector<int> predicted_floor;
    /// Learned sample embeddings (num_samples × dim), exposed for
    /// diagnostics and for the inductive-inference example.
    linalg::matrix embeddings;
    /// §VI Case 1 (odd floors, middle-floor label): orientation ambiguous.
    bool ambiguous = false;

    // --- metrics vs ground truth (paper §V-A) ---
    /// False when the building carries (almost) no ground truth — e.g. a
    /// real imported scan log where only the single labeled scan has a
    /// known floor. Metrics below are 0 and meaningless in that case.
    bool has_ground_truth = true;
    double ari = 0.0;
    double nmi = 0.0;
    double edit_distance = 0.0;
};

/// Scores for an externally produced clustering run through FIS-ONE's
/// indexing (the paper's protocol for all baselines).
struct pipeline_scores {
    double ari = 0.0;
    double nmi = 0.0;
    double edit_distance = 0.0;
};

/// The system. Construct once, run per building.
class fis_one {
public:
    /// \throws std::invalid_argument on degenerate configs.
    explicit fis_one(fis_one_config cfg);

    /// Run the full pipeline on \p b (which must satisfy
    /// `building::validate`). Deterministic given (config seed, building).
    /// \param pool kernel pool to run on. When null, the run creates its
    ///        own for `num_threads` > 1 and drops it at the end; callers
    ///        that run many buildings pass one pool instead. Either way
    ///        the result bits are the same.
    [[nodiscard]] fis_one_result run(const data::building& b,
                                     util::thread_pool* pool = nullptr) const;

    [[nodiscard]] const fis_one_config& config() const noexcept { return cfg_; }

private:
    fis_one_config cfg_;
};

/// Index an externally produced clustering with FIS-ONE's spillover
/// indexing (bottom-floor protocol: the start cluster is the one holding
/// the labeled sample) and score it against ground truth. Used to adapt
/// the SDCN/DAEGC/METIS/MDS baselines exactly as the paper does (§V-A).
/// \param assignment per-sample cluster labels in [0, b.num_floors).
[[nodiscard]] pipeline_scores evaluate_with_indexing(const data::building& b,
                                                     const std::vector<int>& assignment,
                                                     indexing::similarity_kind similarity,
                                                     indexing::tsp_solver solver,
                                                     std::uint64_t seed);

}  // namespace fisone::core
