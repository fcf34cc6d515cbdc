#pragma once

/// \file floor_count.hpp
/// Estimating the number of floors from the data alone — a step toward the
/// fully *unsupervised* floor identification the paper's conclusion sets as
/// future work ("we have taken a first step towards unsupervised floor
/// identification"). FIS-ONE assumes the floor count is known; this module
/// removes that assumption by reading the UPGMA dendrogram: merges within a
/// floor happen at low linkage heights, merges across floors at high ones,
/// so the best cluster count sits just before the largest relative jump in
/// merge height.
///
/// Honest caveat, measured in this repo on synthetic buildings: the gap is
/// decisive when clusters are separated (synthetic blob tests recover the
/// count exactly up to k = 9) but RF-GNN embeddings of real-ish buildings
/// blend adjacent floors, leaving near-flat gap profiles; there the
/// estimate typically lands 1-2 below the truth. Fully unsupervised floor
/// identification remains open, exactly as the paper's conclusion states.

#include <cstddef>
#include <vector>

#include "hierarchical.hpp"
#include "linalg/matrix.hpp"

namespace fisone::cluster {

/// Result of a floor-count estimate.
struct floor_count_estimate {
    std::size_t num_floors = 0;   ///< the chosen k
    double gap_ratio = 0.0;       ///< height(merge k→k−1) / height(merge k+1→k)
    std::vector<double> heights;  ///< last max_floors merge heights, ascending k
};

/// Estimate the number of floors from embedding rows via the dendrogram-gap
/// heuristic: choose k in [min_floors, max_floors] maximising the ratio of
/// the merge height that would reduce k clusters to k−1 over the height
/// that reduced k+1 to k.
/// \param points embedding matrix (one row per scan).
/// \param min_floors smallest admissible floor count (≥ 2).
/// \param max_floors largest admissible floor count.
/// \param pool optional worker pool for the UPGMA distance initialisation
///        (see `upgma_linkage`); pooled runs are bit-identical to serial.
/// \throws std::invalid_argument if bounds are inverted, min < 2, or there
///         are fewer points than max_floors + 1.
[[nodiscard]] floor_count_estimate estimate_floor_count(const linalg::matrix& points,
                                                        std::size_t min_floors = 2,
                                                        std::size_t max_floors = 12,
                                                        util::thread_pool* pool = nullptr);

/// Same estimate from a precomputed linkage (avoids recomputing UPGMA when
/// the caller clusters afterwards anyway).
[[nodiscard]] floor_count_estimate estimate_floor_count_from_linkage(
    const std::vector<linkage_merge>& merges, std::size_t num_points,
    std::size_t min_floors = 2, std::size_t max_floors = 12);

}  // namespace fisone::cluster
