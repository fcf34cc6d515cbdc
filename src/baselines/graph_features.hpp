#pragma once

/// \file graph_features.hpp
/// Shared machinery for the deep-clustering baselines (SDCN, DAEGC). Both
/// consume (a) a node feature matrix and (b) a normalised adjacency of the
/// bipartite RF graph, per the paper's protocol of feeding the baselines
/// the same bipartite graph FIS-ONE uses (§V-A).
///
/// Features (dimension = num_macs):
///  - a sample node's features are its RSS readings mapped to [0, 1]
///    ((RSS + 120)/120, missing = 0) — Fig. 3's matrix row;
///  - a MAC node's features are the one-hot indicator of itself.
///
/// The adjacency is the symmetrically normalised Â = D^{−1/2}(A+I)D^{−1/2}
/// (GCN convention), kept sparse as one CSR operator (`autodiff::row_csr`)
/// so the autodiff `weighted_sum_rows` op applies it in O(nnz · dim). The
/// tape borrows the operator, so a training step that applies it several
/// times never copies it.

#include <cstddef>
#include <vector>

#include "autodiff/tape.hpp"
#include "data/rf_sample.hpp"
#include "graph/bipartite_graph.hpp"
#include "linalg/matrix.hpp"

namespace fisone::baselines {

/// Node features for the full bipartite node set (num_nodes × num_macs).
[[nodiscard]] linalg::matrix node_features(const data::building& b,
                                           const graph::bipartite_graph& g);

/// Symmetrically normalised adjacency with self-loops over all nodes.
/// Edge strength is the binary adjacency (GCN convention); the RSS weights
/// affect only FIS-ONE's own model, keeping the baselines faithful to
/// their published formulations.
[[nodiscard]] autodiff::row_csr normalized_adjacency(const graph::bipartite_graph& g);

/// Student-t soft assignment Q between embedding rows and centroids, and
/// the sharpened target distribution P — the self-supervision pair shared
/// by SDCN and DAEGC. Provided here in plain (non-autodiff) form for
/// target computation; the differentiable Q is built on the tape.
[[nodiscard]] linalg::matrix student_t_assignment(const linalg::matrix& z,
                                                  const linalg::matrix& centroids);
[[nodiscard]] linalg::matrix target_distribution(const linalg::matrix& q);

/// Extract per-sample labels from a full-node assignment produced by a
/// baseline (drops the MAC-node entries).
[[nodiscard]] std::vector<int> sample_labels(const graph::bipartite_graph& g,
                                             const std::vector<int>& node_labels);

}  // namespace fisone::baselines
