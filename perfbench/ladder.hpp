#pragma once

/// \file ladder.hpp
/// The traced run: an outside-in layer ladder over a subset of the same
/// corpus. Each rung calls one layer's public functions directly and times
/// them from outside (no spans inside the program):
///
///  1. the GEMM kernels at the shapes the RF-GNN training tape issues;
///  2. graph build and walk pairs, RF-GNN training, embedding, UPGMA and
///     the spillover indexing;
///  3. `fis_one::run`, `batch_runner::run`, `floor_service::submit`;
///  4. an `api::server` loopback session, a 1-backend `federated_server`
///     loopback, then TCP to the server process — each with the workload's
///     own request kind;
///
/// plus the store and ingest layers. A hop is rung n minus rung n−1.

#include "workloads.hpp"

namespace perfbench {

/// Run the ladder for \p o's workload and return the per-layer report.
/// \p e2e is the same workload's end-to-end run, which the report's
/// latency attribution and tracing overhead compare against.
[[nodiscard]] run_report run_ladder(const run_options& o, const run_report& e2e);

}  // namespace perfbench
