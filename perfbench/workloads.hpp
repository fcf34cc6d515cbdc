#pragma once

/// \file workloads.hpp
/// The three end-to-end workloads. Each drives the repository's `serve_tcp`
/// (a child process) over TCP from closed loops in this process, and
/// each loads a different layer while the others stay idle:
///
///  - `cold_campaign`: 2 connections, one `identify_resident{fresh}` each
///    in flight, every building requested once. The pipeline (RF-GNN
///    training above all) is the bottleneck; the front door is noise.
///  - `warm_cache`: 3 connections of cached `identify_resident` over a
///    working set that set-up put in the result cache. The pipeline never
///    runs; content hashing, response encoding and the event loop's single
///    serial stage are the bottleneck.
///  - `live_ingest`: an appender (`append_scans`, one building at a time in
///    a fixed rotation), a watcher timing each `push_update`, and a reader
///    issuing cached reads beside them. Store rescans, re-runs and pushes
///    are the bottleneck.
///
/// Every run also appends to the store after its measured phase (cold and
/// warm: a short probe of `k_probe_appends` appends on an otherwise idle
/// server), so every workload reports `append_p50_ms` and
/// `freshness_p50_ms` without mixing appends into its measured traffic.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "calibration.hpp"
#include "harness.hpp"

namespace perfbench {

struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string dir;  ///< scratch directory inside the checkout
    host_calibration* host = nullptr;  ///< set by `run_workload`
};

/// Scans per floor each building holds back for appends.
inline constexpr std::size_t k_pool_per_floor = 8;

/// Buildings in the workload's store. cold_campaign requests each once; a
/// resident building's first load streams the whole store, so the size is
/// part of the cold request's cost and stays fixed. warm_cache's store is
/// its working set; live_ingest's holds the reader set and the rotation.
[[nodiscard]] std::size_t store_size(const std::string& workload);

/// The buildings the workload appends to, in turn: live_ingest every
/// building past its reader set; cold_campaign and warm_cache (after their
/// measured phase) the store's last building only.
[[nodiscard]] std::vector<std::size_t> ingest_rotation(const std::string& workload);

/// True for `cold_campaign`, `warm_cache` and `live_ingest`.
[[nodiscard]] bool known_workload(const std::string& name);

/// Run the workload's end-to-end measurement: set-up (timed, repeated),
/// the measured phase, the workload invariants read through `get_stats`,
/// and verification of every served result.
[[nodiscard]] run_report run_workload(run_options o);

}  // namespace perfbench
