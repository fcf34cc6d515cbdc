#pragma once

/// \file batch_runner.hpp
/// The `fisone::runtime` batch subsystem: run the FIS-ONE pipeline over
/// many buildings concurrently. This is the building-scale parallelism of
/// the ROADMAP's north star — buildings are embarrassingly parallel, so a
/// campaign over a city-sized corpus scales linearly with cores.
///
/// Reproducibility contract:
///  - every task's pipeline seeds are derived purely from
///    (campaign seed, building index) via `task_seed`, never from
///    scheduling order, so a batch run is bit-identical to running the
///    same buildings sequentially with the same derived seeds;
///  - consequently `run()` output does not depend on `num_threads`.
///
/// A building that throws does not abort the campaign: its report carries
/// `ok = false` and the exception message, and the batch keeps going.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/fis_one.hpp"
#include "data/rf_sample.hpp"
#include "util/stats.hpp"

namespace fisone::util {
class thread_pool;
}

namespace fisone::runtime {

/// Deterministic per-task seed: a splitmix64 hash of the campaign seed and
/// the building's position in the input. Independent of execution order.
[[nodiscard]] std::uint64_t task_seed(std::uint64_t campaign_seed,
                                      std::size_t task_index) noexcept;

/// Outcome of one building inside a batch.
struct building_report {
    std::size_t index = 0;        ///< position in the input vector
    std::string name;             ///< building::name
    bool ok = false;              ///< false → `error` holds the reason
    std::string error;
    std::uint64_t seed = 0;       ///< the derived pipeline seed this building ran with
    double seconds = 0.0;         ///< wall time of this building's pipeline
    core::fis_one_result result;  ///< meaningful only when `ok`
};

/// Run one building of a campaign: derive its pipeline seeds from
/// (campaign_seed, index) via `task_seed`, execute the pipeline, and fold
/// any exception into the report (`ok = false`). This is the single task
/// body shared by `batch_runner` and `service::floor_service`, so a served
/// corpus is bit-identical to a batch run over the same input order.
/// \param single_thread_kernels force the per-building kernels serial when
///        the pipeline's `num_threads` is 0 ("auto") — set when tasks run
///        inside an already-parallel batch or service so one pool level is
///        active at a time. Explicit kernel thread counts are honoured.
[[nodiscard]] building_report run_building_task(const core::fis_one_config& pipeline,
                                                std::uint64_t campaign_seed, std::size_t index,
                                                const data::building& b,
                                                bool single_thread_kernels);

/// Snapshot handed to the progress callback after each finished building.
struct batch_progress {
    std::size_t completed = 0;  ///< buildings finished so far (ok or not)
    std::size_t total = 0;
    const building_report* last = nullptr;  ///< the building that just finished
};

/// Campaign configuration.
struct batch_config {
    /// Template pipeline config. Per-task copies get their `seed` /
    /// `gnn.seed` replaced by `task_seed` derivations. A `num_threads` of 0
    /// ("auto") resolves to 1 inside a multi-threaded batch — one pool
    /// level at a time — and to the hardware otherwise; explicit values are
    /// honoured as given.
    core::fis_one_config pipeline{};
    std::uint64_t seed = 7;      ///< campaign seed, root of all task seeds
    std::size_t num_threads = 0; ///< workers over buildings; 0 = allowed CPUs
    /// Invoked after every finished building. Calls are serialised (a
    /// mutex) but arrive in completion order, not input order.
    std::function<void(const batch_progress&)> on_progress;
};

/// Everything a campaign produces.
struct batch_result {
    std::vector<building_report> reports;  ///< in input order
    std::size_t num_ok = 0;
    std::size_t num_failed = 0;
    double wall_seconds = 0.0;
    double buildings_per_second = 0.0;
    /// Metric aggregates over successful buildings with ground truth,
    /// accumulated in input order (deterministic).
    util::running_stats ari, nmi, edit_distance;
};

/// The runtime. Construct once per campaign shape, run per corpus. The
/// worker pool is created with the runner and reused across `run()` calls,
/// so repeated campaigns pay thread start-up once. `run()` may be called
/// from several threads concurrently; they share the pool.
class batch_runner {
public:
    explicit batch_runner(batch_config cfg);
    ~batch_runner();

    batch_runner(const batch_runner&) = delete;
    batch_runner& operator=(const batch_runner&) = delete;

    /// Run the pipeline over every building; blocks until all finish.
    [[nodiscard]] batch_result run(const std::vector<data::building>& buildings) const;

    /// Convenience overload for a whole corpus.
    [[nodiscard]] batch_result run(const data::corpus& corpus) const;

    [[nodiscard]] const batch_config& config() const noexcept { return cfg_; }

private:
    batch_config cfg_;
    /// Non-null iff the resolved `num_threads` exceeds 1. Shared by every
    /// `run()`; destroyed (threads joined) with the runner.
    std::unique_ptr<util::thread_pool> pool_;
};

}  // namespace fisone::runtime
