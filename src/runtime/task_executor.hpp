#pragma once

/// \file task_executor.hpp
/// The single per-building execution path shared by every front-end.
/// `runtime::batch_runner`, `service::floor_service`, and `api::server`
/// all need the same plumbing around one building: validate the pipeline
/// template once, derive the task's effective config from
/// (campaign seed, corpus index), time and fault-isolate the run, and
/// synthesise reports for buildings that never ran (cancelled / lost to a
/// shard error). Hoisting it here is what makes the determinism contract a
/// single point of truth — a served, batched, cached, or wire-framed
/// building can only ever run through `task_executor::run`.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "batch_runner.hpp"
#include "core/fis_one.hpp"
#include "data/rf_sample.hpp"
#include "util/thread_pool.hpp"

namespace fisone::runtime {

/// Validate a pipeline template eagerly (construction-time) so a bad
/// config throws once at the front-end boundary instead of once per task.
/// \throws std::invalid_argument exactly as `core::fis_one`'s ctor does.
void validate_pipeline(const core::fis_one_config& pipeline);

/// The effective config building `index` of a campaign runs with: the
/// template with `seed` / `gnn.seed` replaced by `task_seed` derivations
/// and — when \p single_thread_kernels — an "auto" `num_threads` pinned to
/// 1 (one pool level at a time inside an already-parallel batch/service).
/// This is the config whose `core::config_fingerprint` content-addresses
/// the task's result.
[[nodiscard]] core::fis_one_config effective_task_config(const core::fis_one_config& pipeline,
                                                         std::uint64_t campaign_seed,
                                                         std::size_t index,
                                                         bool single_thread_kernels);

/// Report for a building that never ran (cancelled, or lost to a shard
/// error). Carries the seed it *would* have run with, for traceability.
[[nodiscard]] building_report skipped_report(std::string name, std::size_t index,
                                             std::uint64_t campaign_seed, std::string reason);

/// Bundles one campaign's (pipeline template, campaign seed, kernel
/// threading policy) so front-ends execute buildings through one shared
/// object instead of re-threading three loose values. When the effective
/// config asks for more than one kernel thread, the executor creates that
/// kernel pool once and every building it runs shares it. Cheap to copy
/// (copies share the pool); immutable after construction, so one
/// executor may serve many threads.
class task_executor {
public:
    task_executor(core::fis_one_config pipeline, std::uint64_t campaign_seed,
                  bool single_thread_kernels);

    /// Run building \p b at corpus index \p index: derive seeds, execute
    /// the pipeline, fold any exception into the report (`ok = false`).
    [[nodiscard]] building_report run(std::size_t index, const data::building& b) const;

    /// Report for a building of this campaign that never ran.
    [[nodiscard]] building_report skipped(std::string name, std::size_t index,
                                          std::string reason) const {
        return skipped_report(std::move(name), index, campaign_seed_, std::move(reason));
    }

    /// The exact config `run(index, ...)` executes with.
    [[nodiscard]] core::fis_one_config effective_config(std::size_t index) const {
        return effective_task_config(pipeline_, campaign_seed_, index, single_thread_kernels_);
    }

    [[nodiscard]] const core::fis_one_config& pipeline() const noexcept { return pipeline_; }
    [[nodiscard]] std::uint64_t campaign_seed() const noexcept { return campaign_seed_; }

private:
    core::fis_one_config pipeline_;
    std::uint64_t campaign_seed_ = 0;
    bool single_thread_kernels_ = false;
    /// Null when the kernels run serially. `parallel_for` is safe to call
    /// from several threads at once, so concurrent `run`s may share it.
    std::shared_ptr<util::thread_pool> kernel_pool_;
};

}  // namespace fisone::runtime
