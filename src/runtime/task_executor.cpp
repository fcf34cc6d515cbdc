#include "task_executor.hpp"

#include <chrono>
#include <exception>

namespace fisone::runtime {

namespace {
using clock = std::chrono::steady_clock;
}

void validate_pipeline(const core::fis_one_config& pipeline) {
    static_cast<void>(core::fis_one(pipeline));
}

core::fis_one_config effective_task_config(const core::fis_one_config& pipeline,
                                           std::uint64_t campaign_seed, std::size_t index,
                                           bool single_thread_kernels) {
    core::fis_one_config cfg = pipeline;
    const std::uint64_t seed = task_seed(campaign_seed, index);
    cfg.seed = seed;
    cfg.gnn.seed = seed ^ 0x5eedc0de5eedc0deULL;
    // "auto" kernel threading inside a parallel batch would nest a
    // hardware-sized pool per in-flight building; keep one pool level.
    if (cfg.num_threads == 0 && single_thread_kernels) cfg.num_threads = 1;
    return cfg;
}

building_report skipped_report(std::string name, std::size_t index,
                               std::uint64_t campaign_seed, std::string reason) {
    building_report report;
    report.index = index;
    report.name = std::move(name);
    report.ok = false;
    report.error = std::move(reason);
    report.seed = task_seed(campaign_seed, index);
    return report;
}

task_executor::task_executor(core::fis_one_config pipeline, std::uint64_t campaign_seed,
                             bool single_thread_kernels)
    : pipeline_(std::move(pipeline)),
      campaign_seed_(campaign_seed),
      single_thread_kernels_(single_thread_kernels) {
    // The kernel thread count is the same for every index.
    const std::size_t kernel_threads = util::resolve_num_threads(effective_config(0).num_threads);
    if (kernel_threads > 1) kernel_pool_ = std::make_shared<util::thread_pool>(kernel_threads);
}

building_report task_executor::run(std::size_t index, const data::building& b) const {
    building_report report;
    report.index = index;
    report.name = b.name;

    const core::fis_one_config cfg = effective_config(index);
    report.seed = cfg.seed;

    const clock::time_point start = clock::now();
    try {
        report.result = core::fis_one(cfg).run(b, kernel_pool_.get());
        report.ok = true;
    } catch (const std::exception& e) {
        report.error = e.what();
    } catch (...) {
        report.error = "unknown exception";
    }
    report.seconds = std::chrono::duration<double>(clock::now() - start).count();
    return report;
}

}  // namespace fisone::runtime
