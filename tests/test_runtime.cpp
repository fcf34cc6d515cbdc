// Tests for the batch runtime: thread-pool scheduling and exception
// propagation, parallel_for index coverage, deterministic per-task
// seeding, and bit-identical batch_runner output across thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "runtime/batch_runner.hpp"
#include "sim/building_generator.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fisone;

// --- thread_pool ----------------------------------------------------------

TEST(thread_pool, resolves_zero_to_hardware) {
    EXPECT_GE(util::resolve_num_threads(0), 1u);
    EXPECT_EQ(util::resolve_num_threads(3), 3u);
}

#if defined(__linux__)
// `num_threads = 0` sizes pools from the CPUs the caller may run on, not
// from the host's count: pin one thread of this process to one CPU it is
// allowed and resolve from inside it.
TEST(thread_pool, resolves_zero_to_the_affinity_mask) {
    cpu_set_t allowed;
    ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &allowed)) ++cpu;
    std::size_t resolved = 0;
    bool pinned = false;
    std::thread([&] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
        resolved = util::resolve_num_threads(0);
    }).join();
    ASSERT_TRUE(pinned);
    EXPECT_EQ(resolved, 1u);
    EXPECT_EQ(util::resolve_num_threads(0), static_cast<std::size_t>(CPU_COUNT(&allowed)));
}
#endif

TEST(thread_pool, rejects_absurd_thread_counts) {
    // e.g. -1 funneled through a size_t CLI knob
    EXPECT_THROW(util::thread_pool(static_cast<std::size_t>(-1)), std::invalid_argument);
}

TEST(thread_pool, concurrency_one_runs_everything_inline) {
    util::thread_pool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    bool ran = false;
    pool.submit([&ran] { ran = true; }).get();
    EXPECT_TRUE(ran);
    std::vector<int> hits(10, 0);
    pool.parallel_for(0, hits.size(), 3, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
    for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(thread_pool, submit_runs_tasks_and_reports_completion) {
    util::thread_pool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([&counter] { ++counter; }));
    for (auto& f : futures) f.get();
    EXPECT_EQ(counter.load(), 32);
}

TEST(thread_pool, submit_propagates_exceptions_through_future) {
    util::thread_pool pool(2);
    std::future<void> f = pool.submit([] { throw std::runtime_error("task boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
    // The pool survives a throwing task.
    std::future<void> ok = pool.submit([] {});
    EXPECT_NO_THROW(ok.get());
}

TEST(thread_pool, parallel_for_covers_every_index_exactly_once) {
    util::thread_pool pool(4);
    for (const std::size_t grain : {1u, 3u, 7u, 100u, 1000u}) {
        std::vector<std::atomic<int>> hits(537);
        for (auto& h : hits) h = 0;
        pool.parallel_for(0, hits.size(), grain, [&](std::size_t b, std::size_t e) {
            ASSERT_LE(b, e);
            ASSERT_LE(e, hits.size());
            for (std::size_t i = b; i < e; ++i) ++hits[i];
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
    }
}

TEST(thread_pool, parallel_for_respects_nonzero_begin_and_empty_range) {
    util::thread_pool pool(2);
    std::set<std::size_t> seen;
    std::mutex m;
    pool.parallel_for(10, 25, 4, [&](std::size_t b, std::size_t e) {
        const std::lock_guard<std::mutex> lock(m);
        for (std::size_t i = b; i < e; ++i) seen.insert(i);
    });
    EXPECT_EQ(seen.size(), 15u);
    EXPECT_EQ(*seen.begin(), 10u);
    EXPECT_EQ(*seen.rbegin(), 24u);

    bool ran = false;
    pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(thread_pool, parallel_for_rethrows_chunk_exception) {
    util::thread_pool pool(4);
    EXPECT_THROW(pool.parallel_for(0, 100, 1,
                                   [&](std::size_t b, std::size_t) {
                                       if (b == 42) throw std::invalid_argument("chunk boom");
                                   }),
                 std::invalid_argument);
    // Still usable afterwards.
    std::atomic<int> n{0};
    pool.parallel_for(0, 8, 1, [&](std::size_t, std::size_t) { ++n; });
    EXPECT_EQ(n.load(), 8);
}

TEST(thread_pool, free_parallel_for_runs_serially_without_pool) {
    std::vector<int> hits(64, 0);
    util::parallel_for(nullptr, 0, hits.size(), 5, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
    for (const int h : hits) EXPECT_EQ(h, 1);
}

// --- batch_runner ---------------------------------------------------------

TEST(batch_runner, task_seed_is_deterministic_and_spread) {
    EXPECT_EQ(runtime::task_seed(7, 3), runtime::task_seed(7, 3));
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 64; ++i) seeds.insert(runtime::task_seed(7, i));
    EXPECT_EQ(seeds.size(), 64u);
    EXPECT_NE(runtime::task_seed(7, 0), runtime::task_seed(8, 0));
}

std::vector<data::building> make_fleet(std::size_t count) {
    std::vector<data::building> fleet;
    fleet.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        sim::building_spec spec;
        spec.name = "b";  // += sidesteps a gcc-12 -Wrestrict false positive
        spec.name += std::to_string(i);
        spec.num_floors = 3 + i % 2;
        spec.samples_per_floor = 40;
        spec.aps_per_floor = 8;
        spec.seed = 100 + i;
        fleet.push_back(sim::generate_building(spec).building);
    }
    return fleet;
}

runtime::batch_config fast_batch_config(std::size_t num_threads) {
    runtime::batch_config cfg;
    cfg.pipeline.gnn.embedding_dim = 8;
    cfg.pipeline.gnn.epochs = 2;
    cfg.pipeline.gnn.walks.walks_per_node = 2;
    cfg.seed = 99;
    cfg.num_threads = num_threads;
    return cfg;
}

TEST(batch_runner, output_is_bit_identical_across_thread_counts) {
    std::vector<data::building> fleet = make_fleet(4);
    // A mall-like campus building rides along: open atrium, eight floors.
    sim::building_spec mall;
    mall.name = "mall";
    mall.num_floors = 8;
    mall.samples_per_floor = 40;
    mall.aps_per_floor = 8;
    mall.atrium = true;
    mall.seed = 104;
    fleet.push_back(sim::generate_building(mall).building);
    const runtime::batch_result serial = runtime::batch_runner(fast_batch_config(1)).run(fleet);
    const runtime::batch_result pooled = runtime::batch_runner(fast_batch_config(4)).run(fleet);

    ASSERT_EQ(serial.reports.size(), fleet.size());
    ASSERT_EQ(pooled.reports.size(), fleet.size());
    EXPECT_EQ(serial.num_ok, fleet.size());
    EXPECT_EQ(pooled.num_ok, fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        const core::fis_one_result& a = serial.reports[i].result;
        const core::fis_one_result& b = pooled.reports[i].result;
        EXPECT_EQ(serial.reports[i].name, pooled.reports[i].name);
        EXPECT_EQ(a.num_clusters, b.num_clusters) << "building " << i;
        EXPECT_EQ(a.assignment, b.assignment) << "building " << i;
        EXPECT_EQ(a.cluster_to_floor, b.cluster_to_floor) << "building " << i;
        EXPECT_EQ(a.predicted_floor, b.predicted_floor) << "building " << i;
        EXPECT_EQ(a.embeddings, b.embeddings) << "building " << i;  // exact
        EXPECT_EQ(a.ari, b.ari) << "building " << i;
        EXPECT_EQ(a.nmi, b.nmi) << "building " << i;
        EXPECT_EQ(a.edit_distance, b.edit_distance) << "building " << i;
    }
    EXPECT_EQ(serial.ari.mean(), pooled.ari.mean());
    EXPECT_EQ(serial.nmi.mean(), pooled.nmi.mean());
}

TEST(batch_runner, kernel_pool_is_bit_identical_to_serial_kernels) {
    // Same building, same seeds; only fis_one_config::num_threads differs.
    const std::vector<data::building> fleet = make_fleet(1);
    runtime::batch_config serial_cfg = fast_batch_config(1);
    serial_cfg.pipeline.num_threads = 1;
    runtime::batch_config pooled_cfg = fast_batch_config(1);
    pooled_cfg.pipeline.num_threads = 4;

    const runtime::batch_result a = runtime::batch_runner(serial_cfg).run(fleet);
    const runtime::batch_result b = runtime::batch_runner(pooled_cfg).run(fleet);
    ASSERT_TRUE(a.reports[0].ok);
    ASSERT_TRUE(b.reports[0].ok);
    EXPECT_EQ(a.reports[0].result.embeddings, b.reports[0].result.embeddings);
    EXPECT_EQ(a.reports[0].result.assignment, b.reports[0].result.assignment);
    EXPECT_EQ(a.reports[0].result.cluster_to_floor, b.reports[0].result.cluster_to_floor);
}

TEST(batch_runner, concurrent_buildings_share_one_kernel_pool_bit_identically) {
    // Two batch workers run buildings at once through one executor, whose
    // single 3-thread kernel pool both in-flight pipelines then share.
    const std::vector<data::building> fleet = make_fleet(3);
    runtime::batch_config serial_cfg = fast_batch_config(1);
    serial_cfg.pipeline.num_threads = 1;
    runtime::batch_config shared_cfg = fast_batch_config(2);
    shared_cfg.pipeline.num_threads = 3;

    const runtime::batch_result a = runtime::batch_runner(serial_cfg).run(fleet);
    const runtime::batch_result b = runtime::batch_runner(shared_cfg).run(fleet);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        ASSERT_TRUE(a.reports[i].ok) << i;
        ASSERT_TRUE(b.reports[i].ok) << i;
        EXPECT_EQ(a.reports[i].result.embeddings, b.reports[i].result.embeddings) << i;
        EXPECT_EQ(a.reports[i].result.assignment, b.reports[i].result.assignment) << i;
        EXPECT_EQ(a.reports[i].result.cluster_to_floor, b.reports[i].result.cluster_to_floor)
            << i;
    }
}

TEST(batch_runner, progress_callback_sees_every_building) {
    const std::vector<data::building> fleet = make_fleet(3);
    runtime::batch_config cfg = fast_batch_config(2);
    std::set<std::size_t> indices;
    std::size_t last_completed = 0;
    cfg.on_progress = [&](const runtime::batch_progress& p) {
        EXPECT_EQ(p.total, 3u);
        ASSERT_NE(p.last, nullptr);
        indices.insert(p.last->index);
        last_completed = p.completed;  // serialised by the runner's mutex
    };
    const runtime::batch_result result = runtime::batch_runner(cfg).run(fleet);
    EXPECT_EQ(result.num_ok, 3u);
    EXPECT_EQ(indices.size(), 3u);
    EXPECT_EQ(last_completed, 3u);
}

TEST(batch_runner, failed_building_is_reported_not_fatal) {
    std::vector<data::building> fleet = make_fleet(2);
    fleet[1].labeled_sample = fleet[1].samples.size() + 10;  // fails validate()
    const runtime::batch_result result = runtime::batch_runner(fast_batch_config(2)).run(fleet);
    EXPECT_EQ(result.num_ok, 1u);
    EXPECT_EQ(result.num_failed, 1u);
    EXPECT_TRUE(result.reports[0].ok);
    EXPECT_FALSE(result.reports[1].ok);
    EXPECT_FALSE(result.reports[1].error.empty());
}

TEST(batch_runner, reused_pool_gives_identical_results_across_runs) {
    // The pool is constructed with the runner and shared by every run();
    // repeated campaigns must be bit-identical to each other and carry the
    // derived per-task seed in their reports.
    const std::vector<data::building> fleet = make_fleet(3);
    const runtime::batch_runner runner(fast_batch_config(4));
    const runtime::batch_result first = runner.run(fleet);
    const runtime::batch_result second = runner.run(fleet);
    ASSERT_EQ(first.reports.size(), second.reports.size());
    for (std::size_t i = 0; i < first.reports.size(); ++i) {
        EXPECT_EQ(first.reports[i].seed, runtime::task_seed(99, i));
        EXPECT_EQ(second.reports[i].seed, first.reports[i].seed);
        EXPECT_EQ(first.reports[i].result.assignment, second.reports[i].result.assignment);
        EXPECT_EQ(first.reports[i].result.embeddings, second.reports[i].result.embeddings);
    }
}

TEST(batch_runner, run_building_task_isolates_failures) {
    const std::vector<data::building> fleet = make_fleet(1);
    const runtime::building_report ok_report = runtime::run_building_task(
        fast_batch_config(1).pipeline, 99, 0, fleet[0], /*single_thread_kernels=*/false);
    EXPECT_TRUE(ok_report.ok);
    EXPECT_EQ(ok_report.name, fleet[0].name);
    EXPECT_EQ(ok_report.seed, runtime::task_seed(99, 0));

    data::building broken = fleet[0];
    broken.labeled_sample = broken.samples.size() + 1;
    const runtime::building_report bad_report = runtime::run_building_task(
        fast_batch_config(1).pipeline, 99, 0, broken, /*single_thread_kernels=*/false);
    EXPECT_FALSE(bad_report.ok);
    EXPECT_FALSE(bad_report.error.empty());
}

TEST(batch_runner, corpus_overload_matches_vector_overload) {
    data::corpus corpus;
    corpus.name = "fleet";
    corpus.buildings = make_fleet(2);
    const runtime::batch_runner runner(fast_batch_config(1));
    const runtime::batch_result a = runner.run(corpus);
    const runtime::batch_result b = runner.run(corpus.buildings);
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (std::size_t i = 0; i < a.reports.size(); ++i)
        EXPECT_EQ(a.reports[i].result.assignment, b.reports[i].result.assignment);
}

}  // namespace
