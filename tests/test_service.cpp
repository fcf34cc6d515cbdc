// Tests for the async service subsystem: sharded corpus store round-trips,
// NDJSON serialisation, floor_service submission/backpressure/cancellation,
// and the end-to-end determinism contract — input-order NDJSON re-export is
// byte-identical across worker counts and shard sizes, and identical to a
// blocking batch_runner campaign over the same corpus.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "data/corpus_store.hpp"
#include "runtime/batch_runner.hpp"
#include "service/floor_service.hpp"
#include "service/ndjson_export.hpp"
#include "sim/building_generator.hpp"

namespace {

using namespace fisone;

// --- helpers ----------------------------------------------------------------

data::building tiny_building(std::size_t i) {
    sim::building_spec spec;
    spec.name = "svc-";
    spec.name += std::to_string(i);
    spec.num_floors = 3 + i % 2;
    spec.samples_per_floor = 20;
    spec.aps_per_floor = 6;
    spec.seed = 500 + i;
    return sim::generate_building(spec).building;
}

data::corpus tiny_corpus(std::size_t count) {
    data::corpus c;
    c.name = "tiny";
    for (std::size_t i = 0; i < count; ++i) c.buildings.push_back(tiny_building(i));
    return c;
}

core::fis_one_config fast_pipeline() {
    core::fis_one_config cfg;
    cfg.gnn.embedding_dim = 8;
    cfg.gnn.epochs = 2;
    cfg.gnn.walks.walks_per_node = 2;
    return cfg;
}

service::service_config fast_service_config(std::size_t num_threads) {
    service::service_config cfg;
    cfg.pipeline = fast_pipeline();
    cfg.seed = 99;
    cfg.num_threads = num_threads;
    return cfg;
}

/// Fresh scratch directory under the system temp dir, removed at process
/// exit. The process id keeps two concurrent runs of this binary from
/// sharing or removing each other's stores.
std::string scratch_dir(const std::string& tag) {
    struct remove_at_exit {
        std::vector<std::filesystem::path> dirs;
        ~remove_at_exit() {
            std::error_code ec;
            for (const auto& d : dirs) std::filesystem::remove_all(d, ec);
        }
    };
    static remove_at_exit made;
    const auto dir = std::filesystem::temp_directory_path() /
                     ("fisone_test_" + tag + "_" + std::to_string(getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    made.dirs.push_back(dir);
    return dir.string();
}

void expect_building_eq(const data::building& a, const data::building& b) {
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.num_floors, b.num_floors);
    EXPECT_EQ(a.num_macs, b.num_macs);
    EXPECT_EQ(a.labeled_sample, b.labeled_sample);
    EXPECT_EQ(a.labeled_floor, b.labeled_floor);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].true_floor, b.samples[i].true_floor);
        EXPECT_EQ(a.samples[i].device_id, b.samples[i].device_id);
        ASSERT_EQ(a.samples[i].observations.size(), b.samples[i].observations.size());
        for (std::size_t j = 0; j < a.samples[i].observations.size(); ++j) {
            EXPECT_EQ(a.samples[i].observations[j].mac_id, b.samples[i].observations[j].mac_id);
            EXPECT_DOUBLE_EQ(a.samples[i].observations[j].rss_dbm,
                             b.samples[i].observations[j].rss_dbm);
        }
    }
}

// --- corpus_store: manifest -------------------------------------------------

TEST(corpus_manifest, round_trip_and_totals) {
    data::corpus_manifest m;
    m.corpus_name = "city";
    m.shards.push_back({"shard-0000.csv", 0, 4});
    m.shards.push_back({"shard-0001.csv", 4, 2});
    EXPECT_EQ(m.total_buildings(), 6u);

    std::stringstream ss;
    data::save_manifest(m, ss);
    const data::corpus_manifest loaded = data::load_manifest(ss);
    EXPECT_EQ(loaded.corpus_name, "city");
    ASSERT_EQ(loaded.shards.size(), 2u);
    EXPECT_EQ(loaded.shards[1].filename, "shard-0001.csv");
    EXPECT_EQ(loaded.shards[1].first_index, 4u);
    EXPECT_EQ(loaded.shards[1].num_buildings, 2u);
}

TEST(corpus_manifest, rejects_inconsistencies) {
    data::corpus_manifest gap;
    gap.shards.push_back({"a.csv", 0, 4});
    gap.shards.push_back({"b.csv", 5, 2});  // hole at index 4
    EXPECT_THROW(gap.validate(), std::invalid_argument);

    data::corpus_manifest empty_shard;
    empty_shard.shards.push_back({"a.csv", 0, 0});
    EXPECT_THROW(empty_shard.validate(), std::invalid_argument);

    // A delimiter in the corpus name would produce an unreadable store;
    // save_manifest must reject it at write time.
    data::corpus_manifest comma_name;
    comma_name.corpus_name = "NYC, downtown";
    comma_name.shards.push_back({"a.csv", 0, 1});
    std::stringstream sink;
    EXPECT_THROW(data::save_manifest(comma_name, sink), std::invalid_argument);

    std::stringstream bad_magic("not a manifest\n");
    EXPECT_THROW((void)data::load_manifest(bad_magic), std::invalid_argument);

    std::stringstream bad_row("# fisone-corpus v1\nbogus,1\n");
    EXPECT_THROW((void)data::load_manifest(bad_row), std::invalid_argument);
}

// --- corpus_store: shards ---------------------------------------------------

TEST(corpus_store, shard_writer_reader_round_trip) {
    const std::string dir = scratch_dir("shard_rt");
    const std::string path = dir + "/shard.csv";
    const data::corpus c = tiny_corpus(3);
    {
        data::shard_writer writer(path);
        for (const auto& b : c.buildings) writer.append(b);
        EXPECT_EQ(writer.count(), 3u);
        writer.close();
        EXPECT_THROW(writer.append(c.buildings[0]), std::logic_error);
    }
    data::shard_reader reader(path);
    for (std::size_t i = 0; i < 3; ++i) {
        auto b = reader.next();
        ASSERT_TRUE(b.has_value()) << "building " << i;
        expect_building_eq(*b, c.buildings[i]);
        EXPECT_EQ(reader.position(), i + 1);
    }
    EXPECT_FALSE(reader.next().has_value());
}

TEST(corpus_store, reader_rejects_bad_and_truncated_shards) {
    const std::string dir = scratch_dir("shard_bad");
    {
        std::ofstream out(dir + "/bad_magic.csv");
        out << "# not a shard\n";
    }
    EXPECT_THROW(data::shard_reader(dir + "/bad_magic.csv"), std::invalid_argument);
    EXPECT_THROW(data::shard_reader(dir + "/missing.csv"), std::ios_base::failure);

    {
        // A building block with no `end` marker: truncated mid-shard.
        std::ofstream out(dir + "/truncated.csv");
        out << "# fisone-shard v1\n# fisone-building v1\nname,x\n";
    }
    data::shard_reader reader(dir + "/truncated.csv");
    EXPECT_THROW((void)reader.next(), std::invalid_argument);
}

TEST(corpus_store, split_round_trips_at_every_shard_size) {
    const data::corpus c = tiny_corpus(5);
    for (const std::size_t shard_size : {1u, 2u, 3u, 5u, 9u}) {
        const std::string dir = scratch_dir("split_" + std::to_string(shard_size));
        const data::corpus_manifest m = data::write_corpus_store(c, dir, shard_size);
        EXPECT_EQ(m.total_buildings(), 5u);
        EXPECT_EQ(m.shards.size(), (5 + shard_size - 1) / shard_size);

        const data::corpus_store store = data::corpus_store::open(dir);
        EXPECT_EQ(store.manifest().corpus_name, "tiny");
        const data::corpus loaded = store.load_all();
        ASSERT_EQ(loaded.buildings.size(), c.buildings.size());
        for (std::size_t i = 0; i < c.buildings.size(); ++i)
            expect_building_eq(loaded.buildings[i], c.buildings[i]);
    }
}

TEST(corpus_store, rejects_degenerate_writes) {
    const data::corpus c = tiny_corpus(1);
    EXPECT_THROW((void)data::write_corpus_store(c, scratch_dir("deg"), 0),
                 std::invalid_argument);
    EXPECT_THROW((void)data::write_corpus_store(data::corpus{}, scratch_dir("deg2"), 2),
                 std::invalid_argument);
}

TEST(corpus_store, for_each_building_streams_in_corpus_order) {
    const data::corpus c = tiny_corpus(4);
    const std::string dir = scratch_dir("stream");
    static_cast<void>(data::write_corpus_store(c, dir, 3));
    const data::corpus_store store = data::corpus_store::open(dir);
    std::vector<std::size_t> seen;
    store.for_each_building([&](std::size_t index, data::building&& b) {
        seen.push_back(index);
        expect_building_eq(b, c.buildings[index]);
    });
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// --- ndjson -----------------------------------------------------------------

TEST(ndjson, escapes_strings) {
    EXPECT_EQ(service::json_escape("plain"), "plain");
    EXPECT_EQ(service::json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(service::json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
    EXPECT_EQ(service::json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(ndjson, ok_report_line_has_full_schema) {
    runtime::building_report report;
    report.index = 3;
    report.name = "hall \"A\"";
    report.ok = true;
    report.seed = 42;
    report.seconds = 0.5;
    report.result.num_clusters = 2;
    report.result.cluster_to_floor = {0, 1};
    report.result.has_ground_truth = true;
    report.result.ari = 0.5;
    report.result.nmi = 1.0;
    report.result.edit_distance = 0.0;

    const std::string line = service::to_ndjson(report);
    EXPECT_EQ(line,
              "{\"index\":3,\"name\":\"hall \\\"A\\\"\",\"ok\":true,\"seed\":42,"
              "\"num_clusters\":2,\"cluster_to_floor\":[0,1],\"has_ground_truth\":true,"
              "\"ari\":0.5,\"nmi\":1,\"edit_distance\":0,\"seconds\":0.5,\"error\":null}");

    service::ndjson_options no_timing;
    no_timing.include_timing = false;
    EXPECT_EQ(service::to_ndjson(report, no_timing).find("seconds"), std::string::npos);
}

TEST(ndjson, failed_report_nulls_result_fields) {
    runtime::building_report report;
    report.index = 0;
    report.name = "broken";
    report.ok = false;
    report.error = "validate failed";
    const std::string line = service::to_ndjson(report);
    EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(line.find("\"num_clusters\":null"), std::string::npos);
    EXPECT_NE(line.find("\"error\":\"validate failed\""), std::string::npos);
}

TEST(ndjson, exporter_counts_lines_and_input_order_rejects_duplicates) {
    runtime::building_report a;
    a.index = 1;
    a.name = "a";
    runtime::building_report b;
    b.index = 0;
    b.name = "b";

    std::ostringstream stream;
    service::ndjson_exporter exporter(stream);
    exporter.write(a);
    exporter.write(b);
    EXPECT_EQ(exporter.lines_written(), 2u);

    std::ostringstream ordered;
    service::export_input_order(ordered, {a, b});
    // Input order: index 0 first, despite completion order.
    EXPECT_LT(ordered.str().find("\"b\""), ordered.str().find("\"a\""));

    std::ostringstream dup;
    EXPECT_THROW(service::export_input_order(dup, {a, a}), std::invalid_argument);
}

// --- floor_service ----------------------------------------------------------

TEST(floor_service, building_submits_match_batch_runner_bitwise) {
    const data::corpus c = tiny_corpus(3);

    runtime::batch_config batch_cfg;
    batch_cfg.pipeline = fast_pipeline();
    batch_cfg.seed = 99;
    batch_cfg.num_threads = 1;
    const runtime::batch_result batch = runtime::batch_runner(batch_cfg).run(c);

    service::floor_service svc(fast_service_config(2));
    std::vector<service::floor_service::job> jobs;
    for (const auto& b : c.buildings) jobs.push_back(svc.submit(b));
    svc.wait_all();

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_EQ(jobs[i].state(), service::job_state::done);
        const auto& reports = jobs[i].reports();
        ASSERT_EQ(reports.size(), 1u);
        const runtime::building_report& served = reports[0];
        const runtime::building_report& batched = batch.reports[i];
        EXPECT_TRUE(served.ok);
        EXPECT_EQ(served.index, batched.index);
        EXPECT_EQ(served.seed, batched.seed);
        EXPECT_EQ(served.seed, runtime::task_seed(99, i));
        EXPECT_EQ(served.result.assignment, batched.result.assignment);
        EXPECT_EQ(served.result.cluster_to_floor, batched.result.cluster_to_floor);
        EXPECT_EQ(served.result.embeddings, batched.result.embeddings);
        EXPECT_EQ(served.result.ari, batched.result.ari);
    }

    const service::service_stats stats = svc.stats();
    EXPECT_EQ(stats.jobs_submitted, 3u);
    EXPECT_EQ(stats.jobs_done, 3u);
    EXPECT_EQ(stats.buildings_ok, 3u);
    EXPECT_EQ(stats.buildings_done, 3u);
    EXPECT_GT(stats.latency.p50, 0.0);
    EXPECT_GE(stats.latency.p99, stats.latency.p50);
}

TEST(floor_service, shard_job_streams_and_matches_batch) {
    const data::corpus c = tiny_corpus(4);
    const std::string dir = scratch_dir("svc_shard");
    static_cast<void>(data::write_corpus_store(c, dir, 2));
    const data::corpus_store store = data::corpus_store::open(dir);

    runtime::batch_config batch_cfg;
    batch_cfg.pipeline = fast_pipeline();
    batch_cfg.seed = 99;
    batch_cfg.num_threads = 1;
    const runtime::batch_result batch = runtime::batch_runner(batch_cfg).run(c);

    service::floor_service svc(fast_service_config(2));
    std::vector<service::floor_service::job> jobs;
    for (std::size_t s = 0; s < store.num_shards(); ++s)
        jobs.push_back(svc.submit(service::make_shard_ref(store, s)));
    svc.wait_all();

    for (std::size_t s = 0; s < jobs.size(); ++s) {
        const auto& reports = jobs[s].reports();
        ASSERT_EQ(reports.size(), 2u);
        for (const auto& served : reports) {
            ASSERT_TRUE(served.ok) << served.error;
            const runtime::building_report& batched = batch.reports[served.index];
            EXPECT_EQ(served.name, batched.name);
            EXPECT_EQ(served.seed, batched.seed);
            EXPECT_EQ(served.result.assignment, batched.result.assignment);
            EXPECT_EQ(served.result.embeddings, batched.result.embeddings);
        }
    }
}

TEST(floor_service, shard_ending_early_reports_missing_buildings_failed) {
    const std::string dir = scratch_dir("svc_short");
    {
        data::shard_writer writer(dir + "/short.csv");
        writer.append(tiny_building(0));
        writer.close();
    }
    service::floor_service svc(fast_service_config(1));
    auto job = svc.submit(service::shard_ref{dir + "/short.csv", 0, 3});
    const auto& reports = job.reports();
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_TRUE(reports[0].ok);
    EXPECT_FALSE(reports[1].ok);
    EXPECT_NE(reports[1].error.find("shard ended early"), std::string::npos);
    EXPECT_FALSE(reports[2].ok);
    EXPECT_EQ(job.state(), service::job_state::done);  // not a cancellation

    const service::service_stats stats = svc.stats();
    EXPECT_EQ(stats.buildings_ok, 1u);
    EXPECT_EQ(stats.buildings_failed, 2u);
    EXPECT_EQ(stats.buildings_cancelled, 0u);
}

TEST(floor_service, pause_gates_jobs_and_cancel_skips_queued_work) {
    service::service_config cfg = fast_service_config(1);
    service::floor_service svc(cfg);
    svc.pause();

    auto j1 = svc.submit(tiny_building(0));
    auto j2 = svc.submit(tiny_building(1));
    EXPECT_THROW(svc.wait_all(), std::logic_error);  // paused with pending jobs

    EXPECT_TRUE(j2.cancel());
    svc.resume();
    svc.wait_all();

    EXPECT_EQ(j1.state(), service::job_state::done);
    EXPECT_TRUE(j1.reports()[0].ok);
    EXPECT_EQ(j2.state(), service::job_state::cancelled);
    ASSERT_EQ(j2.reports().size(), 1u);
    EXPECT_FALSE(j2.reports()[0].ok);
    EXPECT_EQ(j2.reports()[0].error, "cancelled");
    EXPECT_FALSE(j2.cancel());  // already finished

    const service::service_stats stats = svc.stats();
    EXPECT_EQ(stats.jobs_done, 1u);
    EXPECT_EQ(stats.jobs_cancelled, 1u);
    EXPECT_EQ(stats.buildings_ok, 1u);
    EXPECT_EQ(stats.buildings_cancelled, 1u);
}

TEST(floor_service, submit_blocks_at_max_pending_jobs) {
    service::service_config cfg = fast_service_config(1);
    cfg.max_pending_jobs = 2;
    service::floor_service svc(cfg);
    svc.pause();  // park the worker so pending jobs cannot drain

    static_cast<void>(svc.submit(tiny_building(0)));
    static_cast<void>(svc.submit(tiny_building(1)));
    EXPECT_EQ(svc.stats().jobs_submitted, 2u);

    std::atomic<bool> third_submitted{false};
    std::thread submitter([&] {
        static_cast<void>(svc.submit(tiny_building(2)));
        third_submitted.store(true);
    });
    // The third submit must be blocked by backpressure while paused. (A
    // short sleep can only make a broken implementation pass *flakily*; a
    // correct one never sets the flag before resume.)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(third_submitted.load());

    svc.resume();
    submitter.join();
    EXPECT_TRUE(third_submitted.load());
    svc.wait_all();
    EXPECT_EQ(svc.stats().buildings_ok, 3u);
}

TEST(floor_service, rejects_zero_backpressure_bound) {
    service::service_config cfg = fast_service_config(1);
    cfg.max_pending_jobs = 0;
    EXPECT_THROW(service::floor_service bad(cfg), std::invalid_argument);
}

TEST(floor_service, on_report_streams_in_completion_order) {
    service::service_config cfg = fast_service_config(2);
    std::atomic<std::size_t> reported{0};
    cfg.on_report = [&](const runtime::building_report& report) {
        EXPECT_FALSE(report.name.empty());
        ++reported;
    };
    service::floor_service svc(cfg);
    for (std::size_t i = 0; i < 3; ++i) static_cast<void>(svc.submit(tiny_building(i)));
    svc.wait_all();
    EXPECT_EQ(reported.load(), 3u);
}

// --- end-to-end determinism (the PR's acceptance criterion) -----------------

TEST(service_e2e, ndjson_reexport_is_byte_identical_across_threads_and_shard_sizes) {
    // ≥ 32 generated buildings, sharded to disk, served through the async
    // front-end; the input-order NDJSON must not depend on the worker count
    // or the shard size, and must equal a blocking batch over the corpus.
    const data::corpus city = tiny_corpus(32);

    runtime::batch_config batch_cfg;
    batch_cfg.pipeline = fast_pipeline();
    batch_cfg.seed = 99;
    batch_cfg.num_threads = 1;
    const runtime::batch_result batch = runtime::batch_runner(batch_cfg).run(city);
    EXPECT_EQ(batch.num_ok, city.buildings.size());
    std::ostringstream batch_ndjson;
    service::export_input_order(batch_ndjson, batch.reports);

    std::vector<std::string> exports;
    for (const std::size_t shard_size : {4u, 8u}) {
        const std::string dir = scratch_dir("e2e_s" + std::to_string(shard_size));
        static_cast<void>(data::write_corpus_store(city, dir, shard_size));
        const data::corpus_store store = data::corpus_store::open(dir);

        for (const std::size_t threads : {1u, 4u}) {
            service::floor_service svc(fast_service_config(threads));
            std::vector<service::floor_service::job> jobs;
            for (std::size_t s = 0; s < store.num_shards(); ++s)
                jobs.push_back(svc.submit(service::make_shard_ref(store, s)));
            svc.wait_all();

            std::vector<runtime::building_report> reports;
            for (const auto& job : jobs)
                for (const auto& report : job.reports()) reports.push_back(report);
            ASSERT_EQ(reports.size(), city.buildings.size());

            std::ostringstream out;
            service::export_input_order(out, std::move(reports));
            exports.push_back(out.str());
        }
    }

    ASSERT_EQ(exports.size(), 4u);
    for (std::size_t i = 1; i < exports.size(); ++i)
        EXPECT_EQ(exports[0], exports[i]) << "export " << i << " diverged";
    EXPECT_EQ(exports[0], batch_ndjson.str()) << "service diverged from batch_runner";
}

}  // namespace
