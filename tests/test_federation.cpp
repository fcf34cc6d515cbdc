// Tests for the federation subsystem: store_registry manifest merging and
// duplicate detection, router policies (round-robin, least-queue-depth,
// content-hash affinity) against synthetic probes and against live fleets,
// merged get_stats, cancel/flush fan-out — and the acceptance bar: the
// federated input-order NDJSON re-export is byte-identical to a single
// floor_service run over the concatenated corpus at every tested
// (stores × backends × threads) combination.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "service/fault_plan.hpp"

#include "api/client.hpp"
#include "api/codec.hpp"
#include "data/corpus_store.hpp"
#include "federation/fault_tolerance.hpp"
#include "federation/federated_server.hpp"
#include "federation/resident_directory.hpp"
#include "ingest/append.hpp"
#include "federation/router.hpp"
#include "federation/store_registry.hpp"
#include "net/metrics.hpp"
#include "runtime/batch_runner.hpp"
#include "service/floor_service.hpp"
#include "service/ndjson_export.hpp"
#include "sim/building_generator.hpp"

// Fork-based death tests (the crash-mid-append drill) are unreliable under
// ThreadSanitizer: the forked child of a threaded TSan process can deadlock
// in the runtime before it ever reaches the abort. The CI ingestion chaos
// smoke covers the same drill end to end over a real socket.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FISONE_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define FISONE_TSAN 1
#endif

// Live-heap counter: every replaceable operator new and delete moves
// `g_live_bytes` by the block's requested size, kept in a header in front of
// the block, so a test can tell how many heap bytes the process still holds
// after a call (RSS cannot: the allocator keeps freed pages).
namespace {
std::atomic<std::int64_t> g_live_bytes{0};

void* counted_new(std::size_t n, std::size_t align) noexcept {
    const std::size_t pad = std::max(align, alignof(std::max_align_t));
    char* base = static_cast<char*>(
        pad == alignof(std::max_align_t) ? std::malloc(n + pad)
                                         : std::aligned_alloc(pad, (n + 2 * pad - 1) / pad * pad));
    if (base == nullptr) return nullptr;
    std::memcpy(base + pad - sizeof n, &n, sizeof n);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
    return base + pad;
}

void* counted_new_or_throw(std::size_t n, std::size_t align) {
    void* p = counted_new(n, align);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void counted_delete(void* p, std::size_t align) noexcept {
    if (p == nullptr) return;
    const std::size_t pad = std::max(align, alignof(std::max_align_t));
    char* const block = static_cast<char*>(p);
    std::size_t n = 0;
    std::memcpy(&n, block - sizeof n, sizeof n);
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(n), std::memory_order_relaxed);
    std::free(block - pad);
}
}  // namespace

void* operator new(std::size_t n) { return counted_new_or_throw(n, 0); }
void* operator new[](std::size_t n) { return counted_new_or_throw(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
    return counted_new_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
    return counted_new_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_new(n, 0); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_new(n, 0); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
    return counted_new(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
    return counted_new(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { counted_delete(p, 0); }
void operator delete[](void* p) noexcept { counted_delete(p, 0); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p, 0); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p, 0); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_delete(p, 0); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_delete(p, 0); }
void operator delete(void* p, std::align_val_t a) noexcept {
    counted_delete(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
    counted_delete(p, static_cast<std::size_t>(a));
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
    counted_delete(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
    counted_delete(p, static_cast<std::size_t>(a));
}
void operator delete(void* p, std::align_val_t a, const std::nothrow_t&) noexcept {
    counted_delete(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::align_val_t a, const std::nothrow_t&) noexcept {
    counted_delete(p, static_cast<std::size_t>(a));
}

namespace {

using namespace fisone;

// --- helpers ----------------------------------------------------------------

data::building tiny_building(std::size_t i) {
    sim::building_spec spec;
    spec.name = "fed-";
    spec.name += std::to_string(i);
    spec.num_floors = 3 + i % 2;
    spec.samples_per_floor = 20;
    spec.aps_per_floor = 6;
    spec.seed = 900 + i;
    return sim::generate_building(spec).building;
}

data::corpus tiny_corpus(std::size_t count) {
    data::corpus c;
    c.name = "fed-city";
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
    cfg.seed = 4242;
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
                     ("fisone_fed_" + tag + "_" + std::to_string(getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    made.dirs.push_back(dir);
    return dir.string();
}

/// Split \p c into \p parts contiguous sub-corpora, write each as a store
/// under `<root>/store-<k>`, and return the store directories. Mounting the
/// stores in order reproduces the corpus' global building order.
std::vector<std::string> split_into_stores(const data::corpus& c, std::size_t parts,
                                           const std::string& root,
                                           std::size_t shard_size) {
    std::vector<std::string> dirs;
    const std::size_t n = c.buildings.size();
    const std::size_t base = n / parts;
    std::size_t first = 0;
    for (std::size_t k = 0; k < parts; ++k) {
        const std::size_t count = base + (k < n % parts ? 1 : 0);
        data::corpus part;
        part.name = c.name + "-part-" + std::to_string(k);
        part.buildings.assign(c.buildings.begin() + static_cast<std::ptrdiff_t>(first),
                              c.buildings.begin() + static_cast<std::ptrdiff_t>(first + count));
        const std::string dir = (std::filesystem::path(root) / ("store-" + std::to_string(k)))
                                    .string();
        static_cast<void>(data::write_corpus_store(part, dir, shard_size));
        dirs.push_back(dir);
        first += count;
    }
    return dirs;
}

/// Input-order NDJSON of a single floor_service run over one store holding
/// the whole corpus — the baseline every federated combination must match
/// byte for byte.
std::string single_service_ndjson(const data::corpus_store& store) {
    service::floor_service svc(fast_service_config(1));
    std::vector<service::floor_service::job> jobs;
    for (std::size_t s = 0; s < store.num_shards(); ++s)
        jobs.push_back(svc.submit(service::make_shard_ref(store, s)));
    svc.wait_all();
    std::vector<runtime::building_report> reports;
    for (const auto& job : jobs)
        for (const auto& report : job.reports()) reports.push_back(report);
    std::ostringstream out;
    service::export_input_order(out, std::move(reports));
    return out.str();
}

/// Thread-safe sink that decodes every loopback frame into a typed response.
struct response_collector {
    std::mutex m;
    std::vector<api::response> responses;

    federation::federated_server::frame_sink sink() {
        return [this](std::string_view frame) {
            const api::decode_result<api::response> r = api::decode_response(frame);
            ASSERT_TRUE(r.ok()) << "undecodable response frame";
            const std::lock_guard<std::mutex> lock(m);
            responses.push_back(*r.value);
        };
    }

    template <class T>
    std::vector<T> of() {
        const std::lock_guard<std::mutex> lock(m);
        std::vector<T> out;
        for (const api::response& r : responses)
            if (const T* v = std::get_if<T>(&r)) out.push_back(*v);
        return out;
    }
};

// --- store_registry ---------------------------------------------------------

TEST(store_registry, mounts_stores_as_one_contiguous_namespace) {
    const std::string root = scratch_dir("registry");
    const data::corpus city = tiny_corpus(5);
    const std::vector<std::string> dirs = split_into_stores(city, 2, root, 2);

    federation::store_registry reg;
    EXPECT_EQ(reg.total_buildings(), 0u);
    EXPECT_EQ(reg.mount(dirs[0]), 0u);
    EXPECT_EQ(reg.mount(dirs[1]), 1u);
    EXPECT_EQ(reg.num_stores(), 2u);
    EXPECT_EQ(reg.total_buildings(), 5u);
    EXPECT_EQ(reg.store_offset(0), 0u);
    EXPECT_EQ(reg.store_offset(1), 3u);  // 5 buildings: 3 + 2

    // Global shard order tiles [0, 5) contiguously across stores.
    std::size_t expected_first = 0;
    for (const federation::mounted_shard& ms : reg.shards()) {
        EXPECT_EQ(ms.ref.first_index, expected_first);
        expected_first += ms.ref.num_buildings;
    }
    EXPECT_EQ(expected_first, 5u);

    const data::corpus_manifest merged = reg.merged_manifest();
    EXPECT_NO_THROW(merged.validate());
    EXPECT_EQ(merged.corpus_name, "fed-city-part-0+fed-city-part-1");
    EXPECT_EQ(merged.total_buildings(), 5u);

    EXPECT_THROW((void)reg.store(2), std::out_of_range);
    EXPECT_THROW((void)reg.store_offset(2), std::out_of_range);
}

TEST(store_registry, rejects_duplicate_building_id_merges) {
    const std::string root = scratch_dir("registry_dup");
    const data::corpus city = tiny_corpus(4);
    const std::vector<std::string> dirs = split_into_stores(city, 2, root, 2);

    // Mounting the same store twice: its shard files (and thus every
    // building id) would appear under two global index ranges.
    federation::store_registry same_store;
    static_cast<void>(same_store.mount(dirs[0]));
    EXPECT_THROW(static_cast<void>(same_store.mount(dirs[0])), std::invalid_argument);

    // Two different stores declaring the same corpus name collide every
    // `<corpus>/<local index>` building id in the merged namespace.
    data::corpus clone;
    clone.name = "fed-city-part-0";  // same name as dirs[0]'s corpus
    clone.buildings.push_back(tiny_building(7));
    const std::string clone_dir = (std::filesystem::path(root) / "clone").string();
    static_cast<void>(data::write_corpus_store(clone, clone_dir, 1));
    federation::store_registry same_name;
    static_cast<void>(same_name.mount(dirs[0]));
    EXPECT_THROW(static_cast<void>(same_name.mount(clone_dir)), std::invalid_argument);
    // The registry stays usable after a rejected mount.
    EXPECT_EQ(same_name.num_stores(), 1u);
    EXPECT_NO_THROW(static_cast<void>(same_name.mount(dirs[1])));
}

TEST(store_registry, confines_shard_paths_to_mounted_stores) {
    const std::string root = scratch_dir("registry_confine");
    const data::corpus city = tiny_corpus(4);
    const std::vector<std::string> dirs = split_into_stores(city, 2, root, 2);

    federation::store_registry reg;
    EXPECT_FALSE(reg.shard_allowed(dirs[0] + "/shard-0000.csv"));  // nothing mounted
    static_cast<void>(reg.mount(dirs[0]));
    EXPECT_TRUE(reg.shard_allowed(dirs[0] + "/shard-0000.csv"));
    EXPECT_FALSE(reg.shard_allowed(dirs[1] + "/shard-0000.csv"));  // not mounted
    EXPECT_FALSE(reg.shard_allowed("/etc/passwd"));
    // Dot-segments must not escape the store root.
    EXPECT_FALSE(reg.shard_allowed(dirs[0] + "/../store-1/shard-0000.csv"));
    static_cast<void>(reg.mount(dirs[1]));
    EXPECT_TRUE(reg.shard_allowed(dirs[1] + "/shard-0000.csv"));
}

// --- router -----------------------------------------------------------------

TEST(router, round_robin_cycles_and_skips_paused) {
    federation::router rt(federation::routing_policy::round_robin, 3);
    std::vector<federation::backend_probe> probes(3);
    EXPECT_EQ(rt.route(0, probes), 0u);
    EXPECT_EQ(rt.route(0, probes), 1u);
    EXPECT_EQ(rt.route(0, probes), 2u);
    EXPECT_EQ(rt.route(0, probes), 0u);
    probes[1].paused = true;
    EXPECT_EQ(rt.route(0, probes), 2u);  // cursor at 1 → skips to 2
    EXPECT_EQ(rt.route(0, probes), 0u);
}

TEST(router, least_queue_depth_prefers_idle_unpaused_backends) {
    federation::router rt(federation::routing_policy::least_queue_depth, 3);
    std::vector<federation::backend_probe> probes(3);
    probes[0].queue_depth = 4;
    probes[1].queue_depth = 1;
    probes[2].queue_depth = 2;
    EXPECT_EQ(rt.route(0, probes), 1u);
    probes[1].paused = true;  // paused backends never receive new work
    EXPECT_EQ(rt.route(0, probes), 2u);
    probes[2].queue_depth = 4;  // tie between 0 and 2 → lowest index
    EXPECT_EQ(rt.route(0, probes), 0u);
}

TEST(router, content_hash_affinity_is_stable_and_probes_past_paused) {
    federation::router rt(federation::routing_policy::content_hash_affinity, 4);
    std::vector<federation::backend_probe> probes(4);
    const std::size_t home = rt.route(10, probes);
    EXPECT_EQ(home, 2u);  // 10 % 4
    for (int i = 0; i < 3; ++i) EXPECT_EQ(rt.route(10, probes), home);  // stable
    probes[2].paused = true;
    EXPECT_EQ(rt.route(10, probes), 3u);  // forward from the paused home slot
    probes[3].paused = true;
    EXPECT_EQ(rt.route(10, probes), 0u);  // wraps
}

TEST(router, whole_fleet_paused_parks_at_natural_choice) {
    federation::router rt(federation::routing_policy::least_queue_depth, 2);
    std::vector<federation::backend_probe> probes(2);
    probes[0].paused = probes[1].paused = true;
    probes[1].queue_depth = 9;
    EXPECT_EQ(rt.route(0, probes), 0u);
}

TEST(router, rejects_degenerate_inputs) {
    EXPECT_THROW(federation::router(federation::routing_policy::round_robin, 0),
                 std::invalid_argument);
    federation::router rt(federation::routing_policy::round_robin, 2);
    const std::vector<federation::backend_probe> three(3);
    EXPECT_THROW(static_cast<void>(rt.route(0, three)), std::invalid_argument);
}

// --- merged stats -----------------------------------------------------------

TEST(merge_backend_stats, sums_counters_and_pools_latencies) {
    // Every counter and gauge row of the stats table gets its own value in
    // each snapshot, so a row the merge skips or mixes up shows.
    service::service_snapshot a, b;
    std::size_t next = 1;
    for (const service::stat_field& f : service::k_service_stat_fields) {
        if (f.kind == service::stat_kind::latency) continue;
        a.stats.*f.count = next;
        b.stats.*f.count = 100 * next;
        ++next;
    }
    obs::latency_histogram pooled;
    for (const double x : {0.1, 0.2, 0.3, 0.4, 0.5}) {
        a.latencies.add(x);
        pooled.add(x);
    }
    for (const double x : {1.0, 2.0}) {
        b.latencies.add(x);
        pooled.add(x);
    }

    const service::service_stats merged = federation::merge_backend_stats({a, b});
    for (const service::stat_field& f : service::k_service_stat_fields) {
        if (f.kind != service::stat_kind::latency) {
            EXPECT_EQ(merged.*f.count, a.stats.*f.count + b.stats.*f.count) << f.metric;
            continue;
        }
        const obs::latency_summary& l = merged.*f.latency;
        EXPECT_DOUBLE_EQ(l.p50, pooled.percentile(50.0)) << f.metric;
        EXPECT_DOUBLE_EQ(l.p90, pooled.percentile(90.0)) << f.metric;
        EXPECT_DOUBLE_EQ(l.p99, pooled.percentile(99.0)) << f.metric;
        EXPECT_EQ(l.count, 7u) << f.metric;
        EXPECT_DOUBLE_EQ(l.sum, pooled.sum()) << f.metric;
        EXPECT_EQ(l.le, pooled.le_counts()) << f.metric;
    }

    // Every row reaches the page: its family, and on the latency row the
    // histogram family too.
    const std::string page = net::render_metrics({}, merged, {});
    for (const service::stat_field& f : service::k_service_stat_fields) {
        if (f.kind != service::stat_kind::latency) {
            EXPECT_NE(page.find(std::string(f.metric) + " " +
                                std::to_string(merged.*f.count) + "\n"),
                      std::string::npos)
                << f.metric;
            continue;
        }
        EXPECT_NE(page.find(std::string("# TYPE ") + f.metric + " summary\n"),
                  std::string::npos);
        EXPECT_NE(page.find(std::string(f.histogram) + "_count 7\n"), std::string::npos);
    }

    const service::service_stats empty = federation::merge_backend_stats({});
    EXPECT_EQ(empty.jobs_submitted, 0u);
    EXPECT_DOUBLE_EQ(empty.latency.p50, 0.0);
}

// --- federated_server -------------------------------------------------------

TEST(federated_server, rejects_zero_backends_and_unmounted_shard_paths) {
    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 0;
    EXPECT_THROW(federation::federated_server{cfg}, std::invalid_argument);

    cfg.num_backends = 1;
    federation::federated_server srv(cfg);  // no stores mounted
    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());
    service::shard_ref ref;
    ref.path = "/definitely/not/mounted.csv";
    ref.num_buildings = 1;
    s.handle(api::identify_shard_request{77, ref});
    s.finish();
    const auto errors = collected.of<api::error_response>();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].correlation_id, 77u);
    EXPECT_EQ(errors[0].code, api::error_code::bad_request);
}

TEST(federated_server, ndjson_byte_identical_to_single_service_at_every_combination) {
    const std::string root = scratch_dir("e2e");
    const data::corpus city = tiny_corpus(8);

    // The baseline: one store, one floor_service, whole corpus.
    const std::string whole_dir = (std::filesystem::path(root) / "whole").string();
    static_cast<void>(data::write_corpus_store(city, whole_dir, 3));
    const std::string baseline = single_service_ndjson(data::corpus_store::open(whole_dir));
    ASSERT_FALSE(baseline.empty());

    const federation::routing_policy policies[] = {
        federation::routing_policy::round_robin,
        federation::routing_policy::least_queue_depth,
        federation::routing_policy::content_hash_affinity,
    };
    for (const std::size_t stores : {2u, 3u}) {
        const std::vector<std::string> dirs = split_into_stores(
            city, stores, (std::filesystem::path(root) / std::to_string(stores)).string(), 2);
        for (const std::size_t backends : {1u, 2u, 4u}) {
            for (const std::size_t threads : {1u, 4u}) {
              for (const federation::routing_policy policy : policies) {
                federation::federation_config cfg;
                cfg.service = fast_service_config(threads);
                cfg.num_backends = backends;
                cfg.policy = policy;  // identity must hold under every policy
                cfg.store_dirs = dirs;
                federation::federated_server srv(cfg);
                ASSERT_EQ(srv.registry().total_buildings(), city.buildings.size());

                // The framed wire path, exactly as a network client would.
                std::stringstream wire_in, wire_out;
                api::client cli(static_cast<std::ostream&>(wire_in));
                for (const federation::mounted_shard& ms : srv.registry().shards())
                    static_cast<void>(cli.identify_shard(ms.ref));
                // Flush first so the stats snapshot sees a drained fleet.
                static_cast<void>(cli.flush());
                static_cast<void>(cli.get_stats());
                srv.serve(wire_in, wire_out);
                static_cast<void>(cli.ingest(wire_out));
                ASSERT_TRUE(cli.errors().empty());

                std::ostringstream ndjson;
                service::export_input_order(ndjson, cli.reports());
                EXPECT_EQ(ndjson.str(), baseline)
                    << stores << " stores x " << backends << " backends x " << threads
                    << " threads ("
                    << federation::routing_policy_name(cfg.policy) << ")";

                // get_stats totals equal the sum over backends.
                const auto stats = cli.last_stats();
                ASSERT_TRUE(stats.has_value());
                EXPECT_EQ(stats->buildings_done, city.buildings.size());
                EXPECT_EQ(stats->buildings_ok, city.buildings.size());
                std::size_t sum_done = 0, sum_submitted = 0, sum_hits = 0, sum_misses = 0;
                for (std::size_t k = 0; k < srv.num_backends(); ++k) {
                    const service::service_stats bs = srv.backend(k).stats();
                    sum_done += bs.buildings_done;
                    sum_submitted += bs.jobs_submitted;
                    sum_hits += bs.cache_hits;
                    sum_misses += bs.cache_misses;
                }
                EXPECT_EQ(stats->buildings_done, sum_done);
                EXPECT_EQ(stats->jobs_submitted, sum_submitted);
                EXPECT_EQ(stats->cache_hits, sum_hits);
                EXPECT_EQ(stats->cache_misses, sum_misses);
              }
            }
        }
    }
}

TEST(federated_server, affinity_keeps_resubmissions_on_warm_caches) {
    const std::size_t n = 6;
    const data::corpus city = tiny_corpus(n);

    // Baseline: a 1-backend fleet is trivially affine — every resubmission
    // hits its (only) cache.
    const auto warm_hits = [&](std::size_t backends) {
        federation::federation_config cfg;
        cfg.service = fast_service_config(1);
        cfg.num_backends = backends;
        cfg.policy = federation::routing_policy::content_hash_affinity;
        federation::federated_server srv(cfg);
        response_collector collected;
        federation::federated_server::session s = srv.open(collected.sink());
        for (std::size_t pass = 0; pass < 2; ++pass) {
            for (std::size_t i = 0; i < n; ++i) {
                api::identify_building_request req;
                req.correlation_id = 100 * pass + i;
                req.has_index = true;
                req.corpus_index = i;
                req.b = city.buildings[i];
                s.handle(api::request{req});
            }
            s.handle(api::flush_request{999 + pass});
        }
        return srv.stats().cache_hits;
    };
    const std::size_t single = warm_hits(1);
    EXPECT_EQ(single, n);  // every second-pass submission served warm
    // Content-hash affinity on a fleet keeps the warm-cache hit rate at the
    // single-backend baseline: repeats land where their result lives.
    EXPECT_GE(warm_hits(3), single);
}

TEST(federated_server, identify_resident_resolves_names_and_fresh_bypasses_cache) {
    const std::size_t n = 4;
    const std::string root = scratch_dir("resident");
    const data::corpus city = tiny_corpus(n);
    const std::vector<std::string> dirs = split_into_stores(city, 2, root, 1);

    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 2;
    cfg.store_dirs = dirs;
    federation::federated_server srv(cfg);
    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());

    // Resolve every building by name; each answer carries its request's
    // correlation id and the right building's report.
    for (std::size_t i = 0; i < n; ++i) {
        api::identify_resident_request req;
        req.correlation_id = 100 + i;
        req.name = city.buildings[i].name;
        s.handle(api::request{req});
    }
    s.handle(api::flush_request{1});
    const std::vector<api::building_response> first = collected.of<api::building_response>();
    ASSERT_EQ(first.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = std::find_if(first.begin(), first.end(), [&](const auto& b) {
            return b.correlation_id == 100 + i;
        });
        ASSERT_NE(it, first.end()) << "no response for resident " << i;
        EXPECT_EQ(it->report.name, city.buildings[i].name);
        EXPECT_TRUE(it->report.ok);
    }

    // A warm repeat by name is served from the result cache...
    const std::size_t hits_before = srv.stats().cache_hits;
    api::identify_resident_request warm;
    warm.correlation_id = 200;
    warm.name = city.buildings[0].name;
    s.handle(api::request{warm});
    s.handle(api::flush_request{2});
    EXPECT_EQ(srv.stats().cache_hits, hits_before + 1);

    // ...and `fresh` forwards as no_cache: the pipeline reruns.
    api::identify_resident_request fresh;
    fresh.correlation_id = 201;
    fresh.name = city.buildings[0].name;
    fresh.fresh = true;
    s.handle(api::request{fresh});
    s.handle(api::flush_request{3});
    EXPECT_EQ(srv.stats().cache_hits, hits_before + 1);  // no new hit
    ASSERT_EQ(collected.of<api::building_response>().size(), n + 2);

    // An unknown name answers a typed bad_request, not a hang or a crash.
    api::identify_resident_request unknown;
    unknown.correlation_id = 999;
    unknown.name = "no-such-building";
    s.handle(api::request{unknown});
    const std::vector<api::error_response> errors = collected.of<api::error_response>();
    const auto err = std::find_if(errors.begin(), errors.end(),
                                  [](const auto& e) { return e.correlation_id == 999; });
    ASSERT_NE(err, errors.end());
    EXPECT_EQ(err->code, api::error_code::bad_request);
}

TEST(federated_server, least_queue_depth_never_routes_to_paused_backend) {
    const std::size_t n = 5;
    const data::corpus city = tiny_corpus(n);
    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 2;
    cfg.policy = federation::routing_policy::least_queue_depth;
    federation::federated_server srv(cfg);

    srv.backend(1).backing_service().pause();
    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());
    for (std::size_t i = 0; i < n; ++i) {
        api::identify_building_request req;
        req.correlation_id = i;
        req.b = city.buildings[i];
        s.handle(api::request{req});
    }
    s.handle(api::flush_request{50});  // backend 1 is paused but empty: drains
    EXPECT_EQ(srv.backend(1).stats().jobs_submitted, 0u);
    EXPECT_EQ(srv.backend(0).stats().jobs_submitted, n);
    EXPECT_EQ(collected.of<api::building_response>().size(), n);
    srv.backend(1).backing_service().resume();
}

TEST(federated_server, every_policy_drains_cleanly_on_flush) {
    const std::size_t n = 4;
    const std::string root = scratch_dir("drain");
    const data::corpus city = tiny_corpus(n);
    const std::vector<std::string> dirs = split_into_stores(city, 2, root, 1);

    for (const federation::routing_policy policy :
         {federation::routing_policy::round_robin,
          federation::routing_policy::least_queue_depth,
          federation::routing_policy::content_hash_affinity}) {
        federation::federation_config cfg;
        cfg.service = fast_service_config(2);
        cfg.num_backends = 2;
        cfg.policy = policy;
        cfg.store_dirs = dirs;
        federation::federated_server srv(cfg);
        response_collector collected;
        federation::federated_server::session s = srv.open(collected.sink());
        for (const federation::mounted_shard& ms : srv.registry().shards())
            s.handle(api::identify_shard_request{ms.ref.first_index + 1, ms.ref});
        s.handle(api::flush_request{1000});
        // After the flush answered, nothing is pending anywhere.
        const service::service_stats stats = srv.stats();
        EXPECT_EQ(stats.buildings_done, n) << federation::routing_policy_name(policy);
        EXPECT_EQ(stats.jobs_queued, 0u);
        EXPECT_EQ(stats.jobs_running, 0u);
        EXPECT_EQ(collected.of<api::flush_response>().size(), 1u);
        EXPECT_EQ(collected.of<api::building_response>().size(), n);
    }
}

TEST(federated_server, cancel_routes_to_owning_backend_and_unknown_ids_answer_false) {
    const data::corpus city = tiny_corpus(2);
    // A building is cancelled through its current attempt's job.
    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 2;
    cfg.policy = federation::routing_policy::round_robin;
    federation::federated_server srv(cfg);

    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());

    // Hold the fleet so the cancel deterministically lands before the job.
    srv.pause();
    api::identify_building_request req;
    req.correlation_id = 7;
    req.b = city.buildings[0];
    s.handle(api::request{req});
    s.handle(api::cancel_job_request{8, 7});    // known target → its job cancels
    s.handle(api::cancel_job_request{9, 404});  // unknown target → refused
    srv.resume();
    s.handle(api::flush_request{10});

    const auto cancels = collected.of<api::cancel_response>();
    ASSERT_EQ(cancels.size(), 2u);
    EXPECT_EQ(cancels[0].correlation_id, 8u);
    EXPECT_EQ(cancels[0].target_correlation_id, 7u);
    EXPECT_TRUE(cancels[0].accepted);
    EXPECT_EQ(cancels[1].correlation_id, 9u);
    EXPECT_FALSE(cancels[1].accepted);

    const auto buildings = collected.of<api::building_response>();
    ASSERT_EQ(buildings.size(), 1u);
    EXPECT_EQ(buildings[0].correlation_id, 7u);
    EXPECT_FALSE(buildings[0].report.ok);
    EXPECT_EQ(buildings[0].report.error, "cancelled");
}

// --- fault injection + fault tolerance ---------------------------------------

TEST(fault_plan, parses_specs_and_rejects_garbage) {
    const std::vector<service::fault_plan> plans =
        service::parse_fault_plans("0:fail_every=3,hang_ms=200;2:crash_on_submit=1", 3);
    ASSERT_EQ(plans.size(), 3u);
    EXPECT_EQ(plans[0].fail_every, 3u);
    EXPECT_EQ(plans[0].hang_ms, 200u);
    EXPECT_FALSE(plans[0].crash_on_submit);
    EXPECT_FALSE(plans[1].any());
    EXPECT_TRUE(plans[2].crash_on_submit);
    EXPECT_TRUE(plans[2].any());

    EXPECT_TRUE(service::parse_fault_plans("", 2).empty() ||
                !service::parse_fault_plans("", 2)[0].any());

    EXPECT_THROW(service::parse_fault_plans("5:fail_every=1", 2), std::invalid_argument);
    EXPECT_THROW(service::parse_fault_plans("0:warp_core=1", 2), std::invalid_argument);
    EXPECT_THROW(service::parse_fault_plans("0:fail_every=x", 2), std::invalid_argument);
    EXPECT_THROW(service::parse_fault_plans("nonsense", 2), std::invalid_argument);

    EXPECT_TRUE(service::is_transient_fault(
        std::string(service::k_transient_error_prefix) + "injected failure (execution #1)"));
    EXPECT_FALSE(service::is_transient_fault("pipeline diverged"));
}

/// Run \p count pinned-index building requests through \p srv and return
/// the input-order NDJSON of the collected reports (empty string when any
/// request erred or went missing — the caller asserts against that).
std::string campaign_ndjson(federation::federated_server& srv, std::size_t count) {
    const data::corpus city = tiny_corpus(count);
    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());
    for (std::size_t i = 0; i < count; ++i) {
        api::identify_building_request req;
        req.correlation_id = i + 1;
        req.has_index = true;
        req.corpus_index = i;
        req.b = city.buildings[i];
        s.handle(api::request{req});
    }
    s.handle(api::flush_request{9999});
    s.finish();

    EXPECT_TRUE(collected.of<api::error_response>().empty());
    std::vector<runtime::building_report> reports;
    for (const api::building_response& b : collected.of<api::building_response>())
        reports.push_back(b.report);
    if (reports.size() != count) return {};
    std::ostringstream out;
    service::export_input_order(out, std::move(reports));
    return out.str();
}

TEST(fault_tolerant_fleet, transient_failures_retry_to_byte_identical_ndjson) {
    // Baseline: the same campaign through a healthy fleet, which never
    // retries, fails over or fails a request.
    federation::federation_config healthy;
    healthy.service = fast_service_config(1);
    healthy.num_backends = 2;
    federation::federated_server healthy_srv(healthy);
    const std::string baseline = campaign_ndjson(healthy_srv, 6);
    ASSERT_FALSE(baseline.empty());
    const federation::health_snapshot calm = healthy_srv.health();
    EXPECT_EQ(calm.retries, 0u);
    EXPECT_EQ(calm.failovers, 0u);
    EXPECT_EQ(calm.deadline_exceeded, 0u);
    EXPECT_EQ(calm.backend_unavailable, 0u);
    EXPECT_EQ(calm.backend_up, std::vector<bool>(2, true));

    // Every third execution on backend 0 fails transiently; the fleet must
    // retry/failover to the exact same bytes.
    federation::federation_config cfg = healthy;
    cfg.policy = federation::routing_policy::round_robin;
    cfg.fault_plans = service::parse_fault_plans("0:fail_every=3", 2);
    federation::federated_server srv(cfg);
    EXPECT_EQ(campaign_ndjson(srv, 6), baseline);

    const federation::health_snapshot health = srv.health();
    EXPECT_GE(health.retries, 1u);
    EXPECT_EQ(health.backend_unavailable, 0u);
    EXPECT_EQ(health.deadline_exceeded, 0u);
}

TEST(fault_tolerant_fleet, submit_crashes_fail_over_and_trip_the_breaker) {
    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 2;
    cfg.policy = federation::routing_policy::round_robin;
    cfg.fault_plans = service::parse_fault_plans("0:crash_on_submit=1", 2);
    cfg.fault_tolerance.breaker_cooldown = std::chrono::milliseconds(60000);  // stay tripped
    federation::federated_server srv(cfg);

    EXPECT_FALSE(campaign_ndjson(srv, 8).empty());
    EXPECT_EQ(srv.backend(0).stats().jobs_submitted, 0u);  // crashed before enqueue
    EXPECT_EQ(srv.backend(1).stats().buildings_ok, 8u);

    const federation::health_snapshot health = srv.health();
    EXPECT_GE(health.failovers, 1u);
    ASSERT_EQ(health.backend_up.size(), 2u);
    EXPECT_FALSE(health.backend_up[0]);  // three straight crashes: breaker open
    EXPECT_TRUE(health.backend_up[1]);
}

TEST(fault_tolerant_fleet, exhausted_retries_answer_typed_backend_unavailable) {
    // One backend that always fails transiently: nowhere to fail over, so
    // after max_attempts the client gets a typed error, not a hang.
    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 1;
    cfg.fault_plans = service::parse_fault_plans("0:fail_every=1", 1);
    cfg.fault_tolerance.max_attempts = 3;
    federation::federated_server srv(cfg);

    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());
    api::identify_building_request req;
    req.correlation_id = 42;
    req.has_index = true;
    req.corpus_index = 0;
    req.b = tiny_building(0);
    s.handle(api::request{req});
    s.finish();

    EXPECT_TRUE(collected.of<api::building_response>().empty());
    const auto errors = collected.of<api::error_response>();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].correlation_id, 42u);
    EXPECT_EQ(errors[0].code, api::error_code::backend_unavailable);
    EXPECT_NE(errors[0].message.find("3 attempts"), std::string::npos) << errors[0].message;

    const federation::health_snapshot health = srv.health();
    EXPECT_EQ(health.backend_unavailable, 1u);
    EXPECT_EQ(health.retries, 2u);  // attempts 2 and 3
}

TEST(fault_tolerant_fleet, deadline_cancels_hung_backend_and_fails_over) {
    // Backend 0 hangs far longer than the deadline; the expiry must cancel
    // the hung attempt and reroute, and every request must still finish ok.
    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 2;
    cfg.policy = federation::routing_policy::round_robin;
    cfg.fault_plans = service::parse_fault_plans("0:hang_ms=60000", 2);
    cfg.fault_tolerance.request_timeout = std::chrono::milliseconds(2000);
    federation::federated_server srv(cfg);

    EXPECT_FALSE(campaign_ndjson(srv, 2).empty());

    const federation::health_snapshot health = srv.health();
    EXPECT_GE(health.retries, 1u);          // at least one expired attempt rerouted
    EXPECT_EQ(health.deadline_exceeded, 0u);  // nothing exhausted its deadline outright
}

TEST(fault_tolerant_fleet, half_open_probe_readmits_a_recovered_backend) {
    // Backend 0 fails its first three executions (tripping the breaker),
    // then recovers; after the cooldown one probe must readmit it.
    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 2;
    cfg.policy = federation::routing_policy::round_robin;
    cfg.fault_plans = service::parse_fault_plans("0:fail_first=3", 2);
    cfg.fault_tolerance.breaker_failure_threshold = 3;
    cfg.fault_tolerance.breaker_cooldown = std::chrono::milliseconds(300);
    federation::federated_server srv(cfg);

    EXPECT_FALSE(campaign_ndjson(srv, 6).empty());
    {
        const federation::health_snapshot health = srv.health();
        EXPECT_FALSE(health.backend_up[0]) << "three straight failures should trip";
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(400));  // past the cooldown
    EXPECT_FALSE(campaign_ndjson(srv, 6).empty());
    {
        const federation::health_snapshot health = srv.health();
        EXPECT_TRUE(health.backend_up[0]) << "a successful probe should close the breaker";
    }
    EXPECT_GT(srv.backend(0).stats().buildings_ok, 0u);  // really readmitted
}

TEST(fault_tolerant_fleet, shard_submission_fails_over_on_submit_crash) {
    const std::string root = scratch_dir("shard_crash");
    const data::corpus city = tiny_corpus(4);
    const std::string whole_dir = (std::filesystem::path(root) / "whole").string();
    static_cast<void>(data::write_corpus_store(city, whole_dir, 1));
    const std::string baseline = single_service_ndjson(data::corpus_store::open(whole_dir));

    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 2;
    cfg.store_dirs = {whole_dir};
    cfg.policy = federation::routing_policy::round_robin;
    cfg.fault_plans = service::parse_fault_plans("0:crash_on_submit=1", 2);
    federation::federated_server srv(cfg);

    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());
    for (const federation::mounted_shard& ms : srv.registry().shards())
        s.handle(api::identify_shard_request{ms.ref.first_index + 1, ms.ref});
    s.handle(api::flush_request{500});
    s.finish();

    EXPECT_TRUE(collected.of<api::error_response>().empty());
    std::vector<runtime::building_report> reports;
    for (const api::building_response& b : collected.of<api::building_response>())
        reports.push_back(b.report);
    std::ostringstream out;
    service::export_input_order(out, std::move(reports));
    EXPECT_EQ(out.str(), baseline);

    const federation::health_snapshot health = srv.health();
    EXPECT_GE(health.failovers, 1u);
}

TEST(fault_tolerant_fleet, shard_submission_with_no_survivor_answers_typed_error) {
    const std::string root = scratch_dir("shard_dead");
    const data::corpus city = tiny_corpus(1);
    const std::string dir = (std::filesystem::path(root) / "store").string();
    static_cast<void>(data::write_corpus_store(city, dir, 1));

    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 1;
    cfg.store_dirs = {dir};
    cfg.fault_plans = service::parse_fault_plans("0:crash_on_submit=1", 1);
    federation::federated_server srv(cfg);

    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());
    const federation::mounted_shard ms = srv.registry().shards().at(0);
    s.handle(api::identify_shard_request{11, ms.ref});
    s.finish();

    const auto errors = collected.of<api::error_response>();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].correlation_id, 11u);
    EXPECT_EQ(errors[0].code, api::error_code::backend_unavailable);
    EXPECT_TRUE(collected.of<api::building_response>().empty());
}

TEST(fault_tolerant_fleet, high_bit_correlation_ids_get_every_shard_response) {
    // No client correlation id is reserved: the fleet answers an id with
    // the top bit set like any other.
    const std::string root = scratch_dir("high_bit");
    const data::corpus city = tiny_corpus(3);
    const std::string dir = (std::filesystem::path(root) / "store").string();
    static_cast<void>(data::write_corpus_store(city, dir, city.buildings.size()));

    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 1;
    cfg.store_dirs = {dir};
    federation::federated_server srv(cfg);

    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());
    const std::uint64_t corr = (std::uint64_t{1} << 63) | 3;
    ASSERT_EQ(srv.registry().shards().size(), 1u);
    s.handle(api::identify_shard_request{corr, srv.registry().shards().at(0).ref});
    s.handle(api::flush_request{4});
    s.finish();

    EXPECT_TRUE(collected.of<api::error_response>().empty());
    EXPECT_EQ(collected.of<api::flush_response>().size(), 1u);
    const auto buildings = collected.of<api::building_response>();
    ASSERT_EQ(buildings.size(), city.buildings.size());
    for (const api::building_response& b : buildings) {
        EXPECT_EQ(b.correlation_id, corr);
        EXPECT_TRUE(b.report.ok) << b.report.error;
    }
}

TEST(fleet_health, stop_finishes_the_running_action_and_drops_the_rest) {
    // A watchdog action can hold the last reference to its fleet_health
    // (through a session), and the watchdog cannot join itself, so the
    // owner stops it from its own thread first. stop() must wait out the
    // action in flight, then run nothing more.
    auto health = std::make_shared<federation::fleet_health>(
        federation::fault_tolerance_config{}, 1);
    std::promise<void> entered;
    std::promise<void> release;
    const std::shared_future<void> go = release.get_future().share();
    std::atomic<int> ran{0};
    health->schedule_after(std::chrono::milliseconds(0), [keep = health, &entered, go, &ran] {
        entered.set_value();
        go.wait();
        ++ran;
    });
    health->schedule_after(std::chrono::hours(1), [&ran] { ran += 10; });
    entered.get_future().wait();

    std::atomic<bool> stopped{false};
    std::thread stopper([&] {
        health->stop();
        stopped = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(stopped.load());  // the running action holds it up
    release.set_value();
    stopper.join();
    EXPECT_EQ(ran.load(), 1);

    health->schedule_after(std::chrono::milliseconds(0), [&ran] { ran += 100; });
    health->stop();  // idempotent
    EXPECT_EQ(ran.load(), 1);
}

TEST(fault_tolerant_fleet, teardown_with_watchdog_action_pending_or_running_never_aborts) {
    // Every fleet runs the watchdog, and a watchdog action can hold the last
    // session — and through it the last reference to fleet_health besides
    // the fleet's own. Tear fleets down, session handle first, with such an
    // action running (an expired deadline answering through a slow sink) or
    // pending (a retry behind a long backoff). Neither may abort (the
    // watchdog joining itself) or answer a request twice.
    const data::building b = tiny_building(0);
    for (int i = 0; i < 50; ++i) {
        for (const bool running : {true, false}) {
            SCOPED_TRACE(std::string(running ? "running" : "pending") + " action, iteration " +
                         std::to_string(i));
            federation::federation_config cfg;
            cfg.service = fast_service_config(1);
            cfg.num_backends = 1;
            if (running) {
                cfg.fault_plans = service::parse_fault_plans("0:hang_ms=10", 1);
                cfg.fault_tolerance.request_timeout = std::chrono::milliseconds(2);
                cfg.fault_tolerance.max_attempts = 1;  // the expiry answers on the watchdog
            } else {
                cfg.fault_plans = service::parse_fault_plans("0:fail_every=1", 1);
                cfg.fault_tolerance.backoff_base = std::chrono::seconds(10);
                cfg.fault_tolerance.backoff_cap = std::chrono::seconds(10);
            }

            std::mutex m;
            std::vector<std::uint64_t> answered;  // correlation id of every terminal response
            std::promise<void> first;
            std::atomic<bool> seen{false};
            const auto sink = [&](std::string_view frame) {
                const api::decode_result<api::response> r = api::decode_response(frame);
                if (!r.ok()) return;
                if (const auto* br = std::get_if<api::building_response>(&*r.value)) {
                    const std::lock_guard<std::mutex> lock(m);
                    answered.push_back(br->correlation_id);
                } else if (const auto* er = std::get_if<api::error_response>(&*r.value)) {
                    const std::lock_guard<std::mutex> lock(m);
                    answered.push_back(er->correlation_id);
                }
                if (seen.exchange(true)) return;
                first.set_value();
                // Hold the answering thread — the watchdog, for an expired
                // deadline — while the session and the fleet go away.
                std::this_thread::sleep_for(std::chrono::milliseconds(30));
            };
            {
                auto srv = std::make_unique<federation::federated_server>(cfg);
                std::optional<federation::federated_server::session> s = srv->open(sink);
                // One request when the action runs: a second would queue its
                // answer behind the held sink and keep the fleet draining
                // until the action is done.
                for (std::uint64_t corr = 1; corr <= (running ? 1u : 2u); ++corr) {
                    api::identify_building_request req;
                    req.correlation_id = corr;
                    req.has_index = true;
                    req.corpus_index = corr - 1;
                    req.b = b;
                    s->handle(api::request{req});
                }
                if (running)
                    ASSERT_EQ(first.get_future().wait_for(std::chrono::seconds(30)),
                              std::future_status::ready);
                else
                    std::this_thread::sleep_for(std::chrono::milliseconds(i % 4));
                s.reset();
                srv.reset();
            }
            std::sort(answered.begin(), answered.end());  // every thread is joined
            EXPECT_EQ(std::adjacent_find(answered.begin(), answered.end()), answered.end())
                << "a request got two terminal responses";
        }
    }
}

TEST(fault_tolerant_fleet, rejects_misshapen_fault_plan_vector) {
    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 2;
    cfg.fault_plans.resize(1);  // neither empty nor one-per-backend
    EXPECT_THROW(federation::federated_server{cfg}, std::invalid_argument);
}

// --- live ingestion ---------------------------------------------------------

/// A fresh batch of scans for the schedule's building \p i: same name, a
/// different seed — folding them in moves the building's content hash.
data::building fresh_scans_for(std::size_t i, std::uint64_t seed) {
    sim::building_spec spec;
    spec.name = "fed-" + std::to_string(i);
    spec.num_floors = 3 + i % 2;
    spec.samples_per_floor = 8;
    spec.aps_per_floor = 6;
    spec.seed = seed;
    return sim::generate_building(spec).building;
}

/// Cold-rebuild baseline: one unfederated service over \p bs at pinned
/// indices [0, N) — what the served-after-append bytes must reproduce.
std::string cold_rebuild_ndjson(const std::vector<data::building>& bs) {
    service::floor_service svc(fast_service_config(1));
    std::mutex m;
    std::vector<runtime::building_report> reports;
    std::vector<service::floor_service::job> jobs;
    jobs.reserve(bs.size());
    for (std::size_t i = 0; i < bs.size(); ++i)
        jobs.push_back(svc.submit(bs[i], i, [&](const runtime::building_report& r) {
            const std::lock_guard<std::mutex> lock(m);
            reports.push_back(r);
        }));
    svc.wait_all();
    std::ostringstream out;
    service::export_input_order(out, std::move(reports));
    return out.str();
}

TEST(fault_plan, parses_and_bounds_crash_on_append) {
    const std::vector<service::fault_plan> plans =
        service::parse_fault_plans("0:crash_on_append=2", 2);
    EXPECT_EQ(plans[0].crash_on_append, 2u);
    EXPECT_TRUE(plans[0].any());
    EXPECT_EQ(plans[1].crash_on_append, 0u);
    // Only the two real checkpoints exist; anything else is a typo.
    EXPECT_THROW(service::parse_fault_plans("0:crash_on_append=3", 2),
                 std::invalid_argument);
    EXPECT_THROW(service::parse_fault_plans("0:crash_on_append=0", 2),
                 std::invalid_argument);
}

TEST(live_ingestion, append_reindexes_dirty_and_reserves_clean_from_cache) {
    const std::string root = scratch_dir("ingest_main");
    const data::corpus city = tiny_corpus(4);
    const std::vector<std::string> dirs = split_into_stores(city, 1, root, 2);
    const std::string corpus_name = "fed-city-part-0";

    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 2;
    cfg.store_dirs = dirs;
    federation::federated_server srv(cfg);

    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());

    // Warm campaign: the base corpus lands in the backend result caches.
    for (std::size_t i = 0; i < city.buildings.size(); ++i) {
        api::identify_building_request req;
        req.correlation_id = i + 1;
        req.has_index = true;
        req.corpus_index = i;
        req.b = city.buildings[i];
        s.handle(api::request{req});
    }
    s.handle(api::flush_request{100});

    // Subscribe to the building the append will touch, then append: new
    // scans for fed-1 plus a brand-new building.
    s.handle(api::request{api::watch_request{500, "fed-1", true}});
    api::append_scans_request ap;
    ap.correlation_id = 600;
    ap.corpus_name = corpus_name;
    ap.records = {fresh_scans_for(1, 7777), fresh_scans_for(9, 7778)};
    s.handle(api::request{std::move(ap)});
    // Flush is the barrier: append durable, dirty re-runs answered, AND the
    // subscriber's push delivered.
    s.handle(api::flush_request{101});

    const auto acks = collected.of<api::watch_ack_response>();
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_TRUE(acks[0].active);

    const auto appends = collected.of<api::append_response>();
    ASSERT_EQ(appends.size(), 1u);
    EXPECT_EQ(appends[0].correlation_id, 600u);
    EXPECT_EQ(appends[0].version, 1u);
    EXPECT_EQ(appends[0].accepted, 2u);
    EXPECT_EQ(appends[0].dirty, 2u);  // the touched building + the new one

    // Exactly one push — for the subscribed (touched) building only; the
    // new building fed-9 was re-run too but nobody watches it.
    const auto pushes = collected.of<api::push_response>();
    ASSERT_EQ(pushes.size(), 1u);
    EXPECT_EQ(pushes[0].correlation_id, 500u);
    EXPECT_EQ(pushes[0].version, 1u);
    EXPECT_TRUE(pushes[0].report.ok);
    EXPECT_EQ(pushes[0].report.name, "fed-1");
    EXPECT_EQ(pushes[0].report.index, 1u);

    const service::service_stats mid = srv.stats();
    EXPECT_EQ(mid.ingest_appends, 1u);
    EXPECT_EQ(mid.ingest_dirty_buildings, 2u);
    EXPECT_EQ(mid.watch_subscribers, 1u);

    // Re-serve the effective corpus: every building — clean and dirty —
    // answers from cache, with zero pipeline re-runs.
    const data::corpus effective = data::corpus_store::open(dirs[0]).load_all_effective();
    ASSERT_EQ(effective.buildings.size(), 5u);
    for (std::size_t i = 0; i < effective.buildings.size(); ++i) {
        api::identify_building_request req;
        req.correlation_id = 800 + i;
        req.has_index = true;
        req.corpus_index = i;
        req.b = effective.buildings[i];
        s.handle(api::request{req});
    }
    s.handle(api::flush_request{102});
    s.finish();

    const service::service_stats after = srv.stats();
    EXPECT_GE(after.cache_hits - mid.cache_hits, effective.buildings.size());
    EXPECT_EQ(after.buildings_done, mid.buildings_done);

    // (a) of the acceptance bar: served == cold rebuild over the
    // concatenated (base + delta) corpus, byte for byte.
    std::vector<runtime::building_report> served;
    for (const api::building_response& b : collected.of<api::building_response>())
        if (b.correlation_id >= 800) served.push_back(b.report);
    ASSERT_EQ(served.size(), effective.buildings.size());
    std::ostringstream served_out;
    service::export_input_order(served_out, std::move(served));
    EXPECT_EQ(served_out.str(), cold_rebuild_ndjson(effective.buildings));

    // Unsubscribing drops the gauge back to zero.
    s.handle(api::request{api::watch_request{501, "fed-1", false}});
    EXPECT_EQ(srv.stats().watch_subscribers, 0u);
}

TEST(live_ingestion, slow_reads_during_reindex_serialise_appends_and_stay_correct) {
    const std::string root = scratch_dir("ingest_slow");
    const data::corpus city = tiny_corpus(3);
    const std::vector<std::string> dirs = split_into_stores(city, 1, root, 2);

    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 2;
    cfg.store_dirs = dirs;
    // The store owner's disk is degraded: every streamed building sleeps.
    // Appends must still serialise (version 1 then 2) and serve correctly.
    cfg.fault_plans = service::parse_fault_plans("0:slow_read_ms=2", 2);
    federation::federated_server srv(cfg);

    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());
    for (const std::size_t touch : {0u, 2u}) {
        api::append_scans_request ap;
        ap.correlation_id = 600 + touch;
        ap.corpus_name = "fed-city-part-0";
        ap.records = {fresh_scans_for(touch, 5000 + touch)};
        s.handle(api::request{std::move(ap)});
    }
    s.handle(api::flush_request{101});
    s.finish();

    const auto appends = collected.of<api::append_response>();
    ASSERT_EQ(appends.size(), 2u);
    EXPECT_EQ(appends[0].version, 1u);
    EXPECT_EQ(appends[0].dirty, 1u);
    EXPECT_EQ(appends[1].version, 2u);
    EXPECT_EQ(appends[1].dirty, 1u);
    EXPECT_TRUE(collected.of<api::error_response>().empty());

    const data::corpus_store store = data::corpus_store::open(dirs[0]);
    EXPECT_EQ(store.manifest().version, 2u);

    // Served-after == cold rebuild, with the slow disk still in the plan.
    const data::corpus effective = store.load_all_effective();
    response_collector reserve;
    federation::federated_server::session s2 = srv.open(reserve.sink());
    for (std::size_t i = 0; i < effective.buildings.size(); ++i) {
        api::identify_building_request req;
        req.correlation_id = i + 1;
        req.has_index = true;
        req.corpus_index = i;
        req.b = effective.buildings[i];
        s2.handle(api::request{req});
    }
    s2.handle(api::flush_request{900});
    s2.finish();
    std::vector<runtime::building_report> served;
    for (const api::building_response& b : reserve.of<api::building_response>())
        served.push_back(b.report);
    std::ostringstream served_out;
    service::export_input_order(served_out, std::move(served));
    EXPECT_EQ(served_out.str(), cold_rebuild_ndjson(effective.buildings));
}

/// Bitwise equality of two served results: assignment, cluster_to_floor,
/// and the embedding's bits.
void expect_bit_identical(const runtime::building_report& got,
                          const runtime::building_report& want, const std::string& what) {
    ASSERT_TRUE(got.ok) << what << ": " << got.error;
    ASSERT_TRUE(want.ok) << what << ": " << want.error;
    EXPECT_EQ(got.index, want.index) << what;
    EXPECT_EQ(got.name, want.name) << what;
    EXPECT_EQ(got.result.assignment, want.result.assignment) << what;
    EXPECT_EQ(got.result.cluster_to_floor, want.result.cluster_to_floor) << what;
    const linalg::matrix& a = got.result.embeddings;
    const linalg::matrix& b = want.result.embeddings;
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0) << what;
}

TEST(live_ingestion, identify_resident_serves_post_append_scans_and_new_names) {
    const std::string root = scratch_dir("ingest_resident");
    const data::corpus city = tiny_corpus(5);
    // Two stores, [fed-0 .. fed-2] and [fed-3, fed-4]; appends go to the
    // last-mounted one, so a new building takes the merged tail index.
    const std::vector<std::string> dirs = split_into_stores(city, 2, root, 2);

    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 2;
    cfg.store_dirs = dirs;
    federation::federated_server srv(cfg);
    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());

    // Resolve X (fed-3) and an untouched building before the append, so
    // the resident cache holds X's pre-append scans.
    s.handle(api::request{api::identify_resident_request{10, "fed-3", false}});
    s.handle(api::request{api::identify_resident_request{11, "fed-0", false}});
    s.handle(api::flush_request{20});
    ASSERT_EQ(collected.of<api::building_response>().size(), 2u);

    // Append new scans for X and a brand-new building Y (fed-9).
    api::append_scans_request ap;
    ap.correlation_id = 30;
    ap.corpus_name = "fed-city-part-1";
    ap.records = {fresh_scans_for(3, 8801), fresh_scans_for(9, 8802)};
    s.handle(api::request{std::move(ap)});
    s.handle(api::flush_request{31});
    ASSERT_EQ(collected.of<api::append_response>().size(), 1u);

    // Fresh resident reads by name, after the ack, with no restart.
    const std::vector<std::pair<std::uint64_t, std::string>> reads = {
        {40, "fed-3"}, {41, "fed-9"}, {42, "fed-0"}};
    for (const auto& [corr, name] : reads)
        s.handle(api::request{api::identify_resident_request{corr, name, true}});
    s.handle(api::flush_request{43});
    s.finish();
    ASSERT_TRUE(collected.of<api::error_response>().empty())
        << collected.of<api::error_response>().front().message;

    // Each must equal the task run over the effective corpus at the same
    // global index: store 0's buildings, then store 1's effective view.
    data::corpus effective = data::corpus_store::open(dirs[0]).load_all_effective();
    for (data::building& b : data::corpus_store::open(dirs[1]).load_all_effective().buildings)
        effective.buildings.push_back(std::move(b));
    ASSERT_EQ(effective.buildings.size(), 6u);
    const std::vector<api::building_response> served = collected.of<api::building_response>();
    for (const auto& [corr, name] : reads) {
        const auto it = std::find_if(served.begin(), served.end(), [c = corr](const auto& b) {
            return b.correlation_id == c;
        });
        ASSERT_NE(it, served.end()) << "no answer for " << name;
        const auto at = std::find_if(effective.buildings.begin(), effective.buildings.end(),
                                     [&n = name](const data::building& b) { return b.name == n; });
        ASSERT_NE(at, effective.buildings.end()) << name;
        const auto index = static_cast<std::size_t>(at - effective.buildings.begin());
        expect_bit_identical(it->report,
                             runtime::run_building_task(fast_pipeline(), 4242, index, *at, false),
                             name);
    }
}

TEST(live_ingestion, cached_resident_hash_leaves_with_an_append) {
    // The resident directory keeps each building's content hash beside it
    // and the backend cache keys on that hash, so a stale hash would serve
    // a cached pre-append answer to a post-append read.
    const std::string root = scratch_dir("ingest_cached_hash");
    const data::corpus city = tiny_corpus(4);
    const std::vector<std::string> dirs = split_into_stores(city, 1, root, 2);

    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 2;
    cfg.store_dirs = dirs;
    federation::federated_server srv(cfg);
    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());

    // 1. Cache X (fed-1) and Y (fed-2) with non-fresh reads.
    s.handle(api::request{api::identify_resident_request{10, "fed-1", false}});
    s.handle(api::request{api::identify_resident_request{11, "fed-2", false}});
    s.handle(api::flush_request{12});
    ASSERT_EQ(collected.of<api::building_response>().size(), 2u);

    // 2. Append scans to X with every backend held at the gate, so X's
    // dirty re-run cannot fill the cache before the reads below.
    srv.pause();
    api::append_scans_request ap;
    ap.correlation_id = 20;
    ap.corpus_name = "fed-city-part-0";
    ap.records = {fresh_scans_for(1, 6601)};
    s.handle(api::request{std::move(ap)});
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (collected.of<api::append_response>().empty() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(collected.of<api::append_response>().size(), 1u);

    // 3. A non-fresh read of X misses the cache; 4. one of Y stays a hit
    // (answered inline, even with the backends paused).
    const std::size_t hits_before = srv.stats().cache_hits;
    s.handle(api::request{api::identify_resident_request{30, "fed-1", false}});
    s.handle(api::request{api::identify_resident_request{31, "fed-2", false}});
    EXPECT_EQ(srv.stats().cache_hits, hits_before + 1);
    srv.resume();
    s.handle(api::flush_request{32});
    s.finish();
    ASSERT_TRUE(collected.of<api::error_response>().empty())
        << collected.of<api::error_response>().front().message;

    // X is bit-identical to the task over its post-append building; Y to
    // the task over its untouched one.
    const data::corpus effective = data::corpus_store::open(dirs[0]).load_all_effective();
    ASSERT_EQ(effective.buildings.size(), 4u);
    const std::vector<api::building_response> served = collected.of<api::building_response>();
    for (const auto& [corr, index] : {std::pair<std::uint64_t, std::size_t>{30, 1}, {31, 2}}) {
        const auto it = std::find_if(served.begin(), served.end(), [c = corr](const auto& b) {
            return b.correlation_id == c;
        });
        ASSERT_NE(it, served.end()) << "no answer for " << corr;
        expect_bit_identical(it->report,
                             runtime::run_building_task(fast_pipeline(), 4242, index,
                                                        effective.buildings[index], false),
                             effective.buildings[index].name);
    }
}

/// The one stats_response a get_stats request on \p s answers with.
service::service_stats stats_over_the_session(federation::federated_server::session& s,
                                              response_collector& collected,
                                              std::uint64_t corr) {
    s.handle(api::request{api::get_stats_request{corr}});
    for (const api::stats_response& st : collected.of<api::stats_response>())
        if (st.correlation_id == corr) return st.stats;
    ADD_FAILURE() << "no stats_response for " << corr;
    return {};
}

// A known name is read again only when it must run, and each probe counts
// exactly one hit or one miss: a cold read a miss, a warm read a hit, a
// read whose entry was evicted a miss (then a read of the building and a
// run), a fresh read neither. Every answer is the task over its building.
TEST(federated_server, identify_resident_counts_one_hit_or_miss_and_rereads_on_a_miss) {
    const std::string root = scratch_dir("resident_counts");
    const data::corpus city = tiny_corpus(3);
    const std::vector<std::string> dirs = split_into_stores(city, 1, root, 2);

    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 1;
    cfg.cache_capacity = 1;  // reading fed-2 evicts fed-1's entry
    cfg.store_dirs = dirs;
    federation::federated_server srv(cfg);
    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());

    const std::vector<std::tuple<std::uint64_t, std::string, bool, std::size_t, std::size_t>>
        steps = {
            // corr, name, fresh, then cache hits and misses after the read
            {10, "fed-1", false, 0, 1},  // cold: a miss, run on the resolve's read
            {11, "fed-1", false, 1, 1},  // warm: a hit, nothing read
            {12, "fed-2", false, 1, 2},  // a miss; its fill evicts fed-1
            {13, "fed-1", false, 1, 3},  // known name, entry gone: a miss, read, run
            {14, "fed-1", true, 1, 3},   // fresh: no probe, read, run
            {15, "fed-1", false, 2, 3},  // the run of step 13 refilled the cache
        };
    std::uint64_t stats_corr = 100;
    for (const auto& [corr, name, fresh, hits, misses] : steps) {
        s.handle(api::request{api::identify_resident_request{corr, name, fresh}});
        s.handle(api::flush_request{corr + 1000});
        const service::service_stats st = stats_over_the_session(s, collected, ++stats_corr);
        EXPECT_EQ(st.cache_hits, hits) << "after read " << corr;
        EXPECT_EQ(st.cache_misses, misses) << "after read " << corr;
    }
    s.finish();
    ASSERT_TRUE(collected.of<api::error_response>().empty())
        << collected.of<api::error_response>().front().message;
    EXPECT_EQ(srv.stats().buildings_done, 4u);  // steps 10, 12, 13 and 14 ran

    const std::vector<api::building_response> served = collected.of<api::building_response>();
    ASSERT_EQ(served.size(), steps.size());
    for (const api::building_response& b : served) {
        const std::size_t index = b.report.name == "fed-1" ? 1 : 2;
        expect_bit_identical(b.report,
                             runtime::run_building_task(fast_pipeline(), 4242, index,
                                                        city.buildings[index], false),
                             "read " + std::to_string(b.correlation_id));
    }
}

// A known name is read from its store when it must run; a read that fails
// (here: the store's shard files are gone) answers a typed bad_request and
// leaves nothing in flight, so the flush barrier still returns.
TEST(federated_server, identify_resident_answers_a_failed_read_with_a_typed_error) {
    const std::string root = scratch_dir("resident_read_fails");
    const data::corpus city = tiny_corpus(2);
    const std::vector<std::string> dirs = split_into_stores(city, 1, root, 1);

    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 1;
    cfg.store_dirs = dirs;
    federation::federated_server srv(cfg);
    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());
    s.handle(api::request{api::identify_resident_request{1, "fed-1", false}});
    s.handle(api::flush_request{2});
    ASSERT_EQ(collected.of<api::building_response>().size(), 1u);

    for (const auto& entry : std::filesystem::directory_iterator(dirs[0]))
        if (entry.path().filename() != "manifest.csv") std::filesystem::remove(entry.path());
    s.handle(api::request{api::identify_resident_request{3, "fed-1", false}});  // a hit
    s.handle(api::request{api::identify_resident_request{4, "fed-1", true}});   // must read
    s.handle(api::flush_request{5});
    s.finish();

    EXPECT_EQ(collected.of<api::building_response>().size(), 2u);
    const std::vector<api::error_response> errors = collected.of<api::error_response>();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].correlation_id, 4u);
    EXPECT_EQ(errors[0].code, api::error_code::bad_request);
    ASSERT_EQ(collected.of<api::flush_response>().size(), 2u);
}

// The fleet keeps no building once it has answered: after every building of
// a store is served through identify_resident, fresh, cold and warm, the
// heap holds a small fraction of one copy of the store's buildings. (A
// directory that kept the buildings it served held at least one copy.)
TEST(federated_server, serving_every_resident_building_keeps_none_in_memory) {
    const std::string root = scratch_dir("resident_memory");
    const data::corpus city = tiny_corpus(8);
    const std::vector<std::string> dirs = split_into_stores(city, 1, root, 4);

    std::int64_t corpus_bytes = 0;
    {
        const std::int64_t before = g_live_bytes.load();
        const data::corpus effective = data::corpus_store::open(dirs[0]).load_all_effective();
        corpus_bytes = g_live_bytes.load() - before;
        ASSERT_EQ(effective.buildings.size(), city.buildings.size());
    }
    ASSERT_GT(corpus_bytes, 0);

    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 1;
    cfg.cache_capacity = 1;  // results are not what this test weighs
    cfg.store_dirs = dirs;
    federation::federated_server srv(cfg);
    std::atomic<std::size_t> answers{0};
    federation::federated_server::session s = srv.open([&](std::string_view frame) {
        const api::decode_result<api::response> r = api::decode_response(frame);
        if (r.value && std::holds_alternative<api::building_response>(*r.value)) ++answers;
    });
    std::uint64_t corr = 0;
    const auto serve = [&](std::size_t i, bool fresh) {
        s.handle(api::request{
            api::identify_resident_request{++corr, city.buildings[i].name, fresh}});
    };
    // Warm up every lazily built structure (the store's block index, the
    // first job) on one building before weighing.
    serve(0, true);
    s.handle(api::flush_request{++corr});
    const std::int64_t before = g_live_bytes.load();
    for (std::size_t i = 0; i < city.buildings.size(); ++i) {
        serve(i, true);   // fresh: read, run, not cached
        serve(i, false);  // cold: a miss, read again, run, cached
        s.handle(api::flush_request{++corr});
        serve(i, false);  // warm: a hit, nothing read
        s.handle(api::flush_request{++corr});
    }
    s.finish();
    // A backend worker frees its job's copy of the building just after the
    // answer: give the last one a moment.
    std::int64_t held = g_live_bytes.load() - before;
    for (int i = 0; i < 200 && held >= corpus_bytes / 4; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        held = g_live_bytes.load() - before;
    }
    EXPECT_EQ(answers.load(), 1 + 3 * city.buildings.size());
    EXPECT_EQ(srv.stats().cache_hits, city.buildings.size());
    EXPECT_LT(held, corpus_bytes / 4) << "held " << held << " bytes after serving a store of "
                                      << corpus_bytes << " bytes";
}

// The directory hands each building it reads to its caller and keeps only
// the name's entry: once the caller drops the building, nothing holds it.
TEST(resident_directory, hands_out_buildings_it_does_not_keep) {
    const std::string root = scratch_dir("directory_weak");
    const data::corpus city = tiny_corpus(4);
    const std::vector<std::string> dirs = split_into_stores(city, 2, root, 1);
    federation::store_registry reg;
    for (const std::string& d : dirs) static_cast<void>(reg.mount(d));
    federation::resident_directory dir(reg);

    std::optional<federation::resident_directory::hit> first = dir.resolve("fed-3");
    ASSERT_TRUE(first.has_value());
    ASSERT_NE(first->b, nullptr);  // the first resolve reads the building
    EXPECT_EQ(first->global_index, 3u);
    EXPECT_EQ(first->content_hash, data::content_hash(city.buildings[3]));
    std::weak_ptr<const data::building> held = first->b;
    first.reset();
    EXPECT_TRUE(held.expired());

    const std::optional<federation::resident_directory::hit> known = dir.resolve("fed-3");
    ASSERT_TRUE(known.has_value());
    EXPECT_EQ(known->b, nullptr);  // a known name reads nothing
    EXPECT_EQ(known->global_index, 3u);
    EXPECT_EQ(known->content_hash, data::content_hash(city.buildings[3]));

    std::optional<federation::resident_directory::hit> read = dir.read("fed-3");
    ASSERT_TRUE(read.has_value());
    ASSERT_NE(read->b, nullptr);
    EXPECT_EQ(read->content_hash, known->content_hash);
    held = read->b;
    read.reset();
    EXPECT_TRUE(held.expired());

    EXPECT_FALSE(dir.resolve("no-such-building").has_value());
    EXPECT_FALSE(dir.read("no-such-building").has_value());
}

// A request resolved a name to its entry; then an append to that building
// landed; then the request's run read the building. The read returns the
// post-append building, its hash and its index, and refreshes the entry, so
// the run caches under the hash of the building that ran and the next
// resolve reads nothing.
TEST(resident_directory, a_read_after_an_append_returns_and_records_the_post_append_building) {
    const std::string root = scratch_dir("directory_race");
    const data::corpus city = tiny_corpus(3);
    const std::vector<std::string> dirs = split_into_stores(city, 1, root, 2);
    federation::store_registry reg;
    static_cast<void>(reg.mount(dirs[0]));
    federation::resident_directory dir(reg);

    static_cast<void>(dir.resolve("fed-1"));  // an earlier request read it
    const std::optional<federation::resident_directory::hit> resolved = dir.resolve("fed-1");
    ASSERT_TRUE(resolved.has_value());
    EXPECT_EQ(resolved->b, nullptr);

    const ingest::append_outcome landed =
        ingest::append_scans(dirs[0], {fresh_scans_for(1, 7301)});
    dir.on_append("fed-city-part-0", landed.touched);

    const std::optional<data::located_building> post =
        data::corpus_store::open(dirs[0]).read_effective(std::string("fed-1"));
    ASSERT_TRUE(post.has_value());
    const std::uint64_t post_hash = data::content_hash(post->b);
    ASSERT_NE(post_hash, resolved->content_hash);

    const std::optional<federation::resident_directory::hit> read = dir.read("fed-1");
    ASSERT_TRUE(read.has_value());
    ASSERT_NE(read->b, nullptr);
    EXPECT_EQ(read->content_hash, post_hash);
    EXPECT_EQ(data::content_hash(*read->b), post_hash);
    EXPECT_EQ(read->global_index, 1u);

    const std::optional<federation::resident_directory::hit> after = dir.resolve("fed-1");
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->b, nullptr);
    EXPECT_EQ(after->content_hash, post_hash);
}

// A request resolves a name to its cached entry, then an append to that
// building lands, then the request misses the cache and reads the building.
// The race is laid out here in one thread: fed-1's scans are written to the
// store directly (as an append the directory has not yet been told of), and
// an append of another building through the fleet makes the directory
// reopen the store, leaving fed-1's pre-append entry in place. The read must
// run the post-append building and cache it under that building's hash, so
// the next read is a hit; every answer is the task over the effective
// corpus.
TEST(live_ingestion, a_read_racing_an_append_caches_the_building_it_ran) {
    const std::string root = scratch_dir("ingest_read_race");
    const data::corpus city = tiny_corpus(3);
    const std::vector<std::string> dirs = split_into_stores(city, 1, root, 2);

    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 1;
    cfg.cache_capacity = 1;
    cfg.store_dirs = dirs;
    federation::federated_server srv(cfg);
    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());
    const auto read = [&](std::uint64_t corr, const std::string& name) {
        s.handle(api::request{api::identify_resident_request{corr, name, false}});
        s.handle(api::flush_request{corr + 1000});
    };
    read(1, "fed-1");  // fed-1's entry and its cached result, pre-append
    read(2, "fed-2");  // evicts fed-1's result

    static_cast<void>(ingest::append_scans(dirs[0], {fresh_scans_for(1, 7501)}));
    api::append_scans_request ap;
    ap.correlation_id = 3;
    ap.corpus_name = "fed-city-part-0";
    ap.records = {fresh_scans_for(0, 7502)};
    s.handle(api::request{std::move(ap)});
    s.handle(api::flush_request{4});
    ASSERT_EQ(collected.of<api::append_response>().size(), 1u);

    const service::service_stats before = srv.stats();
    read(5, "fed-1");  // the stale entry's probe misses: read, run, fill
    const service::service_stats ran = srv.stats();
    EXPECT_EQ(ran.buildings_done, before.buildings_done + 1);
    read(6, "fed-1");  // cached under the hash of the building that ran
    const service::service_stats hit = srv.stats();
    EXPECT_EQ(hit.cache_hits, ran.cache_hits + 1);
    EXPECT_EQ(hit.buildings_done, ran.buildings_done);
    for (const auto& [corr, name] :
         std::vector<std::pair<std::uint64_t, std::string>>{{10, "fed-0"}, {11, "fed-2"}})
        read(corr, name);
    s.finish();
    ASSERT_TRUE(collected.of<api::error_response>().empty())
        << collected.of<api::error_response>().front().message;

    const data::corpus effective = data::corpus_store::open(dirs[0]).load_all_effective();
    ASSERT_EQ(effective.buildings.size(), 3u);
    std::vector<runtime::building_report> served;
    for (const api::building_response& b : collected.of<api::building_response>()) {
        if (b.correlation_id == 5 || b.correlation_id >= 10) served.push_back(b.report);
        if (b.correlation_id == 6)
            expect_bit_identical(b.report,
                                 runtime::run_building_task(fast_pipeline(), 4242, 1,
                                                            effective.buildings[1], false),
                                 "the hit");
    }
    ASSERT_EQ(served.size(), 3u);
    std::ostringstream served_out;
    service::export_input_order(served_out, std::move(served));
    EXPECT_EQ(served_out.str(), cold_rebuild_ndjson(effective.buildings));
}

// An append's dirty re-run whose result is already cached (a client ran
// the post-append building at its index first) is answered from the cache,
// whose entry keeps the result only as encoded bytes; the push still
// carries the whole report, bit for bit the task's.
TEST(live_ingestion, rerun_answered_from_the_cache_pushes_the_whole_report) {
    const std::string root = scratch_dir("ingest_rerun_hit");
    const data::corpus city = tiny_corpus(3);
    const std::vector<std::string> dirs = split_into_stores(city, 1, root, 2);
    const data::building scans = fresh_scans_for(1, 7401);

    // The post-append building, from a twin of the store.
    const std::vector<std::string> twin = split_into_stores(city, 1, root + "/twin", 2);
    static_cast<void>(ingest::append_scans(twin[0], {scans}));
    const std::optional<data::located_building> post =
        data::corpus_store::open(twin[0]).read_effective(std::string("fed-1"));
    ASSERT_TRUE(post.has_value());

    federation::federation_config cfg;
    cfg.service = fast_service_config(1);
    cfg.num_backends = 1;
    cfg.store_dirs = dirs;
    federation::federated_server srv(cfg);
    response_collector collected;
    federation::federated_server::session s = srv.open(collected.sink());

    api::identify_building_request req;
    req.correlation_id = 1;
    req.has_index = true;
    req.corpus_index = 1;
    req.b = post->b;
    s.handle(api::request{req});
    s.handle(api::flush_request{2});
    const service::service_stats filled = srv.stats();
    EXPECT_EQ(filled.buildings_done, 1u);

    s.handle(api::request{api::watch_request{3, "fed-1", true}});
    api::append_scans_request ap;
    ap.correlation_id = 4;
    ap.corpus_name = "fed-city-part-0";
    ap.records = {scans};
    s.handle(api::request{std::move(ap)});
    s.handle(api::flush_request{5});
    s.finish();

    const service::service_stats after = srv.stats();
    EXPECT_EQ(after.buildings_done, filled.buildings_done);  // the re-run never ran
    EXPECT_EQ(after.cache_hits, filled.cache_hits + 1);
    ASSERT_TRUE(collected.of<api::error_response>().empty())
        << collected.of<api::error_response>().front().message;
    const std::vector<api::push_response> pushes = collected.of<api::push_response>();
    ASSERT_EQ(pushes.size(), 1u);
    EXPECT_EQ(pushes[0].correlation_id, 3u);
    expect_bit_identical(pushes[0].report,
                         runtime::run_building_task(fast_pipeline(), 4242, 1, post->b, false),
                         "push");
}

TEST(live_ingestion, crash_mid_append_leaves_manifest_intact_for_warm_restart) {
#ifdef FISONE_TSAN
    GTEST_SKIP() << "fork-based death test; the CI ingestion chaos smoke "
                    "covers the crash drill under every build";
#endif
    const std::string root = scratch_dir("ingest_crash");
    const data::corpus city = tiny_corpus(2);
    const std::vector<std::string> dirs = split_into_stores(city, 1, root, 2);

    // Both abort checkpoints: after the delta shard but before the manifest
    // temp, and after the temp but before the rename. The child process
    // dies exactly as kill -9 would; the torn on-disk state it leaves is
    // what the warm restart below must shrug off.
    for (const std::uint32_t step : {1u, 2u}) {
        const auto doomed_append = [&dirs, step] {
            federation::federation_config cfg;
            cfg.service = fast_service_config(1);
            cfg.num_backends = 2;
            cfg.store_dirs = dirs;
            cfg.fault_plans = service::parse_fault_plans(
                "0:crash_on_append=" + std::to_string(step), 2);
            federation::federated_server srv(cfg);
            response_collector collected;
            federation::federated_server::session s = srv.open(collected.sink());
            api::append_scans_request ap;
            ap.correlation_id = 1;
            ap.corpus_name = "fed-city-part-0";
            ap.records = {fresh_scans_for(0, 4444)};
            s.handle(api::request{std::move(ap)});
            s.finish();  // never returns: the append worker aborts first
        };
        EXPECT_DEATH(doomed_append(), "");

        // The committed manifest never moved — the append is invisible.
        EXPECT_EQ(data::corpus_store::open(dirs[0]).manifest().version, 0u)
            << "checkpoint " << step;
    }

    // Warm restart over the torn directory: mount sweeps the leftovers and
    // serves exactly the pre-append corpus.
    {
        federation::federation_config cfg;
        cfg.service = fast_service_config(1);
        cfg.num_backends = 2;
        cfg.store_dirs = dirs;
        federation::federated_server srv(cfg);
        EXPECT_EQ(campaign_ndjson(srv, 2), cold_rebuild_ndjson(city.buildings));

        // And the interrupted append, retried for real, lands exactly once.
        response_collector collected;
        federation::federated_server::session s = srv.open(collected.sink());
        api::append_scans_request ap;
        ap.correlation_id = 1;
        ap.corpus_name = "fed-city-part-0";
        ap.records = {fresh_scans_for(0, 4444)};
        s.handle(api::request{std::move(ap)});
        s.handle(api::flush_request{2});
        s.finish();
        const auto appends = collected.of<api::append_response>();
        ASSERT_EQ(appends.size(), 1u);
        EXPECT_EQ(appends[0].version, 1u);
        const data::corpus_store store = data::corpus_store::open(dirs[0]);
        EXPECT_EQ(store.manifest().version, 1u);
        ASSERT_EQ(store.manifest().deltas.size(), 1u);
        EXPECT_EQ(store.load_all_effective().buildings.size(), 2u);
    }
}

}  // namespace
