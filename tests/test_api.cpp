// Tests for the versioned request/response API layer: canonical hashes
// (building content hash, config fingerprint), the binary wire codec
// (round trips, a randomized property test, and adversarial decode), the
// content-addressed LRU result cache, the server dispatcher over both
// transports, and the PR's acceptance criterion — responses via
// in-process loopback, via framed streams, and via direct floor_service
// submission are byte-identical under NDJSON re-export, with cache-on
// runs identical to cache-off ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "api/codec.hpp"
#include "api/message.hpp"
#include "api/result_cache.hpp"
#include "api/server.hpp"
#include "core/fis_one.hpp"
#include "data/corpus_store.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/task_executor.hpp"
#include "service/floor_service.hpp"
#include "service/ndjson_export.hpp"
#include "sim/building_generator.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

using namespace fisone;

// --- helpers ----------------------------------------------------------------

data::building tiny_building(std::size_t i) {
    sim::building_spec spec;
    spec.name = "api-";
    spec.name += std::to_string(i);
    spec.num_floors = 3 + i % 2;
    spec.samples_per_floor = 20;
    spec.aps_per_floor = 6;
    spec.seed = 900 + i;
    return sim::generate_building(spec).building;
}

data::corpus tiny_corpus(std::size_t count) {
    data::corpus c;
    c.name = "api-city";
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

api::server_config fast_server_config(bool enable_cache) {
    api::server_config cfg;
    cfg.service.pipeline = fast_pipeline();
    cfg.service.seed = 99;
    cfg.service.num_threads = 2;
    cfg.enable_cache = enable_cache;
    return cfg;
}

/// Small random building for the codec property test (not a valid
/// pipeline input — the codec must not care).
data::building random_building(util::rng& gen) {
    data::building b;
    b.name = "rnd-" + std::to_string(gen.uniform_index(1 << 20));
    b.num_floors = 2 + static_cast<std::size_t>(gen.uniform_index(8));
    b.num_macs = 1 + static_cast<std::size_t>(gen.uniform_index(40));
    b.labeled_floor = static_cast<std::int32_t>(gen.uniform_index(4));
    const std::size_t samples = gen.uniform_index(7);
    for (std::size_t s = 0; s < samples; ++s) {
        data::rf_sample smp;
        smp.true_floor = static_cast<std::int32_t>(gen.uniform_index(7)) - 1;
        smp.device_id = static_cast<std::uint32_t>(gen.uniform_index(8));
        const std::size_t obs = gen.uniform_index(9);
        for (std::size_t o = 0; o < obs; ++o)
            smp.observations.push_back(
                {static_cast<std::uint32_t>(gen.uniform_index(40)), gen.uniform(-120.0, 0.0)});
        b.samples.push_back(std::move(smp));
    }
    b.labeled_sample =
        b.samples.empty() ? 0 : static_cast<std::size_t>(gen.uniform_index(b.samples.size()));
    return b;
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
            EXPECT_EQ(a.samples[i].observations[j].rss_dbm,
                      b.samples[i].observations[j].rss_dbm);
        }
    }
}

void expect_report_eq(const runtime::building_report& a, const runtime::building_report& b) {
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.result.num_clusters, b.result.num_clusters);
    EXPECT_EQ(a.result.assignment, b.result.assignment);
    EXPECT_EQ(a.result.cluster_to_floor, b.result.cluster_to_floor);
    EXPECT_EQ(a.result.predicted_floor, b.result.predicted_floor);
    EXPECT_EQ(a.result.embeddings, b.result.embeddings);
    EXPECT_EQ(a.result.ambiguous, b.result.ambiguous);
    EXPECT_EQ(a.result.has_ground_truth, b.result.has_ground_truth);
    EXPECT_EQ(a.result.ari, b.result.ari);
    EXPECT_EQ(a.result.nmi, b.result.nmi);
    EXPECT_EQ(a.result.edit_distance, b.result.edit_distance);
}

std::string ndjson_of(std::vector<runtime::building_report> reports) {
    std::ostringstream out;
    service::export_input_order(out, std::move(reports));
    return out.str();
}

// --- canonical hashes -------------------------------------------------------

TEST(content_hash, sensitive_to_every_field_and_stable) {
    const data::building b = tiny_building(0);
    EXPECT_EQ(data::content_hash(b), data::content_hash(b));

    data::building renamed = b;
    renamed.name += "x";
    EXPECT_NE(data::content_hash(renamed), data::content_hash(b));

    data::building relabeled = b;
    relabeled.labeled_floor ^= 1;
    EXPECT_NE(data::content_hash(relabeled), data::content_hash(b));

    data::building nudged = b;
    nudged.samples[0].observations[0].rss_dbm += 1e-12;  // any bit change counts
    EXPECT_NE(data::content_hash(nudged), data::content_hash(b));

    data::building fewer = b;
    fewer.samples.pop_back();
    EXPECT_NE(data::content_hash(fewer), data::content_hash(b));
}

TEST(config_fingerprint, sensitive_to_results_relevant_fields_only) {
    const core::fis_one_config base = fast_pipeline();
    EXPECT_EQ(core::config_fingerprint(base), core::config_fingerprint(base));

    core::fis_one_config seeded = base;
    seeded.seed += 1;
    EXPECT_NE(core::config_fingerprint(seeded), core::config_fingerprint(base));

    core::fis_one_config gnn_seeded = base;
    gnn_seeded.gnn.seed += 1;
    EXPECT_NE(core::config_fingerprint(gnn_seeded), core::config_fingerprint(base));

    core::fis_one_config wider = base;
    wider.gnn.embedding_dim *= 2;
    EXPECT_NE(core::config_fingerprint(wider), core::config_fingerprint(base));

    core::fis_one_config kmeans = base;
    kmeans.clustering = core::clustering_algorithm::kmeans;
    EXPECT_NE(core::config_fingerprint(kmeans), core::config_fingerprint(base));

    // num_threads never changes results (bit-identity contract), so it
    // must not change the fingerprint: cached results stay valid across
    // worker counts.
    core::fis_one_config threaded = base;
    threaded.num_threads = 8;
    EXPECT_EQ(core::config_fingerprint(threaded), core::config_fingerprint(base));
}

TEST(config_fingerprint, effective_task_config_keys_by_index) {
    const core::fis_one_config pipeline = fast_pipeline();
    const auto fp = [&](std::size_t index) {
        return core::config_fingerprint(
            runtime::effective_task_config(pipeline, 99, index, true));
    };
    EXPECT_EQ(fp(0), fp(0));
    EXPECT_NE(fp(0), fp(1));  // different index → different derived seed
    // Kernel threading must not leak into the identity.
    EXPECT_EQ(fp(3), core::config_fingerprint(
                         runtime::effective_task_config(pipeline, 99, 3, false)));
}

// --- codec: round trips -----------------------------------------------------

TEST(codec, request_round_trips_every_type) {
    api::identify_building_request ib;
    ib.correlation_id = 7;
    ib.has_index = true;
    ib.corpus_index = 12;
    ib.b = tiny_building(1);

    api::identify_shard_request is;
    is.correlation_id = 8;
    is.ref = {"/tmp/shard-0000.csv", 4, 3};

    const std::vector<api::request> requests{
        api::request(ib), api::request(is), api::request(api::get_stats_request{9}),
        api::request(api::cancel_job_request{10, 7}), api::request(api::flush_request{11})};

    for (const api::request& req : requests) {
        const std::string frame = api::encode(req);
        std::size_t consumed = 0;
        const api::decode_result<api::request> decoded = api::decode_request(frame, &consumed);
        ASSERT_TRUE(decoded.ok()) << (decoded.error ? decoded.error->message : "eof");
        EXPECT_EQ(consumed, frame.size());
        EXPECT_EQ(api::tag_of(*decoded.value), api::tag_of(req));
        EXPECT_EQ(api::correlation_id(*decoded.value), api::correlation_id(req));
    }

    // Deep checks on the payload-heavy ones.
    const auto ib2 = std::get<api::identify_building_request>(
        *api::decode_request(api::encode(api::request(ib))).value);
    EXPECT_TRUE(ib2.has_index);
    EXPECT_EQ(ib2.corpus_index, 12u);
    expect_building_eq(ib2.b, ib.b);

    const auto is2 = std::get<api::identify_shard_request>(
        *api::decode_request(api::encode(api::request(is))).value);
    EXPECT_EQ(is2.ref.path, is.ref.path);
    EXPECT_EQ(is2.ref.first_index, is.ref.first_index);
    EXPECT_EQ(is2.ref.num_buildings, is.ref.num_buildings);
}

TEST(codec, response_round_trips_every_type) {
    runtime::building_report report;
    report.index = 5;
    report.name = "hall \"B\"\n";
    report.ok = true;
    report.seed = 0xdeadbeefcafef00dULL;
    report.seconds = 0.25;
    report.result.num_clusters = 3;
    report.result.assignment = {0, 1, 2, -1};
    report.result.cluster_to_floor = {2, 0, 1};
    report.result.predicted_floor = {2, 0, 1, 0};
    report.result.embeddings = linalg::matrix{{1.5, -2.25}, {0.0, 1e-300}};
    report.result.ambiguous = true;
    report.result.ari = 0.875;

    // Every row of the stats table gets its own value, so a row the codec
    // drops or two rows it swaps show.
    service::service_stats stats;
    std::size_t next = 100;
    for (const service::stat_field& f : service::k_service_stat_fields) {
        if (f.kind != service::stat_kind::latency) {
            stats.*f.count = next++;
            continue;
        }
        const double v = static_cast<double>(next);
        stats.*f.latency = {v + 0.5, v + 0.75, v + 0.875, next + 1, v + 0.25, {next + 2, next + 3}};
        next += 4;
    }

    const std::vector<api::response> responses{
        api::response(api::building_response{21, report}),
        api::response(api::stats_response{22, stats}),
        api::response(api::cancel_response{23, 7, true}),
        api::response(api::flush_response{24}),
        api::response(api::error_response{25, api::error_code::bad_payload, "odd bytes"})};

    for (const api::response& resp : responses) {
        const std::string frame = api::encode(resp);
        const api::decode_result<api::response> decoded = api::decode_response(frame);
        ASSERT_TRUE(decoded.ok()) << (decoded.error ? decoded.error->message : "eof");
        EXPECT_EQ(api::tag_of(*decoded.value), api::tag_of(resp));
        EXPECT_EQ(api::correlation_id(*decoded.value), api::correlation_id(resp));
    }

    const auto br = std::get<api::building_response>(
        *api::decode_response(api::encode(api::response(api::building_response{21, report})))
             .value);
    expect_report_eq(br.report, report);

    const auto sr = std::get<api::stats_response>(
        *api::decode_response(api::encode(api::response(api::stats_response{22, stats}))).value);
    for (const service::stat_field& f : service::k_service_stat_fields) {
        if (f.kind != service::stat_kind::latency) {
            EXPECT_EQ(sr.stats.*f.count, stats.*f.count) << f.metric;
            continue;
        }
        const obs::latency_summary& got = sr.stats.*f.latency;
        const obs::latency_summary& want = stats.*f.latency;
        EXPECT_EQ(got.p50, want.p50) << f.metric;
        EXPECT_EQ(got.p90, want.p90) << f.metric;
        EXPECT_EQ(got.p99, want.p99) << f.metric;
        EXPECT_EQ(got.count, want.count) << f.metric;
        EXPECT_EQ(got.sum, want.sum) << f.metric;
        EXPECT_EQ(got.le, want.le) << f.metric;
    }

    const auto er = std::get<api::error_response>(
        *api::decode_response(
             api::encode(api::response(api::error_response{25, api::error_code::bad_payload,
                                                           "odd bytes"})))
             .value);
    EXPECT_EQ(er.code, api::error_code::bad_payload);
    EXPECT_EQ(er.message, "odd bytes");
}

TEST(codec, ingestion_messages_round_trip) {
    // append_scans carries a whole batch of building records.
    api::append_scans_request ap;
    ap.correlation_id = 31;
    ap.corpus_name = "live \"city\"";
    ap.records = {tiny_building(1), tiny_building(2)};
    const auto ap2 = std::get<api::append_scans_request>(
        *api::decode_request(api::encode(api::request(ap))).value);
    EXPECT_EQ(ap2.correlation_id, 31u);
    EXPECT_EQ(ap2.corpus_name, ap.corpus_name);
    ASSERT_EQ(ap2.records.size(), 2u);
    expect_building_eq(ap2.records[0], ap.records[0]);
    expect_building_eq(ap2.records[1], ap.records[1]);

    for (const bool subscribe : {true, false}) {
        api::watch_request w;
        w.correlation_id = 32;
        w.name = "bldg-2";
        w.subscribe = subscribe;
        const auto w2 = std::get<api::watch_request>(
            *api::decode_request(api::encode(api::request(w))).value);
        EXPECT_EQ(w2.correlation_id, 32u);
        EXPECT_EQ(w2.name, "bldg-2");
        EXPECT_EQ(w2.subscribe, subscribe);
    }

    const auto ar = std::get<api::append_response>(
        *api::decode_response(api::encode(api::response(api::append_response{33, 5, 4, 3})))
             .value);
    EXPECT_EQ(ar.correlation_id, 33u);
    EXPECT_EQ(ar.version, 5u);
    EXPECT_EQ(ar.accepted, 4u);
    EXPECT_EQ(ar.dirty, 3u);

    const auto wa = std::get<api::watch_ack_response>(
        *api::decode_response(api::encode(api::response(api::watch_ack_response{34, true})))
             .value);
    EXPECT_EQ(wa.correlation_id, 34u);
    EXPECT_TRUE(wa.active);

    runtime::building_report report;
    report.index = 3;
    report.name = "bldg-2";
    report.ok = true;
    const auto pu = std::get<api::push_response>(
        *api::decode_response(api::encode(api::response(api::push_response{35, 6, report})))
             .value);
    EXPECT_EQ(pu.correlation_id, 35u);
    EXPECT_EQ(pu.version, 6u);
    EXPECT_EQ(pu.report.index, 3u);
    EXPECT_EQ(pu.report.name, "bldg-2");

    // The stats payload grew the three ingestion families.
    service::service_stats stats;
    stats.ingest_appends = 7;
    stats.ingest_dirty_buildings = 9;
    stats.watch_subscribers = 2;
    const auto sr = std::get<api::stats_response>(
        *api::decode_response(api::encode(api::response(api::stats_response{36, stats}))).value);
    EXPECT_EQ(sr.stats.ingest_appends, 7u);
    EXPECT_EQ(sr.stats.ingest_dirty_buildings, 9u);
    EXPECT_EQ(sr.stats.watch_subscribers, 2u);
}

TEST(codec, telemetry_messages_round_trip) {
    // Schema v4's live-telemetry verbs and the cache-bypass flags.
    for (const bool fresh : {true, false}) {
        api::identify_resident_request rr;
        rr.correlation_id = 50;
        rr.name = "bldg \"resident\"";
        rr.fresh = fresh;
        const auto rr2 = std::get<api::identify_resident_request>(
            *api::decode_request(api::encode(api::request(rr))).value);
        EXPECT_EQ(rr2.correlation_id, 50u);
        EXPECT_EQ(rr2.name, rr.name);
        EXPECT_EQ(rr2.fresh, fresh);
    }

    for (const bool no_cache : {true, false}) {
        api::identify_building_request ib;
        ib.correlation_id = 51;
        ib.has_index = true;
        ib.corpus_index = 4;
        ib.no_cache = no_cache;
        ib.b = tiny_building(1);
        const auto ib2 = std::get<api::identify_building_request>(
            *api::decode_request(api::encode(api::request(ib))).value);
        EXPECT_EQ(ib2.correlation_id, 51u);
        EXPECT_EQ(ib2.corpus_index, 4u);
        EXPECT_EQ(ib2.no_cache, no_cache);
        expect_building_eq(ib2.b, ib.b);
    }

    for (const bool subscribe : {true, false}) {
        api::subscribe_stats_request ss;
        ss.correlation_id = 52;
        ss.interval_ms = 250;
        ss.subscribe = subscribe;
        const auto ss2 = std::get<api::subscribe_stats_request>(
            *api::decode_request(api::encode(api::request(ss))).value);
        EXPECT_EQ(ss2.correlation_id, 52u);
        EXPECT_EQ(ss2.interval_ms, 250u);
        EXPECT_EQ(ss2.subscribe, subscribe);
    }

    api::stats_update_response u;
    u.correlation_id = 53;
    u.window_seq = 17;
    u.window_seconds = 0.25;
    u.connections = 3;
    u.inflight = 2;
    u.admitted = 40;
    u.responses = 38;
    u.shed_overload = 5;
    u.shed_draining = 1;
    u.latency_count = 36;
    u.latency_sum = 4.5;
    u.latency_p50 = 0.1;
    u.latency_p90 = 0.2;
    u.latency_p99 = 0.3;
    const auto u2 = std::get<api::stats_update_response>(
        *api::decode_response(api::encode(api::response(u))).value);
    EXPECT_EQ(u2.correlation_id, 53u);
    EXPECT_EQ(u2.window_seq, 17u);
    EXPECT_DOUBLE_EQ(u2.window_seconds, 0.25);
    EXPECT_EQ(u2.connections, 3u);
    EXPECT_EQ(u2.inflight, 2u);
    EXPECT_EQ(u2.admitted, 40u);
    EXPECT_EQ(u2.responses, 38u);
    EXPECT_EQ(u2.shed_overload, 5u);
    EXPECT_EQ(u2.shed_draining, 1u);
    EXPECT_EQ(u2.latency_count, 36u);
    EXPECT_DOUBLE_EQ(u2.latency_sum, 4.5);
    EXPECT_DOUBLE_EQ(u2.latency_p50, 0.1);
    EXPECT_DOUBLE_EQ(u2.latency_p90, 0.2);
    EXPECT_DOUBLE_EQ(u2.latency_p99, 0.3);

    // The stats payload grew the histogram exposition triplet.
    service::service_stats stats;
    stats.latency.count = 200;
    stats.latency.sum = 12.75;
    stats.latency.le = {1, 2, 3, 50, 200};
    const auto sr = std::get<api::stats_response>(
        *api::decode_response(api::encode(api::response(api::stats_response{54, stats}))).value);
    EXPECT_EQ(sr.stats.latency.count, 200u);
    EXPECT_DOUBLE_EQ(sr.stats.latency.sum, 12.75);
    EXPECT_EQ(sr.stats.latency.le, (std::vector<std::uint64_t>{1, 2, 3, 50, 200}));
}

TEST(codec, hostile_append_batch_count_fails_cleanly) {
    // An append_scans frame declaring 2^32-ish records with no bytes behind
    // them must answer a typed error without allocating the claimed batch.
    api::append_scans_request ap;
    ap.correlation_id = 40;
    ap.corpus_name = "x";
    ap.records = {tiny_building(1)};
    std::string frame = api::encode(api::request(ap));
    // Patch the record count (u64 after the corpus-name bytes:
    // header 14 + corr 8 + name_len 8 + name 1).
    const std::size_t count_off = 14 + 8 + 8 + 1;
    for (std::size_t i = 0; i < 8; ++i)
        frame[count_off + i] = static_cast<char>(i < 7 ? 0xFF : 0x7F);
    const api::decode_result<api::request> r = api::decode_request(frame);
    ASSERT_FALSE(r.ok());
    EXPECT_FALSE(r.fatal);  // recoverable: the connection survives
    EXPECT_EQ(r.error->code, api::error_code::bad_payload);
}

TEST(codec, degenerate_matrices_round_trip) {
    // R×0 / 0×C embeddings carry no payload bytes; the encoder legally
    // produces them and the decoder must take them back.
    for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{5, 0},
                                    std::pair<std::size_t, std::size_t>{0, 7},
                                    std::pair<std::size_t, std::size_t>{0, 0}}) {
        runtime::building_report report;
        report.name = "degenerate";
        report.result.embeddings = linalg::matrix(rows, cols);
        const api::decode_result<api::response> decoded = api::decode_response(
            api::encode(api::response(api::building_response{1, report})));
        ASSERT_TRUE(decoded.ok()) << rows << "x" << cols << ": "
                                  << decoded.error->message;
        const auto& back = std::get<api::building_response>(*decoded.value);
        EXPECT_EQ(back.report.result.embeddings.rows(), rows);
        EXPECT_EQ(back.report.result.embeddings.cols(), cols);
    }
}

TEST(codec, randomized_request_round_trip_property) {
    util::rng gen(4242);
    for (int round = 0; round < 50; ++round) {
        api::identify_building_request m;
        m.correlation_id = gen.uniform_index(1ULL << 30);
        m.has_index = gen.bernoulli(0.5);
        m.corpus_index = gen.uniform_index(1ULL << 20);
        m.b = random_building(gen);

        const std::string frame = api::encode(api::request(m));
        const api::decode_result<api::request> decoded = api::decode_request(frame);
        ASSERT_TRUE(decoded.ok()) << decoded.error->message;
        const auto& back = std::get<api::identify_building_request>(*decoded.value);
        EXPECT_EQ(back.correlation_id, m.correlation_id);
        EXPECT_EQ(back.has_index, m.has_index);
        EXPECT_EQ(back.corpus_index, m.corpus_index);
        expect_building_eq(back.b, m.b);

        // Canonical: re-encoding the decoded message reproduces the bytes.
        EXPECT_EQ(api::encode(api::request(back)), frame);
    }
}

// --- codec: golden bytes ----------------------------------------------------

/// FNV-1a over an encoded frame's bytes.
std::uint64_t frame_digest(const std::string& frame) {
    util::fnv1a64 h;
    for (const char c : frame) h.byte(static_cast<std::uint8_t>(c));
    return h.digest();
}

/// \p report's `building_result` frame under \p corr, built the three ways
/// a cache serves it: head plus a freshly encoded tail, a hit on an entry
/// inserted in memory, and a hit on an entry warm-loaded from a spill. A
/// hit's head carries the answer's own index and seconds, restored here to
/// \p report's.
std::vector<std::string> split_building_frames(std::uint64_t corr,
                                               const runtime::building_report& report) {
    namespace fs = std::filesystem;
    const auto from_entry = [&](const api::cached_report& entry) {
        runtime::building_report head = entry.head;
        head.index = report.index;
        head.seconds = report.seconds;
        return api::encode_building_head(corr, head, entry.tail.size()) + entry.tail;
    };
    std::vector<std::string> frames;
    const std::string tail = api::encode_result_tail(report.result);
    frames.push_back(api::encode_building_head(corr, report, tail.size()) + tail);

    runtime::building_report stored = report;
    stored.index = 99;  // the entry's own answer; a hit restamps both
    stored.seconds = 7.5;
    const fs::path dir = fs::temp_directory_path() / "fisone_golden_split_spill";
    fs::remove_all(dir);
    {
        api::result_cache cache(4, api::cache_spill_config{dir.string(), 1, 0});
        cache.insert({5, 6}, stored);
        const std::shared_ptr<const api::cached_report> hit = cache.lookup({5, 6});
        EXPECT_NE(hit, nullptr);
        if (hit) frames.push_back(from_entry(*hit));
    }
    {
        api::result_cache warm(4, api::cache_spill_config{dir.string(), 1, 0});
        EXPECT_EQ(warm.stats().warm_loaded, 1u);
        const std::shared_ptr<const api::cached_report> hit = warm.lookup({5, 6});
        EXPECT_NE(hit, nullptr);
        if (hit) frames.push_back(from_entry(*hit));
    }
    fs::remove_all(dir);
    EXPECT_EQ(frames.size(), 3u);
    return frames;
}

TEST(codec, golden_frame_bytes) {
    // Round trips cannot see a byte-order slip made symmetrically by the
    // encoder and the decoder; these digests pin the exact wire bytes. The
    // inputs are built by plain arithmetic (no libm, no generator), so the
    // digests depend on the codec alone.
    runtime::building_report ok;
    ok.index = 17;
    ok.name = "golden-hall";
    ok.ok = true;
    ok.seed = 0x0123456789abcdefULL;
    ok.seconds = 0.125;
    ok.result.num_clusters = 4;
    for (int i = 0; i < 300; ++i) {
        ok.result.assignment.push_back(i % 4);
        ok.result.predicted_floor.push_back((i * 7) % 5 - 1);
    }
    ok.result.cluster_to_floor = {2, 0, 3, 1};
    ok.result.embeddings = linalg::matrix(300, 16);
    for (std::size_t r = 0; r < 300; ++r)
        for (std::size_t c = 0; c < 16; ++c)
            ok.result.embeddings(r, c) =
                (static_cast<double>(r) - 150.0) / 64.0 + static_cast<double>(c) * 1e-3;
    ok.result.embeddings(7, 3) = -0.0;
    ok.result.embeddings(299, 15) = 1e-300;
    ok.result.has_ground_truth = true;
    ok.result.ari = 0.75;
    ok.result.nmi = 0.8125;
    ok.result.edit_distance = 0.96875;
    EXPECT_EQ(frame_digest(api::encode(api::response(api::building_response{21, ok}))),
              0x1198b0b4b01d5b99ULL);
    for (const std::string& frame : split_building_frames(21, ok))
        EXPECT_EQ(frame_digest(frame), 0x1198b0b4b01d5b99ULL);

    runtime::building_report failed;
    failed.index = 3;
    failed.name = "failed-hall";
    failed.ok = false;
    failed.error = "no labeled sample";
    failed.seed = 42;
    failed.result.embeddings = linalg::matrix(12, 0);
    EXPECT_EQ(frame_digest(api::encode(api::response(api::building_response{22, failed}))),
              0x4078edf2f00fec3eULL);
    for (const std::string& frame : split_building_frames(22, failed))
        EXPECT_EQ(frame_digest(frame), 0x4078edf2f00fec3eULL);

    api::identify_building_request ib;
    ib.correlation_id = 0x1122334455667788ULL;
    ib.has_index = true;
    ib.corpus_index = 9;
    ib.b.name = "golden-scan";
    ib.b.num_floors = 3;
    ib.b.num_macs = 5;
    ib.b.labeled_sample = 1;
    ib.b.labeled_floor = -1;
    for (std::uint32_t s = 0; s < 4; ++s) {
        data::rf_sample smp;
        smp.true_floor = static_cast<std::int32_t>(s % 3) - 1;
        smp.device_id = 1000 + s;
        for (std::uint32_t o = 0; o <= s; ++o)
            smp.observations.push_back({o + s, -40.0 - 0.5 * static_cast<double>(o + 3 * s)});
        ib.b.samples.push_back(std::move(smp));
    }
    EXPECT_EQ(frame_digest(api::encode(api::request(ib))), 0x1c0fa3eb87d5819bULL);

    // Every field distinct and non-zero, so a swap between any two moves
    // the digest.
    service::service_stats stats;
    stats.jobs_submitted = 11;
    stats.jobs_queued = 13;
    stats.jobs_running = 17;
    stats.jobs_done = 10;
    stats.jobs_cancelled = 19;
    stats.buildings_done = 23;
    stats.buildings_ok = 9;
    stats.buildings_failed = 1;
    stats.buildings_cancelled = 29;
    stats.latency = {0.0625, 0.25, 1.5, 31, 3.375, {3, 5, 7, 30}};
    stats.cache_hits = 6;
    stats.cache_misses = 4;
    stats.cache_evictions = 37;
    stats.ingest_appends = 41;
    stats.ingest_dirty_buildings = 43;
    stats.watch_subscribers = 2;
    EXPECT_EQ(frame_digest(api::encode(api::response(api::stats_response{23, stats}))),
              0x9bd3b2358a82d6a9ULL);
}

// --- codec: adversarial decode ----------------------------------------------

TEST(codec, rejects_truncation_at_every_prefix_length) {
    api::identify_building_request m;
    m.correlation_id = 3;
    m.b = tiny_building(2);
    const std::string frame = api::encode(api::request(m));

    for (std::size_t cut = 1; cut < frame.size(); ++cut) {
        const api::decode_result<api::request> decoded =
            api::decode_request(std::string_view(frame).substr(0, cut));
        ASSERT_TRUE(decoded.error.has_value()) << "prefix " << cut << " decoded";
        EXPECT_EQ(decoded.error->code, api::error_code::truncated);
        EXPECT_TRUE(decoded.fatal);
    }
    EXPECT_TRUE(api::decode_request(std::string_view{}).eof);
}

TEST(codec, rejects_oversized_declared_length_without_allocating) {
    // Header declares a payload far beyond the bound; only 4 real bytes follow.
    std::string frame = api::make_frame(
        static_cast<std::uint16_t>(api::message_tag::get_stats), "abcd");
    // Patch the length field (offset 10, little-endian u32) to 256 MiB.
    const std::uint32_t huge = 256u << 20;
    std::memcpy(frame.data() + 10, &huge, sizeof huge);

    const api::decode_result<api::request> decoded = api::decode_request(frame);
    ASSERT_TRUE(decoded.error.has_value());
    EXPECT_EQ(decoded.error->code, api::error_code::oversized);
    EXPECT_TRUE(decoded.fatal);
}

TEST(codec, rejects_unknown_tag_as_recoverable) {
    const std::string payload(8, '\0');  // a plausible correlation id
    const std::string frame = api::make_frame(999, payload);
    std::size_t consumed = 0;
    const api::decode_result<api::request> decoded = api::decode_request(frame, &consumed);
    ASSERT_TRUE(decoded.error.has_value());
    EXPECT_EQ(decoded.error->code, api::error_code::unknown_tag);
    EXPECT_FALSE(decoded.fatal);
    EXPECT_EQ(consumed, frame.size());  // frame consumed: stream can resync

    // A response tag is not a request tag either.
    const std::string resp_frame = api::make_frame(
        static_cast<std::uint16_t>(api::message_tag::flush_done), payload);
    EXPECT_EQ(api::decode_request(resp_frame).error->code, api::error_code::unknown_tag);
}

TEST(codec, rejects_future_schema_version_as_recoverable) {
    const std::string payload(8, '\0');
    const std::string frame = api::make_frame(
        static_cast<std::uint16_t>(api::message_tag::flush), payload,
        api::k_schema_version + 1);
    const api::decode_result<api::request> decoded = api::decode_request(frame);
    ASSERT_TRUE(decoded.error.has_value());
    EXPECT_EQ(decoded.error->code, api::error_code::bad_version);
    EXPECT_FALSE(decoded.fatal);
}

TEST(codec, rejects_bad_magic_as_fatal) {
    const std::string frame = api::make_frame(
        static_cast<std::uint16_t>(api::message_tag::flush), std::string(8, '\0'),
        api::k_schema_version, "XIS1");
    const api::decode_result<api::request> decoded = api::decode_request(frame);
    ASSERT_TRUE(decoded.error.has_value());
    EXPECT_EQ(decoded.error->code, api::error_code::bad_magic);
    EXPECT_TRUE(decoded.fatal);
}

TEST(codec, rejects_empty_and_trailing_payloads) {
    // flush needs an 8-byte correlation id; an empty payload is malformed.
    const std::string empty = api::make_frame(
        static_cast<std::uint16_t>(api::message_tag::flush), "");
    const api::decode_result<api::request> short_decoded = api::decode_request(empty);
    ASSERT_TRUE(short_decoded.error.has_value());
    EXPECT_EQ(short_decoded.error->code, api::error_code::bad_payload);
    EXPECT_FALSE(short_decoded.fatal);

    // Ditto a payload with bytes left over after the message.
    const std::string trailing = api::make_frame(
        static_cast<std::uint16_t>(api::message_tag::flush), std::string(12, '\0'));
    const api::decode_result<api::request> trail_decoded = api::decode_request(trailing);
    ASSERT_TRUE(trail_decoded.error.has_value());
    EXPECT_EQ(trail_decoded.error->code, api::error_code::bad_payload);
}

TEST(codec, hostile_counts_inside_payload_fail_cleanly) {
    // An identify_building whose sample count claims 2^60 entries: the
    // count guard must fail the decode before any allocation attempt.
    std::string payload;
    const auto put_u64 = [&payload](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) payload.push_back(static_cast<char>(v >> (8 * i)));
    };
    put_u64(1);                  // correlation id
    payload.push_back('\0');     // has_index = false
    put_u64(0);                  // corpus_index
    put_u64(0);                  // name: empty
    put_u64(3);                  // num_floors
    put_u64(4);                  // num_macs
    put_u64(0);                  // labeled_sample
    payload.append(4, '\0');     // labeled_floor
    put_u64(1ULL << 60);         // hostile sample count
    const std::string frame = api::make_frame(
        static_cast<std::uint16_t>(api::message_tag::identify_building), payload);
    const api::decode_result<api::request> decoded = api::decode_request(frame);
    ASSERT_TRUE(decoded.error.has_value());
    EXPECT_EQ(decoded.error->code, api::error_code::bad_payload);

    // A stats_result whose histogram claims 2^32 - 1 bucket counts: the
    // guard must fail it before reserving 32 GiB.
    std::string stats(8 + 9 * 8 + 5 * 8, '\0');  // correlation id .. latency_sum
    stats.append(4, '\xff');                     // hostile bucket count
    stats.append(6 * 8, '\0');                   // the six counters after it
    const api::decode_result<api::response> hostile_stats = api::decode_response(
        api::make_frame(static_cast<std::uint16_t>(api::message_tag::stats_result), stats));
    ASSERT_TRUE(hostile_stats.error.has_value());
    EXPECT_EQ(hostile_stats.error->code, api::error_code::bad_payload);
}

TEST(codec, stream_reader_recovers_after_recoverable_frames) {
    std::stringstream wire;
    wire << api::make_frame(999, std::string(8, '\0'));  // unknown tag
    wire << api::encode(api::request(api::flush_request{42}));

    const api::decode_result<api::request> first = api::read_request(wire);
    ASSERT_TRUE(first.error.has_value());
    EXPECT_EQ(first.error->code, api::error_code::unknown_tag);
    EXPECT_FALSE(first.fatal);

    const api::decode_result<api::request> second = api::read_request(wire);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(api::correlation_id(*second.value), 42u);

    EXPECT_TRUE(api::read_request(wire).eof);
}

TEST(codec, encode_rejects_payloads_the_protocol_cannot_carry) {
    // One sample with enough observations to push the payload past the
    // 64 MiB frame bound: encoding must throw instead of emitting a frame
    // the peer's decoder would fatally reject.
    api::identify_building_request m;
    m.correlation_id = 1;
    m.b.name = "oversized";
    m.b.num_floors = 2;
    m.b.num_macs = 1;
    data::rf_sample s;
    s.observations.resize((api::k_max_payload / 12) + 1, {0, -50.0});
    m.b.samples.push_back(std::move(s));
    EXPECT_THROW(static_cast<void>(api::encode(api::request(std::move(m)))),
                 std::length_error);
}

// --- result cache -----------------------------------------------------------

TEST(result_cache, lru_eviction_and_counters) {
    api::result_cache cache(2);
    runtime::building_report r;
    r.ok = true;

    const api::cache_key a{1, 10};
    const api::cache_key b{2, 10};
    const api::cache_key c{3, 10};

    EXPECT_EQ(cache.lookup(a), nullptr);  // miss
    cache.insert(a, r);
    cache.insert(b, r);
    EXPECT_NE(cache.lookup(a), nullptr);  // hit; refreshes a
    cache.insert(c, r);                   // evicts b (LRU)
    EXPECT_NE(cache.lookup(a), nullptr);
    EXPECT_NE(cache.lookup(c), nullptr);
    EXPECT_EQ(cache.lookup(b), nullptr);

    const api::result_cache_stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().hits, 3u);  // counters survive clear

    EXPECT_THROW(api::result_cache(0), std::invalid_argument);
}

// --- server + client --------------------------------------------------------

TEST(api_server, loopback_identify_matches_batch_runner_bitwise) {
    const data::corpus c = tiny_corpus(3);

    runtime::batch_config batch_cfg;
    batch_cfg.pipeline = fast_pipeline();
    batch_cfg.seed = 99;
    batch_cfg.num_threads = 1;
    const runtime::batch_result batch = runtime::batch_runner(batch_cfg).run(c);

    api::server srv(fast_server_config(true));
    api::client cli(srv);
    for (const data::building& b : c.buildings) static_cast<void>(cli.identify(b));
    static_cast<void>(cli.flush());

    const std::vector<runtime::building_report> reports = cli.reports();
    ASSERT_EQ(reports.size(), 3u);
    std::vector<runtime::building_report> sorted = reports;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        EXPECT_TRUE(sorted[i].ok) << sorted[i].error;
        EXPECT_EQ(sorted[i].seed, batch.reports[i].seed);
        EXPECT_EQ(sorted[i].result.assignment, batch.reports[i].result.assignment);
        EXPECT_EQ(sorted[i].result.embeddings, batch.reports[i].result.embeddings);
    }
}

TEST(api_server, stats_cancel_and_error_paths) {
    api::server srv(fast_server_config(true));
    api::client cli(srv);

    const std::uint64_t job_corr = cli.identify(tiny_building(0));
    static_cast<void>(cli.flush());

    // Cancelling a finished job is not accepted; an unknown id is not
    // accepted either (but answered, not erred).
    static_cast<void>(cli.cancel(job_corr));
    static_cast<void>(cli.cancel(777));
    static_cast<void>(cli.get_stats());

    const std::vector<api::response>& responses = cli.responses();
    std::size_t cancels = 0;
    for (const api::response& r : responses)
        if (const auto* cr = std::get_if<api::cancel_response>(&r)) {
            ++cancels;
            EXPECT_FALSE(cr->accepted);
        }
    EXPECT_EQ(cancels, 2u);

    const std::optional<service::service_stats> stats = cli.last_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->buildings_ok, 1u);
    EXPECT_EQ(stats->cache_misses, 1u);
    EXPECT_EQ(stats->cache_hits, 0u);
    EXPECT_TRUE(cli.errors().empty());

    // A malformed frame through the loopback produces a typed error
    // response, and the session keeps serving afterwards.
    api::server::session session = srv.open([&](std::string_view) {});
    EXPECT_TRUE(session.handle_frame(api::make_frame(999, std::string(8, '\0'))));
    EXPECT_FALSE(session.handle_frame("FIS"));  // truncated header: fatal
}

TEST(api_server, shard_root_constrains_wire_supplied_paths) {
    // Write one real shard under a scratch root.
    const auto root = std::filesystem::temp_directory_path() / "fisone_api_shard_root";
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    const std::string shard_path = (root / "shard.csv").string();
    {
        data::shard_writer writer(shard_path);
        writer.append(tiny_building(0));
        writer.close();
    }

    api::server_config cfg = fast_server_config(false);
    cfg.shard_root = root.string();
    api::server srv(cfg);
    api::client cli(srv);

    // Inside the root: served normally.
    static_cast<void>(cli.identify_shard({shard_path, 0, 1}));
    static_cast<void>(cli.flush());
    ASSERT_EQ(cli.reports().size(), 1u);
    EXPECT_TRUE(cli.reports()[0].ok);
    EXPECT_TRUE(cli.errors().empty());

    // Outside the root (absolute path, and a dot-segment escape): a typed
    // bad_request error, never an attempted read.
    static_cast<void>(cli.identify_shard({"/etc/hostname", 0, 1}));
    static_cast<void>(cli.identify_shard({(root / ".." / "elsewhere.csv").string(), 0, 1}));
    static_cast<void>(cli.flush());
    const std::vector<api::error_response> errors = cli.errors();
    ASSERT_EQ(errors.size(), 2u);
    for (const api::error_response& e : errors)
        EXPECT_EQ(e.code, api::error_code::bad_request);
    EXPECT_EQ(cli.reports().size(), 1u);  // no reports for the rejected shards
}

TEST(api_server, warm_resubmission_hits_cache_and_stays_bit_identical) {
    const data::corpus c = tiny_corpus(3);
    api::server srv(fast_server_config(true));

    api::client cold(srv);
    for (std::size_t i = 0; i < c.buildings.size(); ++i)
        static_cast<void>(cold.identify(c.buildings[i], i));
    static_cast<void>(cold.flush());

    api::client warm(srv);
    for (std::size_t i = 0; i < c.buildings.size(); ++i)
        static_cast<void>(warm.identify(c.buildings[i], i));
    static_cast<void>(warm.flush());

    const api::result_cache_stats cache = srv.cache_stats();
    EXPECT_EQ(cache.misses, 3u);
    EXPECT_EQ(cache.hits, 3u);
    EXPECT_EQ(cache.entries, 3u);

    // The warm run never touched the service...
    EXPECT_EQ(srv.stats().buildings_done, 3u);
    // ...yet its responses are identical minus wall time.
    EXPECT_EQ(ndjson_of(cold.reports()), ndjson_of(warm.reports()));
}

// --- end-to-end determinism (the PR's acceptance criterion) -----------------

TEST(api_e2e, loopback_framed_and_direct_service_are_byte_identical) {
    const data::corpus city = tiny_corpus(32);

    // Path 1: direct floor_service submission (no API layer at all).
    service::service_config svc_cfg;
    svc_cfg.pipeline = fast_pipeline();
    svc_cfg.seed = 99;
    svc_cfg.num_threads = 2;
    std::vector<runtime::building_report> direct_reports;
    {
        service::floor_service svc(svc_cfg);
        std::vector<service::floor_service::job> jobs;
        for (const data::building& b : city.buildings) jobs.push_back(svc.submit(b));
        svc.wait_all();
        for (const auto& job : jobs)
            for (const auto& report : job.reports()) direct_reports.push_back(report);
    }
    const std::string direct = ndjson_of(std::move(direct_reports));

    // Path 2: in-process loopback through the API server, cache on —
    // twice, so the second pass is served entirely from the cache.
    api::server srv(fast_server_config(true));
    api::client loop_cold(srv);
    for (std::size_t i = 0; i < city.buildings.size(); ++i)
        static_cast<void>(loop_cold.identify(city.buildings[i], i));
    static_cast<void>(loop_cold.flush());
    api::client loop_warm(srv);
    for (std::size_t i = 0; i < city.buildings.size(); ++i)
        static_cast<void>(loop_warm.identify(city.buildings[i], i));
    static_cast<void>(loop_warm.flush());
    EXPECT_EQ(srv.cache_stats().hits, city.buildings.size());

    // Path 3: the framed-stream transport, cache off.
    std::stringstream wire_in, wire_out;
    api::client framed(static_cast<std::ostream&>(wire_in));
    for (std::size_t i = 0; i < city.buildings.size(); ++i)
        static_cast<void>(framed.identify(city.buildings[i], i));
    static_cast<void>(framed.flush());
    {
        api::server framed_srv(fast_server_config(false));
        framed_srv.serve(wire_in, wire_out);
    }
    static_cast<void>(framed.ingest(wire_out));
    EXPECT_TRUE(framed.errors().empty());

    // Path 4: the same corpus sharded to a store and served as framed
    // identify_shard requests, with a stats request on the same stream.
    const auto store_dir = std::filesystem::temp_directory_path() / "fisone_api_e2e_store";
    std::filesystem::remove_all(store_dir);
    static_cast<void>(data::write_corpus_store(city, store_dir.string(), 8));
    const data::corpus_store store = data::corpus_store::open(store_dir.string());
    std::stringstream shard_in, shard_out;
    api::client sharded(static_cast<std::ostream&>(shard_in));
    for (std::size_t s = 0; s < store.num_shards(); ++s)
        static_cast<void>(sharded.identify_shard(service::make_shard_ref(store, s)));
    static_cast<void>(sharded.flush());
    static_cast<void>(sharded.get_stats());
    {
        api::server shard_srv(fast_server_config(false));
        shard_srv.serve(shard_in, shard_out);
    }
    static_cast<void>(sharded.ingest(shard_out));
    EXPECT_TRUE(sharded.errors().empty());
    ASSERT_TRUE(sharded.last_stats().has_value());
    EXPECT_EQ(sharded.last_stats()->buildings_ok, city.buildings.size());

    const std::string loopback_cold = ndjson_of(loop_cold.reports());
    const std::string loopback_warm = ndjson_of(loop_warm.reports());
    const std::string framed_ndjson = ndjson_of(framed.reports());
    const std::string sharded_ndjson = ndjson_of(sharded.reports());

    EXPECT_EQ(loopback_cold, direct) << "loopback diverged from direct service";
    EXPECT_EQ(loopback_warm, direct) << "cache-served rerun diverged";
    EXPECT_EQ(framed_ndjson, direct) << "framed transport diverged";
    EXPECT_EQ(sharded_ndjson, direct) << "framed shard requests diverged";
}

// --- typed fault-tolerance error codes ---------------------------------------

TEST(codec, fault_tolerance_error_codes_round_trip_canonically) {
    for (const api::error_code code :
         {api::error_code::backend_unavailable, api::error_code::deadline_exceeded}) {
        const api::response resp(api::error_response{31, code, "fleet trouble"});
        const std::string frame = api::encode(resp);
        const api::decode_result<api::response> decoded = api::decode_response(frame);
        ASSERT_TRUE(decoded.ok()) << (decoded.error ? decoded.error->message : "eof");
        const auto& er = std::get<api::error_response>(*decoded.value);
        EXPECT_EQ(er.code, code);
        EXPECT_EQ(er.correlation_id, 31u);
        EXPECT_EQ(er.message, "fleet trouble");
        // Canonical: re-encoding the decoded message reproduces the bytes.
        EXPECT_EQ(api::encode(api::response(er)), frame);
    }
    EXPECT_STREQ(api::error_code_name(api::error_code::backend_unavailable),
                 "backend_unavailable");
    EXPECT_STREQ(api::error_code_name(api::error_code::deadline_exceeded),
                 "deadline_exceeded");
}

TEST(codec, adversarial_error_frames_fail_cleanly) {
    // Payload too short for correlation id + code: recoverable bad_payload
    // with the whole frame consumed, so the stream can resynchronise.
    const std::string short_frame = api::make_frame(
        static_cast<std::uint16_t>(api::message_tag::error), std::string(9, '\0'));
    std::size_t consumed = 0;
    const api::decode_result<api::response> short_decoded =
        api::decode_response(short_frame, &consumed);
    ASSERT_TRUE(short_decoded.error.has_value());
    EXPECT_EQ(short_decoded.error->code, api::error_code::bad_payload);
    EXPECT_FALSE(short_decoded.fatal);
    EXPECT_EQ(consumed, short_frame.size());

    // A well-formed error frame with trailing junk bytes: also bad_payload.
    const std::string good = api::encode(api::response(
        api::error_response{7, api::error_code::deadline_exceeded, "late"}));
    const std::string padded = api::make_frame(
        static_cast<std::uint16_t>(api::message_tag::error),
        good.substr(api::k_frame_header_size) + '\xff');
    const api::decode_result<api::response> padded_decoded = api::decode_response(padded);
    ASSERT_TRUE(padded_decoded.error.has_value());
    EXPECT_EQ(padded_decoded.error->code, api::error_code::bad_payload);
    EXPECT_FALSE(padded_decoded.fatal);
}

// --- persistent result-cache spill --------------------------------------------

TEST(result_cache, spill_persists_and_warm_loads_only_its_shard) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "fisone_cache_spill";
    fs::remove_all(dir);

    runtime::building_report r;
    r.ok = true;
    r.name = "spilled";
    {
        api::result_cache cache(8, api::cache_spill_config{dir.string(), 1, 0});
        EXPECT_EQ(cache.stats().warm_loaded, 0u);
        for (const std::uint64_t h : {2u, 3u, 4u, 5u}) cache.insert({h, 77}, r);
    }
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().extension(), ".rc") << entry.path();
        ++files;
    }
    EXPECT_EQ(files, 4u);

    // A single-shard restart reloads everything, entries included.
    {
        api::result_cache cache(8, api::cache_spill_config{dir.string(), 1, 0});
        EXPECT_EQ(cache.stats().warm_loaded, 4u);
        EXPECT_EQ(cache.stats().entries, 4u);
        const auto hit = cache.lookup({2, 77});
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(hit->head.name, "spilled");
        EXPECT_EQ(cache.lookup({2, 78}), nullptr);  // fingerprint is part of the key
    }
    // Two fleet members sharing the directory each load only their own
    // affinity shard (content_hash mod shard_count) — least data necessary.
    {
        api::result_cache shard0(8, api::cache_spill_config{dir.string(), 2, 0});
        api::result_cache shard1(8, api::cache_spill_config{dir.string(), 2, 1});
        EXPECT_EQ(shard0.stats().warm_loaded, 2u);  // hashes 2 and 4
        EXPECT_EQ(shard1.stats().warm_loaded, 2u);  // hashes 3 and 5
        EXPECT_NE(shard0.lookup({4, 77}), nullptr);
        EXPECT_EQ(shard0.lookup({3, 77}), nullptr);
        EXPECT_NE(shard1.lookup({3, 77}), nullptr);
    }
    fs::remove_all(dir);
}

TEST(result_cache, warm_load_sweeps_temps_and_deletes_corrupt_entries) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "fisone_cache_spill_hostile";
    fs::remove_all(dir);

    runtime::building_report r;
    r.ok = true;
    {
        api::result_cache cache(4, api::cache_spill_config{dir.string(), 1, 0});
        cache.insert({1, 9}, r);
    }
    // A torn temp from a crashed writer, a corrupt entry, a foreign file.
    std::ofstream(dir / "0000000000000002-0000000000000009.rc.0-17.tmp") << "torn";
    std::ofstream(dir / "0000000000000003-0000000000000009.rc") << "not a frame";
    std::ofstream(dir / "README.txt") << "unrelated";

    api::result_cache cache(4, api::cache_spill_config{dir.string(), 1, 0});
    EXPECT_EQ(cache.stats().warm_loaded, 1u);
    EXPECT_NE(cache.lookup({1, 9}), nullptr);
    EXPECT_FALSE(fs::exists(dir / "0000000000000003-0000000000000009.rc"));  // corrupt: gone
    EXPECT_TRUE(fs::exists(dir / "README.txt"));  // foreign files are left alone
    for (const auto& entry : fs::directory_iterator(dir))
        EXPECT_NE(entry.path().extension(), ".tmp") << "temp survived the sweep";
    fs::remove_all(dir);

    EXPECT_THROW(api::result_cache(4, api::cache_spill_config{dir.string(), 0, 0}),
                 std::invalid_argument);
    EXPECT_THROW(api::result_cache(4, api::cache_spill_config{dir.string(), 2, 2}),
                 std::invalid_argument);
}

TEST(api_server, warm_restart_reloads_spilled_cache_bit_identically) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "fisone_server_spill";
    fs::remove_all(dir);
    const data::corpus c = tiny_corpus(2);

    api::server_config cfg = fast_server_config(true);
    cfg.cache_spill = api::cache_spill_config{dir.string(), 1, 0};

    std::string cold;
    {
        api::server srv(cfg);
        api::client cli(srv);
        for (std::size_t i = 0; i < c.buildings.size(); ++i)
            static_cast<void>(cli.identify(c.buildings[i], i));
        static_cast<void>(cli.flush());
        cold = ndjson_of(cli.reports());
    }

    // A fresh server over the same directory: the whole campaign is served
    // from the warm-loaded cache without touching the service.
    api::server srv(cfg);
    EXPECT_EQ(srv.cache_stats().warm_loaded, 2u);
    api::client cli(srv);
    for (std::size_t i = 0; i < c.buildings.size(); ++i)
        static_cast<void>(cli.identify(c.buildings[i], i));
    static_cast<void>(cli.flush());
    EXPECT_EQ(srv.cache_stats().hits, 2u);
    EXPECT_EQ(srv.stats().buildings_done, 0u);
    EXPECT_EQ(ndjson_of(cli.reports()), cold);
    fs::remove_all(dir);
}

// The cache key's config half is memoised per corpus index: every answer
// equals a freshly computed fingerprint, for indices that share a memo slot
// (5 and 5 + 1024) and under concurrent callers, at one worker and at two.
TEST(api_server, memoised_task_fingerprint_equals_a_fresh_one) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(::testing::Message() << workers << " workers");
        api::server_config cfg = fast_server_config(true);
        cfg.service.num_threads = workers;
        api::server srv(cfg);
        ASSERT_EQ(srv.backing_service().num_workers() > 1, workers > 1);
        const auto fresh = [&](std::size_t index) {
            return core::config_fingerprint(runtime::effective_task_config(
                cfg.service.pipeline, cfg.service.seed, index, workers > 1));
        };
        for (const std::size_t index : {0, 1, 5, 1029, 5, 1029, 1023, 4096, 0}) {
            EXPECT_EQ(srv.task_fingerprint(index), fresh(index)) << "index " << index;
            EXPECT_EQ(srv.task_fingerprint(index), fresh(index)) << "index " << index;
        }
        EXPECT_NE(srv.task_fingerprint(5), srv.task_fingerprint(1029));

        std::vector<std::uint64_t> want;
        for (std::size_t index = 0; index < 8; ++index) want.push_back(fresh(index * 1024 + 3));
        std::vector<std::thread> callers;
        std::atomic<int> wrong{0};
        for (std::size_t t = 0; t < 4; ++t)
            callers.emplace_back([&, t] {
                for (std::size_t i = 0; i < 500; ++i) {
                    const std::size_t k = (i + t) % want.size();
                    if (srv.task_fingerprint(k * 1024 + 3) != want[k]) ++wrong;
                }
            });
        for (std::thread& c : callers) c.join();
        EXPECT_EQ(wrong.load(), 0);
    }
}

// A run that fills the cache answers from the entry it just made, like a
// hit: a head carrying the run's own index and seconds, the result left to
// the shared entry, which keeps it only as the tail's bytes. Head plus the
// entry's tail is the frame a whole-report encode gives.
TEST(api_server, cache_fill_answers_from_the_new_entry) {
    api::server srv(fast_server_config(true));
    const data::building b = tiny_building(0);
    const std::uint64_t hash = data::content_hash(b);
    std::mutex m;
    std::vector<api::building_answer> answers;
    const api::server::report_sink sink = [&](api::building_answer a) {
        const std::lock_guard<std::mutex> lock(m);
        answers.push_back(std::move(a));
    };
    EXPECT_FALSE(srv.probe(hash, 3, sink));  // a miss answers nothing
    static_cast<void>(srv.run(b, hash, 3, false, sink));
    srv.backing_service().wait_all();
    EXPECT_TRUE(srv.probe(hash, 3, sink));  // a hit, answered inline
    static_cast<void>(srv.run(b, hash, 3, true, sink));  // no_cache: the whole report
    srv.backing_service().wait_all();
    ASSERT_EQ(answers.size(), 3u);
    const api::building_answer& fill = answers[0];
    ASSERT_TRUE(fill.cached);
    ASSERT_TRUE(fill.report.ok);
    EXPECT_TRUE(fill.report.result.assignment.empty());
    EXPECT_TRUE(fill.cached->head.result.assignment.empty());
    EXPECT_EQ(fill.cached->head.result.embeddings.size(), 0u);
    EXPECT_EQ(fill.report.index, 3u);
    EXPECT_EQ(fill.report.index, fill.cached->head.index);
    EXPECT_EQ(fill.report.seconds, fill.cached->head.seconds);
    EXPECT_EQ(answers[1].cached, fill.cached);
    ASSERT_FALSE(answers[2].cached);
    runtime::building_report whole = answers[2].report;
    whole.seconds = fill.report.seconds;
    EXPECT_EQ(api::encode_building_head(7, fill.report, fill.cached->tail.size()) +
                  fill.cached->tail,
              api::encode(api::building_response{7, whole}));
    const api::result_cache_stats cs = srv.cache_stats();
    EXPECT_EQ(cs.misses, 1u);
    EXPECT_EQ(cs.hits, 1u);
}

// The probe is the one place a building request counts against the cache:
// a cold read counts one miss, a warm read one hit, and a no_cache read
// neither, in what `get_stats` returns.
TEST(api_server, each_read_counts_one_hit_or_one_miss_in_get_stats) {
    const data::building b = tiny_building(1);
    api::server srv(fast_server_config(true));
    api::client cli(srv);
    using counts = std::pair<std::size_t, std::size_t>;  // cache hits, misses
    const auto stats_counts = [&] {
        static_cast<void>(cli.flush());
        static_cast<void>(cli.get_stats());
        const std::optional<service::service_stats> st = cli.last_stats();
        EXPECT_TRUE(st.has_value());
        return st ? counts{st->cache_hits, st->cache_misses} : counts{};
    };
    static_cast<void>(cli.identify(b, 5));
    EXPECT_EQ(stats_counts(), (counts{0, 1}));
    static_cast<void>(cli.identify(b, 5));
    EXPECT_EQ(stats_counts(), (counts{1, 1}));
    static_cast<void>(cli.identify(b, 6));  // another index: another key
    EXPECT_EQ(stats_counts(), (counts{1, 2}));
    api::identify_building_request fresh;
    fresh.correlation_id = 900;
    fresh.has_index = true;
    fresh.corpus_index = 5;
    fresh.no_cache = true;
    fresh.b = b;
    api::server::session s = srv.open([](std::string_view) {});
    s.handle(api::request{fresh});
    s.handle(api::request{api::flush_request{901}});
    EXPECT_EQ(stats_counts(), (counts{1, 2}));
    EXPECT_EQ(srv.stats().buildings_done, 3u);
}

}  // namespace
