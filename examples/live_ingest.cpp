/// \file live_ingest.cpp
/// Live-ingestion acceptance driver. With no arguments it runs a
/// self-contained drill — temp corpus store, in-process federated fleet
/// behind a real TCP front door, two client connections — and proves the
/// three ingestion guarantees end to end:
///
///  (a) after an append, the served NDJSON is byte-identical to a cold
///      rebuild over the concatenated (base + delta) corpus;
///  (b) buildings the append left clean are re-served from the result
///      cache with zero pipeline re-runs (cache-hit delta probe);
///  (c) a subscribed connection receives exactly one pushed
///      re-identification, for the dirty building only.
///
/// The same binary exposes each leg as a `--mode` for the CI chaos smoke,
/// which kills the server mid-append and checks the warm restart:
///
///   live_ingest --mode make-store --dir DIR [--count N] [--base-seed S]
///   live_ingest --mode append --port P [--host A] [--corpus NAME]
///               [--touch I] [--new K] [--extra-seed S] [--expect-crash]
///   live_ingest --mode campaign --port P --dir DIR [--out PATH]
///               [--min-cache-hits N] [--resident]
///   live_ingest --mode cold-rebuild --dir DIR [--out PATH]
///
/// `campaign` submits the store's *effective* (delta-applied) corpus over
/// TCP pinned at its global indices — or, with `--resident`, names each
/// building in an `identify_resident{fresh}` and lets the server read it
/// from its own store; `cold-rebuild` runs the same corpus through a fresh
/// in-process server. All write input-order NDJSON, so `cmp` between them
/// is the acceptance check. Defaults (profile quick,
/// seed 7, threads 2) match `serve_tcp`'s, so the two sides derive the
/// same per-building pipeline seeds.

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "api/codec.hpp"
#include "api/message.hpp"
#include "api/server.hpp"
#include "data/corpus_store.hpp"
#include "federation/federated_server.hpp"
#include "net/socket.hpp"
#include "net/tcp_server.hpp"
#include "service/ndjson_export.hpp"
#include "service/profiles.hpp"
#include "sim/building_generator.hpp"
#include "util/cli.hpp"

namespace {

using namespace fisone;

/// Correlation id for stats probes, far above any campaign id.
constexpr std::uint64_t k_stats_corr = 0x00FFFFFF00000002ull;

void print_usage() {
    std::cerr <<
        "usage: live_ingest [--quiet]                      (self-contained drill)\n"
        "       live_ingest --mode make-store --dir DIR [--count N] [--base-seed S]\n"
        "       live_ingest --mode append --port P [--host A] [--corpus NAME]\n"
        "                   [--touch I] [--new K] [--extra-seed S] [--expect-crash]\n"
        "       live_ingest --mode campaign --port P --dir DIR [--out PATH]\n"
        "                   [--min-cache-hits N] [--resident]\n"
        "       live_ingest --mode cold-rebuild --dir DIR [--out PATH]\n"
        "\n"
        "  make-store    write a base corpus store of --count buildings\n"
        "  append        send one append_scans batch: new scans for building\n"
        "                --touch plus --new brand-new buildings; with\n"
        "                --expect-crash, succeed only if the server dies\n"
        "                before answering (crash_on_append drills)\n"
        "  campaign      submit the store's effective corpus over TCP pinned\n"
        "                at its global indices; write input-order NDJSON;\n"
        "                with --resident, request each building by name\n"
        "                (identify_resident, fresh) instead\n"
        "  cold-rebuild  run the same effective corpus through a fresh\n"
        "                in-process server; write input-order NDJSON\n";
}

/// The deterministic base-corpus schedule (index -> building). Small
/// buildings so the drill stays fast on one core.
data::building schedule_building(const std::string& name, std::uint64_t seed,
                                 std::uint64_t index) {
    sim::building_spec spec;
    spec.name = name;
    spec.num_floors = 3 + index % 2;
    spec.samples_per_floor = 20;
    spec.aps_per_floor = 6;
    spec.seed = seed;
    return sim::generate_building(spec).building;
}

data::corpus make_base_corpus(std::size_t count, std::uint64_t base_seed) {
    data::corpus c;
    c.name = "live";
    c.buildings.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        c.buildings.push_back(
            schedule_building("bldg-" + std::to_string(i), base_seed + i, i));
    return c;
}

/// The append batch: fresh scans for base building \p touch (same name,
/// different seed — the merged content hash changes, so it goes dirty)
/// plus \p fresh brand-new buildings appended at the corpus tail.
std::vector<data::building> make_append_batch(std::size_t touch, std::size_t fresh,
                                              std::uint64_t extra_seed) {
    std::vector<data::building> records;
    records.push_back(
        schedule_building("bldg-" + std::to_string(touch), extra_seed, touch));
    for (std::size_t k = 0; k < fresh; ++k)
        records.push_back(
            schedule_building("bldg-new-" + std::to_string(k), extra_seed + 1 + k, k));
    return records;
}

/// Read + decode one response frame; throws on EOF or undecodable bytes.
api::response read_response(net::frame_conn& conn) {
    const std::optional<std::string> frame = conn.read_frame();
    if (!frame) throw std::runtime_error("connection closed by server");
    auto r = api::decode_response(*frame);
    if (!r.ok())
        throw std::runtime_error("undecodable response frame: " +
                                 (r.error ? r.error->message : std::string("eof")));
    return *std::move(r.value);
}

service::service_stats stats_now(net::frame_conn& conn) {
    conn.send(api::encode(api::request{api::get_stats_request{k_stats_corr}}));
    const api::response r = read_response(conn);
    if (const auto* s = std::get_if<api::stats_response>(&r)) return s->stats;
    throw std::runtime_error("unexpected frame while awaiting stats");
}

/// Submit \p buildings over \p conn pinned at indices [0, N) — or, when
/// \p resident, by name as fresh `identify_resident` requests, which the
/// server resolves against its mounted stores — and collect one report per
/// building, in index order.
std::vector<runtime::building_report> campaign_over(net::frame_conn& conn,
                                                    const std::vector<data::building>& bs,
                                                    bool resident = false,
                                                    std::size_t window = 8) {
    std::map<std::uint64_t, runtime::building_report> by_index;
    std::size_t outstanding = 0;
    const auto consume_one = [&] {
        const api::response r = read_response(conn);
        if (const auto* b = std::get_if<api::building_response>(&r)) {
            by_index.emplace(b->report.index, b->report);
            --outstanding;
        } else if (const auto* e = std::get_if<api::error_response>(&r)) {
            throw std::runtime_error("request " + std::to_string(e->correlation_id) +
                                     " failed: " + e->message);
        } else {
            throw std::runtime_error("unexpected response tag mid-campaign");
        }
    };
    for (std::size_t i = 0; i < bs.size(); ++i) {
        while (outstanding >= window) consume_one();
        if (resident) {
            conn.send(api::encode(
                api::request{api::identify_resident_request{i + 1, bs[i].name, true}}));
        } else {
            api::identify_building_request req;
            req.correlation_id = i + 1;
            req.has_index = true;
            req.corpus_index = i;
            req.b = bs[i];
            conn.send(api::encode(api::request{std::move(req)}));
        }
        ++outstanding;
    }
    while (outstanding > 0) consume_one();
    std::vector<runtime::building_report> ordered;
    ordered.reserve(by_index.size());
    for (auto& [index, report] : by_index) ordered.push_back(std::move(report));
    return ordered;
}

/// Cold rebuild: run \p bs through a fresh in-process server (same profile,
/// seed, and worker count as the fleet) and return input-order reports.
std::vector<runtime::building_report> cold_rebuild(const std::vector<data::building>& bs,
                                                   const std::string& profile,
                                                   std::uint64_t seed, std::size_t threads) {
    api::server_config cfg;
    cfg.service = service::profile_by_name(profile, seed, threads);
    api::server srv(cfg);
    api::client cli(srv);
    for (std::size_t i = 0; i < bs.size(); ++i) cli.identify(bs[i], i);
    cli.flush();
    std::vector<runtime::building_report> out = cli.reports();
    if (out.size() != bs.size())
        throw std::runtime_error("cold rebuild: expected " + std::to_string(bs.size()) +
                                 " reports, got " + std::to_string(out.size()));
    return out;
}

std::string ndjson_of(std::vector<runtime::building_report> reports) {
    std::ostringstream out;
    service::export_input_order(out, std::move(reports));
    return out.str();
}

void write_ndjson(const std::string& out_path, std::vector<runtime::building_report> reports) {
    if (!out_path.empty()) {
        std::ofstream f(out_path);
        service::export_input_order(f, std::move(reports));
        f.close();
        if (!f) throw std::runtime_error("cannot write " + out_path);
    } else {
        service::export_input_order(std::cout, std::move(reports));
    }
}

int run_make_store(const util::cli_args& args) {
    const std::string dir = args.get("dir", "");
    if (dir.empty()) throw std::runtime_error("--mode make-store needs --dir");
    const auto count = static_cast<std::size_t>(args.get_int("count", 6));
    const auto base_seed = static_cast<std::uint64_t>(args.get_int("base-seed", 900));
    const data::corpus c = make_base_corpus(count, base_seed);
    data::write_corpus_store(c, dir, 3);
    std::cerr << "live_ingest: wrote store " << dir << " (" << count << " buildings)\n";
    return EXIT_SUCCESS;
}

int run_append(const util::cli_args& args) {
    const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
    if (port == 0) throw std::runtime_error("--mode append needs --port");
    const std::string host = args.get("host", "127.0.0.1");
    const std::string corpus = args.get("corpus", "live");
    const auto touch = static_cast<std::size_t>(args.get_int("touch", 2));
    const auto fresh = static_cast<std::size_t>(args.get_int("new", 1));
    const auto extra_seed = static_cast<std::uint64_t>(args.get_int("extra-seed", 7700));
    const bool expect_crash = args.has("expect-crash");

    net::frame_conn conn(host, port);
    api::append_scans_request req;
    req.correlation_id = 1;
    req.corpus_name = corpus;
    req.records = make_append_batch(touch, fresh, extra_seed);
    conn.send(api::encode(api::request{std::move(req)}));

    bool crashed = false;
    std::optional<api::append_response> ack;
    try {
        const api::response r = read_response(conn);
        if (const auto* a = std::get_if<api::append_response>(&r))
            ack = *a;
        else if (const auto* e = std::get_if<api::error_response>(&r))
            throw std::runtime_error("append failed: " + e->message);
        else
            throw std::runtime_error("unexpected frame awaiting append_result");
    } catch (const std::system_error&) {
        crashed = true;  // connection reset: the server died mid-append
    } catch (const std::runtime_error& e) {
        if (std::string(e.what()) != "connection closed by server") throw;
        crashed = true;  // clean EOF: ditto
    }

    if (expect_crash) {
        if (!crashed) {
            std::cerr << "live_ingest: expected the server to die mid-append, "
                         "but it answered\n";
            return EXIT_FAILURE;
        }
        std::cerr << "live_ingest: server died mid-append as planned\n";
        return EXIT_SUCCESS;
    }
    if (crashed) throw std::runtime_error("server died during append");
    std::cerr << "live_ingest: append durable: version " << ack->version << ", "
              << ack->accepted << " records, " << ack->dirty << " dirty buildings\n";
    return EXIT_SUCCESS;
}

int run_campaign(const util::cli_args& args) {
    const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
    const std::string dir = args.get("dir", "");
    if (port == 0 || dir.empty())
        throw std::runtime_error("--mode campaign needs --port and --dir");
    const std::string host = args.get("host", "127.0.0.1");
    const auto min_cache_hits = static_cast<std::uint64_t>(args.get_int("min-cache-hits", 0));
    const bool resident = args.has("resident");

    const data::corpus effective = data::corpus_store::open(dir).load_all_effective();
    net::frame_conn conn(host, port);
    const std::uint64_t hits_before = stats_now(conn).cache_hits;
    std::vector<runtime::building_report> reports =
        campaign_over(conn, effective.buildings, resident);
    const std::uint64_t hits_delta = stats_now(conn).cache_hits - hits_before;
    conn.shutdown_write();

    const std::size_t got = reports.size();
    write_ndjson(args.get("out", ""), std::move(reports));
    std::cerr << "live_ingest: " << (resident ? "resident " : "") << "campaign served " << got
              << '/' << effective.buildings.size() << " buildings, " << hits_delta
              << " cache hits\n";
    if (got != effective.buildings.size()) return EXIT_FAILURE;
    if (hits_delta < min_cache_hits) {
        std::cerr << "live_ingest: cache hits " << hits_delta << " < required "
                  << min_cache_hits << '\n';
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
}

int run_cold_rebuild(const util::cli_args& args) {
    const std::string dir = args.get("dir", "");
    if (dir.empty()) throw std::runtime_error("--mode cold-rebuild needs --dir");
    const std::string profile = args.get("profile", "quick");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
    const auto threads = static_cast<std::size_t>(args.get_int("threads", 2));
    const data::corpus effective = data::corpus_store::open(dir).load_all_effective();
    write_ndjson(args.get("out", ""),
                 cold_rebuild(effective.buildings, profile, seed, threads));
    std::cerr << "live_ingest: cold rebuild over " << effective.buildings.size()
              << " effective buildings\n";
    return EXIT_SUCCESS;
}

/// Scoped temp directory for the self-contained drill.
struct temp_dir {
    std::filesystem::path path;
    explicit temp_dir(const std::string& stem) {
        path = std::filesystem::temp_directory_path() /
               (stem + "-" + std::to_string(static_cast<unsigned>(::getpid())));
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~temp_dir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

void check(bool ok, const std::string& what) {
    if (!ok) throw std::runtime_error("FAILED: " + what);
    std::cerr << "live_ingest: ok — " << what << '\n';
}

int run_demo(bool quiet) {
    const std::string profile = "quick";
    const std::uint64_t seed = 7;
    const std::size_t threads = 2;
    const std::size_t count = 6;
    const std::size_t touch = 2;

    temp_dir store("fisone-live-ingest");
    const std::string dir = store.path.string();
    data::write_corpus_store(make_base_corpus(count, 900), dir, 3);

    federation::federation_config cfg;
    cfg.service = service::profile_by_name(profile, seed, threads);
    cfg.num_backends = 2;
    cfg.store_dirs = {dir};
    federation::federated_server fleet(cfg);
    net::tcp_server_config net_cfg;
    net_cfg.host = "127.0.0.1";
    net_cfg.port = 0;
    net::tcp_server srv(fleet, net_cfg);
    std::thread loop([&srv] { srv.run(); });
    if (!quiet) std::cerr << "live_ingest: fleet on 127.0.0.1:" << srv.port() << '\n';

    try {
        net::frame_conn watcher("127.0.0.1", srv.port());
        net::frame_conn worker("127.0.0.1", srv.port());

        // Warm campaign over the base corpus: every building's result lands
        // in the fleet's result caches.
        const data::corpus base = data::corpus_store::open(dir).load_all_effective();
        static_cast<void>(campaign_over(worker, base.buildings));

        // Stand a subscription on the building the append will touch.
        watcher.send(api::encode(
            api::request{api::watch_request{50, "bldg-" + std::to_string(touch), true}}));
        {
            const api::response r = read_response(watcher);
            const auto* a = std::get_if<api::watch_ack_response>(&r);
            check(a && a->active && a->correlation_id == 50, "watch subscription acknowledged");
        }

        // Append: new scans for bldg-2 plus one brand-new building.
        api::append_scans_request areq;
        areq.correlation_id = 60;
        areq.corpus_name = "live";
        areq.records = make_append_batch(touch, 1, 7700);
        worker.send(api::encode(api::request{std::move(areq)}));
        {
            const api::response r = read_response(worker);
            const auto* a = std::get_if<api::append_response>(&r);
            check(a != nullptr, "append answered with append_result");
            check(a->version == 1 && a->accepted == 2 && a->dirty == 2,
                  "append durable at version 1: 2 records, 2 dirty buildings");
        }

        // Barrier: flush waits for the dirty re-runs to finish and cache.
        worker.send(api::encode(api::request{api::flush_request{61}}));
        {
            const api::response r = read_response(worker);
            check(std::get_if<api::flush_response>(&r) != nullptr,
                  "flush drained the re-identification runs");
        }

        // (c) the watcher got a push for the dirty building it subscribed
        // to — and nothing else (the stats answer arriving next proves no
        // second push was buffered ahead of it).
        {
            const api::response r = read_response(watcher);
            const auto* p = std::get_if<api::push_response>(&r);
            check(p != nullptr, "watcher received a push_update");
            check(p->correlation_id == 50 && p->version == 1,
                  "push carries the watch correlation id and store version 1");
            check(p->report.ok && p->report.index == touch &&
                      p->report.name == "bldg-" + std::to_string(touch),
                  "push re-identifies the dirty building only");
            const service::service_stats ws = stats_now(watcher);
            check(ws.watch_subscribers == 1, "exactly one live watch subscription");
            check(ws.ingest_appends == 1 && ws.ingest_dirty_buildings == 2,
                  "ingest counters: 1 append, 2 dirty buildings");
        }

        // (b) re-serve the effective corpus: every building answers from
        // cache — zero pipeline re-runs.
        const data::corpus effective = data::corpus_store::open(dir).load_all_effective();
        check(effective.buildings.size() == count + 1,
              "effective corpus is base + 1 appended building");
        const service::service_stats before = stats_now(worker);
        std::vector<runtime::building_report> served =
            campaign_over(worker, effective.buildings);
        const service::service_stats after = stats_now(worker);
        check(after.cache_hits - before.cache_hits >= effective.buildings.size(),
              "clean re-serve: every building was a cache hit");
        check(after.buildings_done == before.buildings_done,
              "clean re-serve: zero pipeline re-runs");

        // (a) served NDJSON is byte-identical to a cold rebuild over the
        // concatenated (base + delta) corpus.
        const std::string served_ndjson = ndjson_of(std::move(served));
        const std::string cold_ndjson =
            ndjson_of(cold_rebuild(effective.buildings, profile, seed, threads));
        check(!served_ndjson.empty() && served_ndjson == cold_ndjson,
              "served NDJSON byte-identical to cold rebuild");

        // Unsubscribe tears the watch down.
        watcher.send(api::encode(api::request{api::watch_request{51, "bldg-2", false}}));
        {
            const api::response r = read_response(watcher);
            const auto* a = std::get_if<api::watch_ack_response>(&r);
            check(a && !a->active && a->correlation_id == 51, "unsubscribe acknowledged");
            check(stats_now(watcher).watch_subscribers == 0, "subscriber gauge back to zero");
        }

        watcher.close();
        worker.close();
    } catch (...) {
        srv.drain();
        loop.join();
        throw;
    }
    srv.drain();
    loop.join();
    std::cerr << "live_ingest: all acceptance checks passed\n";
    return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) try {
    const util::cli_args args(argc, argv);
    if (args.has("help")) {
        print_usage();
        return EXIT_SUCCESS;
    }
    const std::string mode = args.get("mode", "");
    if (mode.empty()) return run_demo(args.has("quiet"));
    if (mode == "make-store") return run_make_store(args);
    if (mode == "append") return run_append(args);
    if (mode == "campaign") return run_campaign(args);
    if (mode == "cold-rebuild") return run_cold_rebuild(args);
    std::cerr << "live_ingest: unknown --mode " << mode << '\n';
    print_usage();
    return EXIT_FAILURE;
} catch (const std::exception& e) {
    std::cerr << "live_ingest: " << e.what() << '\n';
    return EXIT_FAILURE;
}
