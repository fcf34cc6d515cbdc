/// \file bench_trace_overhead.cpp
/// The observability cost contracts, measured. Two phases, same method:
/// each rep runs one back-to-back off/on pair so machine drift lands on
/// both sides equally, the instrument is scored by the median over reps
/// of each pair's overhead (1 - off wall / on wall), and the run exits
/// non-zero when a contract fails.
///
/// **Tracing phase** (loopback transport, cache off so every pass does
/// real pipeline work): tracing off vs tracing on.
///  - tracing on vs off produces byte-identical input-order NDJSON
///    re-exports (spans observe, never steer);
///  - the traced run's buildings/sec is within --max-overhead percent
///    (default 5) of the untraced run.
///
/// **Telemetry phase** (TCP transport): telemetry ticking disabled
/// (`telemetry_window_ms = 0`, no subscriber) vs a fast tick plus an
/// active `subscribe_stats` stream drinking every window.
///  - both runs produce byte-identical NDJSON (telemetry observes, never
///    steers);
///  - the instrumented run stays within --max-overhead percent;
///  - the stream actually pushed `stats_update` frames (the run measured
///    the real thing).
/// Unless --buildings pins it, the fleet grows (up to three times) until
/// the fastest of three telemetry-off TCP probe passes spans five 50 ms
/// windows, so each telemetry-on pass spans at least four however fast
/// the host trains.
///
/// Run:  ./bench_trace_overhead [--quick] [--json] [--out BENCH_trace.json]
///                              [--buildings N] [--samples-per-floor M]
///                              [--reps R] [--max-overhead PCT] [--seed S]
///
///  --quick   CI-sized fleet: 24 buildings (before growing), 40
///            scans/floor
///  --json    write the JSON report (schema `fisone-bench-trace/v1`) to --out
///
/// The JSON schema is documented in README.md § Observability.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <semaphore>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "bench_common.hpp"
#include "api/client.hpp"
#include "api/codec.hpp"
#include "api/server.hpp"
#include "federation/federated_server.hpp"
#include "net/socket.hpp"
#include "net/tcp_server.hpp"
#include "obs/trace.hpp"
#include "service/ndjson_export.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace fisone;
using clock_type = std::chrono::steady_clock;

api::server_config make_server_config(std::uint64_t seed) {
    api::server_config cfg;
    cfg.service.pipeline.gnn.embedding_dim = 16;
    cfg.service.pipeline.gnn.epochs = 3;
    cfg.service.pipeline.gnn.walks.walks_per_node = 3;
    cfg.service.pipeline.num_threads = 1;  // building-level parallelism only
    cfg.service.seed = seed;
    cfg.enable_cache = false;  // every pass does the full pipeline
    return cfg;
}

/// One rep's off/on pair, in ABBA order across reps (off,on, on,off,
/// ...) so neither side always runs second.
template <class Off, class On>
void run_pair(std::size_t rep, const Off& off, const On& on) {
    if (rep % 2 == 0) {
        off();
        on();
    } else {
        on();
        off();
    }
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Median over reps of the instrumented run's throughput loss against its
/// own rep's uninstrumented run, in percent. Pairing cancels the drift
/// between reps that min-of-reps leaves in; the median drops the odd rep
/// a neighbour's burst lands on. Negative (the instrumented pass measured
/// faster: noise) reports as 0.
double paired_overhead_pct(const std::vector<double>& off, const std::vector<double>& on) {
    std::vector<double> pct;
    for (std::size_t i = 0; i < off.size(); ++i)
        if (on[i] > 0.0) pct.push_back((1.0 - off[i] / on[i]) * 100.0);
    return pct.empty() ? 0.0 : std::max(0.0, median(pct));
}

/// One full pass: fresh server, submit the fleet, flush, re-export.
std::pair<std::string, double> run_pass(const std::vector<data::building>& fleet,
                                        std::uint64_t seed) {
    api::server srv(make_server_config(seed));
    api::client cli(srv);
    const clock_type::time_point start = clock_type::now();
    for (std::size_t i = 0; i < fleet.size(); ++i) static_cast<void>(cli.identify(fleet[i], i));
    static_cast<void>(cli.flush());
    const double wall = std::chrono::duration<double>(clock_type::now() - start).count();
    std::ostringstream out;
    service::export_input_order(out, cli.reports());
    return {out.str(), wall};
}

struct tcp_pass {
    std::string ndjson;
    double wall = 0.0;
    std::uint64_t stats_updates = 0;  ///< stats_update frames seen client-side
};

/// One full pass over the TCP front door: fresh 1-backend fleet + fresh
/// `tcp_server` with the given telemetry window, optionally an active
/// `subscribe_stats` stream drinking every window while the fleet is
/// identified over a single framed connection, at most
/// `max_inflight_requests` requests in flight. The wall clock covers the
/// identify workload only (send of first frame to last response), so the
/// off/on comparison isolates what ticking + pushing costs the serve path.
tcp_pass run_tcp_pass(const std::vector<data::building>& fleet, std::uint64_t seed,
                      std::uint32_t telemetry_window_ms, bool with_subscriber) {
    const api::server_config scfg = make_server_config(seed);
    federation::federation_config fcfg;
    fcfg.service = scfg.service;
    fcfg.num_backends = 1;
    fcfg.enable_cache = scfg.enable_cache;
    federation::federated_server fed(fcfg);
    net::tcp_server_config ncfg;
    ncfg.telemetry_window_ms = telemetry_window_ms;
    net::tcp_server front(fed, ncfg);
    std::thread loop([&front] { front.run(); });

    tcp_pass out;
    std::atomic<std::uint64_t> updates{0};
    std::optional<net::frame_conn> sub;
    std::thread sub_reader;
    if (with_subscriber) {
        sub.emplace("127.0.0.1", front.port());
        api::subscribe_stats_request s;
        s.correlation_id = 1;
        s.interval_ms = 0;  // every window
        sub->send(api::encode(api::request(s)));
        sub_reader = std::thread([&] {
            while (std::optional<std::string> frame = sub->read_frame()) {
                const api::decode_result<api::response> r = api::decode_response(*frame);
                if (r.ok() && std::holds_alternative<api::stats_update_response>(*r.value))
                    ++updates;
            }
        });
    }

    std::vector<runtime::building_report> reports;
    const clock_type::time_point start = clock_type::now();
    {
        net::frame_conn conn("127.0.0.1", front.port());
        // At most the front door's admission bound in flight: beyond it a
        // request is shed, not queued. Each answer frees a slot.
        std::counting_semaphore<> window(static_cast<std::ptrdiff_t>(ncfg.max_inflight_requests));
        std::thread writer([&] {
            for (std::size_t i = 0; i < fleet.size(); ++i) {
                window.acquire();
                api::identify_building_request req;
                req.correlation_id = i + 1;
                req.has_index = true;
                req.corpus_index = i;
                req.b = fleet[i];
                conn.send(api::encode(api::request(req)));
            }
            conn.shutdown_write();
        });
        while (std::optional<std::string> frame = conn.read_frame()) {
            window.release();
            const api::decode_result<api::response> r = api::decode_response(*frame);
            if (!r.ok()) throw std::runtime_error("tcp pass: undecodable frame");
            if (const auto* b = std::get_if<api::building_response>(&*r.value))
                reports.push_back(b->report);
        }
        writer.join();
    }
    out.wall = std::chrono::duration<double>(clock_type::now() - start).count();

    if (sub) sub->shutdown_write();  // server sees EOF, closes the stream
    front.drain();
    loop.join();
    if (sub_reader.joinable()) sub_reader.join();
    out.stats_updates = updates.load();

    if (reports.size() != fleet.size())
        throw std::runtime_error("tcp pass: expected " + std::to_string(fleet.size()) +
                                 " reports, got " + std::to_string(reports.size()));
    std::ostringstream nd;
    service::export_input_order(nd, std::move(reports));
    out.ndjson = nd.str();
    return out;
}

}  // namespace

int main(int argc, char** argv) try {
    const util::cli_args args(argc, argv);
    const bool quick = args.has("quick");
    const bool emit_json = args.has("json");
    const std::string out_path = args.get("out", "BENCH_trace.json");
    auto buildings = static_cast<std::size_t>(args.get_int("buildings", quick ? 24 : 32));
    const auto samples =
        static_cast<std::size_t>(args.get_int("samples-per-floor", quick ? 40 : 60));
    const auto reps = static_cast<std::size_t>(args.get_int("reps", 21));
    const double max_overhead = static_cast<double>(args.get_int("max-overhead", 5));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
    if (reps < 1) throw std::invalid_argument("--reps must be >= 1");

    std::cerr << "Synthesising " << buildings << " buildings (" << samples
              << " scans/floor)...\n";
    std::vector<data::building> fleet = bench::make_fleet(buildings, samples, seed).buildings;

    // A telemetry-on pass of one or two windows leaves the zero-frames
    // check one window away and the overhead median riding on a tick or
    // two, so the passes are made to span at least four.
    const std::uint32_t tel_window_ms = 50;
    // A pass's time grows more slowly than its fleet (more buildings keep
    // the workers busier), so the fleet is probed again after each growth.
    const double target = 5.0 * tel_window_ms / 1000.0;
    for (int round = 0; round < 3 && !args.has("buildings"); ++round) {
        double probe = run_tcp_pass(fleet, seed, 0, false).wall;
        for (int i = 0; i < 2; ++i)
            probe = std::min(probe, run_tcp_pass(fleet, seed, 0, false).wall);
        std::cerr << "Fastest telemetry-off probe pass over " << buildings << " buildings: "
                  << probe << "s (target " << target << "s)\n";
        if (probe >= target) break;
        buildings = static_cast<std::size_t>(
            std::ceil(static_cast<double>(buildings) * target / probe));
        fleet = bench::make_fleet(buildings, samples, seed).buildings;
    }

    // Each rep runs one back-to-back off/on pair, so slow machine drift
    // lands on both sides of it alike, and gives one paired overhead
    // sample.
    std::vector<double> off_walls, on_walls;
    std::string off_ndjson, on_ndjson;
    std::uint64_t spans_recorded = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto off_pass = [&] {
            obs::set_tracing_enabled(false);
            const auto [nd_off, s_off] = run_pass(fleet, seed);
            off_walls.push_back(s_off);
            if (off_ndjson.empty())
                off_ndjson = nd_off;
            else if (nd_off != off_ndjson)
                throw std::runtime_error("untraced reps diverged from each other");
        };
        const auto on_pass = [&] {
            obs::reset();  // fresh tape per traced rep: bounded memory, honest count
            obs::set_tracing_enabled(true);
            const auto [nd_on, s_on] = run_pass(fleet, seed);
            obs::set_tracing_enabled(false);
            on_walls.push_back(s_on);
            spans_recorded = obs::stats().recorded;
            if (on_ndjson.empty())
                on_ndjson = nd_on;
            else if (nd_on != on_ndjson)
                throw std::runtime_error("traced reps diverged from each other");
        };
        run_pair(rep, off_pass, on_pass);
        std::cerr << "rep " << (rep + 1) << '/' << reps << ": off " << off_walls.back()
                  << "s, on " << on_walls.back() << "s\n";
    }

    const bool identical = off_ndjson == on_ndjson;
    const double off_wall = median(off_walls);
    const double on_wall = median(on_walls);
    const double off_rate = off_wall > 0.0 ? static_cast<double>(buildings) / off_wall : 0.0;
    const double on_rate = on_wall > 0.0 ? static_cast<double>(buildings) / on_wall : 0.0;
    const double overhead_pct = paired_overhead_pct(off_walls, on_walls);

    // Telemetry phase: same fleet through the TCP front door, telemetry
    // ticking off vs a fast window plus a live subscribe_stats stream.
    std::cerr << "Telemetry phase: TCP passes, window off vs " << tel_window_ms
              << "ms + subscriber...\n";
    std::vector<double> tel_off_walls, tel_on_walls;
    std::string tel_off_ndjson, tel_on_ndjson;
    std::uint64_t stats_updates = 0;
    std::uint64_t min_stats_updates = ~std::uint64_t{0};
    for (std::size_t rep = 0; rep < reps; ++rep) {
        std::uint64_t rep_updates = 0;
        const auto off_pass = [&] {
            const tcp_pass off = run_tcp_pass(fleet, seed, 0, false);
            tel_off_walls.push_back(off.wall);
            if (tel_off_ndjson.empty())
                tel_off_ndjson = off.ndjson;
            else if (off.ndjson != tel_off_ndjson)
                throw std::runtime_error("telemetry-off reps diverged from each other");
        };
        const auto on_pass = [&] {
            const tcp_pass on = run_tcp_pass(fleet, seed, tel_window_ms, true);
            tel_on_walls.push_back(on.wall);
            rep_updates = on.stats_updates;
            stats_updates = std::max(stats_updates, on.stats_updates);
            min_stats_updates = std::min(min_stats_updates, on.stats_updates);
            if (tel_on_ndjson.empty())
                tel_on_ndjson = on.ndjson;
            else if (on.ndjson != tel_on_ndjson)
                throw std::runtime_error("telemetry-on reps diverged from each other");
        };
        run_pair(rep, off_pass, on_pass);
        std::cerr << "rep " << (rep + 1) << '/' << reps << ": off " << tel_off_walls.back()
                  << "s, on " << tel_on_walls.back() << "s (" << rep_updates
                  << " stats_update frames)\n";
    }
    const bool tel_identical = tel_off_ndjson == tel_on_ndjson;
    const double tel_off_wall = median(tel_off_walls);
    const double tel_on_wall = median(tel_on_walls);
    const double tel_off_rate =
        tel_off_wall > 0.0 ? static_cast<double>(buildings) / tel_off_wall : 0.0;
    const double tel_on_rate =
        tel_on_wall > 0.0 ? static_cast<double>(buildings) / tel_on_wall : 0.0;
    const double tel_overhead_pct = paired_overhead_pct(tel_off_walls, tel_on_walls);

    util::table_printer table("Tracing overhead — " + std::to_string(buildings) +
                              " buildings, median of " + std::to_string(reps) +
                              " interleaved reps");
    table.header({"tracing", "wall s", "buildings/s", "spans"});
    table.row({"off", util::table_printer::num(off_wall, 3),
               util::table_printer::num(off_rate, 2), "0"});
    table.row({"on", util::table_printer::num(on_wall, 3),
               util::table_printer::num(on_rate, 2), std::to_string(spans_recorded)});
    table.print(std::cout);
    std::cout << "\nOverhead: " << util::table_printer::num(overhead_pct, 2)
              << "% of untraced throughput, median paired (contract: <= "
              << util::table_printer::num(max_overhead, 1)
              << "%).  NDJSON byte-identical tracing on/off: " << (identical ? "yes" : "NO")
              << "\n\n";

    util::table_printer tel_table("Telemetry overhead — TCP front door, median of " +
                                  std::to_string(reps) + " interleaved reps");
    tel_table.header({"telemetry", "wall s", "buildings/s", "stats_updates"});
    tel_table.row({"off", util::table_printer::num(tel_off_wall, 3),
                   util::table_printer::num(tel_off_rate, 2), "0"});
    tel_table.row({std::to_string(tel_window_ms) + "ms + sub",
                   util::table_printer::num(tel_on_wall, 3),
                   util::table_printer::num(tel_on_rate, 2), std::to_string(stats_updates)});
    tel_table.print(std::cout);
    std::cout << "\nTelemetry overhead: " << util::table_printer::num(tel_overhead_pct, 2)
              << "% of throughput, median paired (contract: <= "
              << util::table_printer::num(max_overhead, 1)
              << "%).  NDJSON byte-identical telemetry on/off: "
              << (tel_identical ? "yes" : "NO") << "\nstats_update frames per telemetry-on pass: "
              << min_stats_updates << " to " << stats_updates << "\n";

    if (emit_json) {
        std::ofstream f(out_path);
        if (!f) {
            std::cerr << "bench_trace_overhead: cannot open " << out_path << " for writing\n";
            return EXIT_FAILURE;
        }
        f << "{\n";
        f << "  \"schema\": \"fisone-bench-trace/v1\",\n";
        f << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
        f << "  \"buildings\": " << buildings << ",\n";
        f << "  \"samples_per_floor\": " << samples << ",\n";
        f << "  \"reps\": " << reps << ",\n";
        f << "  \"untraced_seconds\": " << bench::json_num(off_wall) << ",\n";
        f << "  \"traced_seconds\": " << bench::json_num(on_wall) << ",\n";
        f << "  \"untraced_buildings_per_sec\": " << bench::json_num(off_rate) << ",\n";
        f << "  \"traced_buildings_per_sec\": " << bench::json_num(on_rate) << ",\n";
        f << "  \"overhead_pct\": " << bench::json_num(overhead_pct) << ",\n";
        f << "  \"spans_per_traced_run\": " << spans_recorded << ",\n";
        f << "  \"ndjson_identical\": " << (identical ? "true" : "false") << ",\n";
        f << "  \"telemetry_window_ms\": " << tel_window_ms << ",\n";
        f << "  \"telemetry_off_seconds\": " << bench::json_num(tel_off_wall) << ",\n";
        f << "  \"telemetry_on_seconds\": " << bench::json_num(tel_on_wall) << ",\n";
        f << "  \"telemetry_overhead_pct\": " << bench::json_num(tel_overhead_pct) << ",\n";
        f << "  \"stats_updates_per_run\": " << stats_updates << ",\n";
        f << "  \"telemetry_ndjson_identical\": " << (tel_identical ? "true" : "false")
          << "\n";
        f << "}\n";
        std::cout << "JSON perf trajectory: " << out_path << "\n";
    }

    if (!identical) {
        std::cerr << "bench_trace_overhead: NDJSON diverged between tracing on and off\n";
        return EXIT_FAILURE;
    }
    if (spans_recorded == 0) {
        std::cerr << "bench_trace_overhead: traced run recorded zero spans — "
                     "instrumentation is not reaching the pipeline\n";
        return EXIT_FAILURE;
    }
    if (overhead_pct > max_overhead) {
        std::cerr << "bench_trace_overhead: tracing costs " << overhead_pct
                  << "% of throughput (contract: <= " << max_overhead << "%)\n";
        return EXIT_FAILURE;
    }
    if (!tel_identical) {
        std::cerr << "bench_trace_overhead: NDJSON diverged between telemetry on and off\n";
        return EXIT_FAILURE;
    }
    if (stats_updates == 0) {
        std::cerr << "bench_trace_overhead: subscriber received zero stats_update frames — "
                     "the instrumented run measured nothing\n";
        return EXIT_FAILURE;
    }
    if (tel_overhead_pct > max_overhead) {
        std::cerr << "bench_trace_overhead: telemetry + subscribe_stats costs "
                  << tel_overhead_pct << "% of throughput (contract: <= " << max_overhead
                  << "%)\n";
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
} catch (const std::exception& e) {
    std::cerr << "bench_trace_overhead: " << e.what() << '\n';
    return EXIT_FAILURE;
}
