/// \file bench_net_loadtest.cpp
/// Open-loop load test of the network front door, and the proof that the
/// TCP path changes nothing: many concurrent connections blast
/// `identify_building` frames at a `net::tcp_server` (each connection
/// deliberately reusing correlation ids 1..k, so per-connection id
/// spaces are on the hot path), per-request wall latency is recorded
/// client-side, and at the end the merged input-order NDJSON re-export is
/// compared **byte for byte** against an in-process loopback run of the
/// same corpus. Then an overload phase pauses the fleet, blasts
/// more requests than the admission bound, and checks the shed contract:
/// every submitted request is answered — a result or a typed
/// `error_response{overloaded}` — with nothing hung and nothing dropped.
///
/// Run:  ./bench_net_loadtest [--quick] [--json] [--out BENCH_net.json]
///                            [--buildings N] [--samples-per-floor M]
///                            [--connections C] [--threads T] [--seed S]
///                            [--connect HOST:PORT]
///
///  --quick    CI-sized corpus (seconds)
///  --json     write the JSON report (schema `fisone-bench-net/v1`)
///  --connect  drive an external `serve_tcp` (same profile + seed!)
///             instead of an in-process 1-backend fleet; the parity
///             check then spans two processes. The overload phase needs
///             to pause the fleet, so it only runs in-process.
///
/// Exits non-zero on NDJSON divergence or an unaccounted overload request.

#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bench_common.hpp"
#include "api/client.hpp"
#include "api/server.hpp"
#include "federation/federated_server.hpp"
#include "net/socket.hpp"
#include "net/tcp_server.hpp"
#include "obs/trace.hpp"
#include "service/ndjson_export.hpp"
#include "service/profiles.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace fisone;
using clock_type = std::chrono::steady_clock;

/// The reference run: same corpus, same explicit indices, loopback
/// transport. Returns (wall seconds, input-order NDJSON).
std::pair<double, std::string> run_loopback(const data::corpus& fleet, std::uint64_t seed,
                                            std::size_t threads) {
    const clock_type::time_point start = clock_type::now();
    api::server_config cfg;
    cfg.service = service::quick_profile(seed, threads);
    api::server srv(cfg);
    api::client cli(srv);
    for (std::size_t i = 0; i < fleet.buildings.size(); ++i)
        static_cast<void>(cli.identify(fleet.buildings[i], i));
    static_cast<void>(cli.flush());
    const double wall = std::chrono::duration<double>(clock_type::now() - start).count();
    std::ostringstream out;
    service::export_input_order(out, cli.reports());
    return {wall, out.str()};
}

struct tcp_run {
    double wall = 0.0;
    std::string ndjson;
    std::vector<double> latency;  ///< seconds, every connection's samples
    std::size_t responses = 0;
    std::size_t protocol_errors = 0;
};

/// Blast \p fleet at host:port over \p connections concurrent connections
/// (building i rides connection i % C under the connection-local
/// correlation id for its position — every connection counts 1, 2, 3...,
/// so ids collide across connections by construction).
tcp_run run_tcp(const std::string& host, std::uint16_t port, const data::corpus& fleet,
                std::size_t connections) {
    struct conn_state {
        std::vector<std::size_t> indices;  ///< corpus indices on this connection
        std::vector<runtime::building_report> reports;
        std::vector<double> latency;
        std::size_t errors = 0;
        std::mutex m;  ///< guards send_at between writer and reader thread
        std::vector<clock_type::time_point> send_at;  ///< [corr-1]
        std::string failure;
    };
    std::vector<conn_state> conns(connections);
    for (std::size_t i = 0; i < fleet.buildings.size(); ++i)
        conns[i % connections].indices.push_back(i);

    const clock_type::time_point start = clock_type::now();
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            conn_state& st = conns[c];
            try {
                net::frame_conn conn(host, port);
                st.send_at.resize(st.indices.size());
                std::thread writer([&] {
                    for (std::size_t j = 0; j < st.indices.size(); ++j) {
                        api::identify_building_request req;
                        req.correlation_id = j + 1;  // local id space, collides across conns
                        req.has_index = true;
                        req.corpus_index = st.indices[j];
                        req.b = fleet.buildings[st.indices[j]];
                        const std::string frame = api::encode(api::request(req));
                        {
                            const std::lock_guard<std::mutex> lock(st.m);
                            st.send_at[j] = clock_type::now();
                        }
                        conn.send(frame);
                    }
                    conn.shutdown_write();
                });
                while (std::optional<std::string> frame = conn.read_frame()) {
                    const api::decode_result<api::response> r = api::decode_response(*frame);
                    if (!r.ok()) {
                        ++st.errors;
                        continue;
                    }
                    if (const auto* b = std::get_if<api::building_response>(&*r.value)) {
                        const clock_type::time_point now = clock_type::now();
                        {
                            const std::lock_guard<std::mutex> lock(st.m);
                            if (b->correlation_id >= 1 &&
                                b->correlation_id <= st.send_at.size())
                                st.latency.push_back(std::chrono::duration<double>(
                                                   now - st.send_at[b->correlation_id - 1])
                                                   .count());
                        }
                        st.reports.push_back(b->report);
                    } else if (std::get_if<api::error_response>(&*r.value)) {
                        ++st.errors;
                    }
                }
                writer.join();
            } catch (const std::exception& e) {
                st.failure = e.what();
            }
        });
    }
    for (std::thread& t : threads) t.join();
    tcp_run out;
    out.wall = std::chrono::duration<double>(clock_type::now() - start).count();
    std::vector<runtime::building_report> reports;
    for (conn_state& st : conns) {
        if (!st.failure.empty())
            throw std::runtime_error("connection failed: " + st.failure);
        for (auto& r : st.reports) reports.push_back(std::move(r));
        out.latency.insert(out.latency.end(), st.latency.begin(), st.latency.end());
        out.responses += st.reports.size();
        out.protocol_errors += st.errors;
    }
    std::ostringstream nd;
    service::export_input_order(nd, std::move(reports));
    out.ndjson = nd.str();
    return out;
}

struct overload_result {
    std::size_t submitted = 0;
    std::size_t results = 0;
    std::size_t shed = 0;
    std::size_t other = 0;
    [[nodiscard]] bool accounted() const {
        return submitted == results + shed && other == 0 && shed > 0;
    }
};

/// Pause the fleet, submit far more than the admission bound,
/// and verify every request is answered: a building result or a typed
/// `overloaded` shed — no hangs, no silent drops.
overload_result run_overload(const data::corpus& fleet, std::uint64_t seed) {
    constexpr std::size_t k_bound = 2;
    constexpr std::size_t k_conns = 2;
    constexpr std::size_t k_per_conn = 8;

    federation::federation_config fcfg;
    fcfg.service = service::quick_profile(seed, 1);
    fcfg.num_backends = 1;
    federation::federated_server fed(fcfg);
    fed.pause();

    net::tcp_server_config ncfg;
    ncfg.max_inflight_requests = k_bound;
    net::tcp_server front(fed, ncfg);
    std::thread loop([&front] { front.run(); });

    overload_result out;
    std::mutex m;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < k_conns; ++c) {
        clients.emplace_back([&, c] {
            net::frame_conn conn("127.0.0.1", front.port());
            for (std::size_t j = 0; j < k_per_conn; ++j) {
                api::identify_building_request req;
                req.correlation_id = j + 1;
                req.has_index = true;
                // Unique indices per request so nothing is served by cache.
                req.corpus_index = c * k_per_conn + j;
                req.b = fleet.buildings[(c * k_per_conn + j) % fleet.buildings.size()];
                conn.send(api::encode(api::request(req)));
            }
            conn.shutdown_write();
            std::size_t results = 0, shed = 0, other = 0;
            while (std::optional<std::string> frame = conn.read_frame()) {
                const api::decode_result<api::response> r = api::decode_response(*frame);
                if (r.ok() && std::holds_alternative<api::building_response>(*r.value))
                    ++results;
                else if (r.ok() && std::holds_alternative<api::error_response>(*r.value) &&
                         std::get<api::error_response>(*r.value).code ==
                             api::error_code::overloaded)
                    ++shed;
                else
                    ++other;
            }
            const std::lock_guard<std::mutex> lock(m);
            out.submitted += k_per_conn;
            out.results += results;
            out.shed += shed;
            out.other += other;
        });
    }
    // Let the blast hit the (paused) bound, then release the gate: the
    // admitted requests complete, the readers see EOF after their last
    // response, and the clients join.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    fed.resume();
    for (std::thread& t : clients) t.join();
    front.drain();
    loop.join();
    return out;
}

}  // namespace

int main(int argc, char** argv) try {
    const util::cli_args args(argc, argv);
    const bool quick = args.has("quick");
    const bool emit_json = args.has("json");
    const std::string out_path = args.get("out", "BENCH_net.json");
    const auto buildings =
        static_cast<std::size_t>(args.get_int("buildings", quick ? 6 : 16));
    const auto samples =
        static_cast<std::size_t>(args.get_int("samples-per-floor", quick ? 20 : 60));
    const auto connections = static_cast<std::size_t>(args.get_int("connections", 4));
    const auto threads = static_cast<std::size_t>(args.get_int("threads", 2));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
    const std::string connect = args.get("connect", "");
    const std::string trace_out = args.get("trace-out", "");
    if (connections < 1) throw std::invalid_argument("--connections must be >= 1");

    // Tracing covers the whole load run (loopback reference included) so
    // the tape shows both transports side by side.
    if (!trace_out.empty()) obs::set_tracing_enabled(true);

    std::cerr << "Synthesising " << buildings << " buildings (" << samples
              << " scans/floor)...\n";
    const data::corpus fleet = bench::make_fleet(buildings, samples, seed);

    std::cerr << "Loopback reference run...\n";
    const auto [loop_s, loop_ndjson] = run_loopback(fleet, seed, threads);

    // The system under test: an external serve_tcp, or an in-process
    // front door over a 1-backend fleet.
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::unique_ptr<federation::federated_server> fed;
    std::unique_ptr<net::tcp_server> front;
    std::thread loop_thread;
    if (connect.empty()) {
        federation::federation_config cfg;
        cfg.service = service::quick_profile(seed, threads);
        cfg.num_backends = 1;
        fed = std::make_unique<federation::federated_server>(cfg);
        front = std::make_unique<net::tcp_server>(*fed);
        port = front->port();
        loop_thread = std::thread([&front] { front->run(); });
    } else {
        const std::size_t colon = connect.rfind(':');
        if (colon == std::string::npos)
            throw std::invalid_argument("--connect wants HOST:PORT, got " + connect);
        host = connect.substr(0, colon);
        port = static_cast<std::uint16_t>(std::stoi(connect.substr(colon + 1)));
    }

    std::cerr << "TCP run: " << connections << " connections against " << host << ':'
              << port << "...\n";
    const tcp_run tcp = run_tcp(host, port, fleet, connections);
    if (front) {
        front->drain();
        loop_thread.join();
    }
    const bool identical = tcp.ndjson == loop_ndjson;

    overload_result overload;
    const bool overload_ran = connect.empty();
    if (overload_ran) {
        std::cerr << "Overload phase: paused backend, bound 2, 16 requests...\n";
        overload = run_overload(fleet, seed);
    }

    const auto rate = [&](double s) {
        return s > 0.0 ? static_cast<double>(buildings) / s : 0.0;
    };
    const auto ms = [](double s) { return s * 1e3; };
    const auto latency_ms = [&tcp, &ms](double p) {
        return tcp.latency.empty() ? 0.0 : ms(util::percentile(tcp.latency, p));
    };
    util::table_printer table("Network front door — " + std::to_string(buildings) +
                              " buildings over " + std::to_string(connections) +
                              " connections");
    table.header({"transport", "wall s", "buildings/s", "p50 ms", "p99 ms", "identical"});
    table.row({"loopback", util::table_printer::num(loop_s, 2),
               util::table_printer::num(rate(loop_s), 2), "-", "-", "reference"});
    table.row({connect.empty() ? "tcp (in-process)" : "tcp (external)",
               util::table_printer::num(tcp.wall, 2),
               util::table_printer::num(rate(tcp.wall), 2),
               util::table_printer::num(latency_ms(50.0), 1),
               util::table_printer::num(latency_ms(99.0), 1),
               identical ? "yes" : "NO"});
    table.print(std::cout);
    std::cout << "\nTCP NDJSON byte-identical to loopback: " << (identical ? "yes" : "NO")
              << "\n";
    if (overload_ran)
        std::cout << "Overload: " << overload.submitted << " submitted = " << overload.results
                  << " results + " << overload.shed << " typed sheds ("
                  << (overload.accounted() ? "fully accounted" : "NOT ACCOUNTED") << ")\n";

    if (emit_json) {
        std::ofstream f(out_path);
        if (!f) {
            std::cerr << "bench_net_loadtest: cannot open " << out_path << '\n';
            return EXIT_FAILURE;
        }
        f << "{\n";
        f << "  \"schema\": \"fisone-bench-net/v1\",\n";
        f << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
        f << "  \"transport\": \"" << (connect.empty() ? "in-process" : "external") << "\",\n";
        f << "  \"buildings\": " << buildings << ",\n";
        f << "  \"samples_per_floor\": " << samples << ",\n";
        f << "  \"connections\": " << connections << ",\n";
        f << "  \"backend_threads\": " << threads << ",\n";
        f << "  \"loopback_seconds\": " << bench::json_num(loop_s) << ",\n";
        f << "  \"tcp_seconds\": " << bench::json_num(tcp.wall) << ",\n";
        f << "  \"tcp_buildings_per_sec\": " << bench::json_num(rate(tcp.wall)) << ",\n";
        f << "  \"latency_p50_ms\": " << bench::json_num(latency_ms(50.0))
          << ",\n";
        f << "  \"latency_p90_ms\": " << bench::json_num(latency_ms(90.0))
          << ",\n";
        f << "  \"latency_p99_ms\": " << bench::json_num(latency_ms(99.0))
          << ",\n";
        f << "  \"ndjson_identical\": " << (identical ? "true" : "false") << ",\n";
        f << "  \"overload_ran\": " << (overload_ran ? "true" : "false") << ",\n";
        f << "  \"overload_submitted\": " << overload.submitted << ",\n";
        f << "  \"overload_results\": " << overload.results << ",\n";
        f << "  \"overload_shed\": " << overload.shed << ",\n";
        f << "  \"overload_accounted\": "
          << (!overload_ran || overload.accounted() ? "true" : "false") << "\n";
        f << "}\n";
        std::cout << "JSON perf trajectory: " << out_path << "\n";
    }

    if (!trace_out.empty()) {
        std::ofstream f(trace_out);
        obs::dump_chrome_trace(f);
        f.close();
        if (!f) {
            std::cerr << "bench_net_loadtest: cannot write trace file " << trace_out << '\n';
            return EXIT_FAILURE;
        }
        const obs::trace_stats ts = obs::stats();
        std::cout << "Chrome trace (" << ts.recorded << " spans, " << ts.dropped
                  << " dropped): " << trace_out << "\n";
    }

    if (!identical) {
        std::cerr << "bench_net_loadtest: TCP NDJSON diverged from the loopback run\n";
        return EXIT_FAILURE;
    }
    if (overload_ran && !overload.accounted()) {
        std::cerr << "bench_net_loadtest: overload accounting failed: " << overload.submitted
                  << " submitted, " << overload.results << " results, " << overload.shed
                  << " shed, " << overload.other << " other\n";
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
} catch (const std::exception& e) {
    std::cerr << "bench_net_loadtest: " << e.what() << '\n';
    return EXIT_FAILURE;
}
