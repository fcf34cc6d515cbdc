/// \file serve_tcp.cpp
/// The network front door, running: bind a `net::tcp_server` on a real
/// socket, front a federated fleet of `--backends` services, and serve
/// FIS1 frames to any number of concurrent connections until a
/// SIGTERM/SIGINT triggers a graceful drain (stop accepting, finish
/// in-flight jobs, flush, exit 0).
///
/// While it runs, the same port answers plaintext probes:
///
///     curl http://127.0.0.1:PORT/metrics
///
/// returns the Prometheus text-format page (transport counters, admission
/// and shed totals, request latency quantiles, service + cache stats).
///
/// Run:  ./serve_tcp [--host A] [--port P] [--port-file PATH]
///                   [--stores DIR,DIR,...] [--backends N]
///                   [--threads T] [--seed S] [--profile quick|full]
///                   [--max-inflight N] [--max-connections N]
///                   [--request-timeout-ms N] [--cache-dir DIR]
///                   [--fault-plan SPEC] [--trace-out PATH] [--slow-ms N]
///                   [--telemetry-window-ms N] [--quiet] [--help]
///
///  --port 0       (default) binds a kernel-assigned port; pair with
///                 --port-file so a driving script can discover it.
///  --stores       mount on-disk corpus stores behind the fleet; without
///                 it the fleet serves wire-supplied buildings only.
///  --backends     fleet size (default 2).
///  --profile      pins the pipeline profile (`service::profiles`), so a
///                 client process using the same profile + seed gets
///                 byte-identical results to an in-process run.
///  --request-timeout-ms
///                 per-request deadline. A building request that hasn't
///                 answered within N ms is cancelled on its backend and
///                 retried elsewhere; exhausted retries answer a typed
///                 `deadline_exceeded` error. 0 (default) disables
///                 deadlines.
///  --cache-dir    persist the result cache(s) under DIR (crash-safe
///                 write-then-rename spill). On start each backend warm
///                 loads only its own cache-affinity shard, so a
///                 restarted fleet resumes with warm caches.
///  --fault-plan   deterministic fault injection, e.g.
///                 `0:fail_every=3;1:hang_ms=200` (keys: fail_every,
///                 fail_first, hang_ms, crash_on_submit, slow_read_ms,
///                 crash_on_append). Injected transient failures and
///                 submit crashes are retried, failed over and counted
///                 by the circuit breakers. crash_on_append=1 aborts
///                 the process after an appended delta shard is durable
///                 but before the manifest tmp is written; =2 aborts
///                 after the tmp is written but before the rename —
///                 both for drilling the warm-restart torn-manifest
///                 guarantee.
///  --trace-out    enable span tracing for the whole run and write the
///                 tape as Chrome trace-event JSON (Perfetto-loadable) to
///                 PATH after the drain completes. While the server runs,
///                 `curl http://host:port/dump_trace` serves the same JSON
///                 live.
///  --slow-ms      log one structured JSON line to stderr for every
///                 request at or over N milliseconds, with the request's
///                 span breakdown inline when tracing is on. 0 (default)
///                 disables the log.
///  --telemetry-window-ms
///                 length of the front door's telemetry windows (the
///                 cadence `subscribe_stats` streams and the capacity
///                 bench closes its loop on). Default 1000; 0 disables
///                 ticking entirely.

#include <pthread.h>
#include <signal.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "federation/federated_server.hpp"
#include "net/tcp_server.hpp"
#include "obs/trace.hpp"
#include "service/fault_plan.hpp"
#include "service/profiles.hpp"
#include "util/cli.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::string part =
            csv.substr(start, comma == std::string::npos ? comma : comma - start);
        if (!part.empty()) out.push_back(part);
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return out;
}

void print_usage() {
    std::cerr <<
        "usage: serve_tcp [--host A] [--port P] [--port-file PATH]\n"
        "                 [--stores DIR,DIR,...] [--backends N]\n"
        "                 [--threads T] [--seed S] [--profile quick|full]\n"
        "                 [--max-inflight N] [--max-connections N]\n"
        "                 [--request-timeout-ms N] [--cache-dir DIR]\n"
        "                 [--fault-plan SPEC] [--trace-out PATH]\n"
        "                 [--slow-ms N] [--telemetry-window-ms N]\n"
        "                 [--quiet] [--help]\n"
        "\n"
        "  --request-timeout-ms N   per-request deadline; late attempts are\n"
        "                           cancelled and retried on another backend,\n"
        "                           exhausted retries answer deadline_exceeded.\n"
        "                           0 disables (default).\n"
        "  --cache-dir DIR          crash-safe persistent result-cache spill;\n"
        "                           each backend warm-loads its own affinity\n"
        "                           shard on restart.\n"
        "  --fault-plan SPEC        deterministic fault injection, e.g.\n"
        "                           0:fail_every=3;1:hang_ms=200 (keys:\n"
        "                           fail_every, fail_first, hang_ms,\n"
        "                           crash_on_submit, slow_read_ms,\n"
        "                           crash_on_append); injected failures are\n"
        "                           retried on another backend.\n"
        "\n"
        "Serves a fleet of --backends services (default 2) over the\n"
        "--stores corpus stores, if any, and wire-supplied buildings.\n"
        "SIGTERM/SIGINT drains gracefully; curl http://host:port/metrics\n"
        "scrapes Prometheus text format.\n";
}

}  // namespace

int main(int argc, char** argv) try {
    using namespace fisone;
    const util::cli_args args(argc, argv);
    if (args.has("help")) {
        print_usage();
        return EXIT_SUCCESS;
    }
    const bool quiet = args.has("quiet");
    const std::string host = args.get("host", "127.0.0.1");
    const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
    const std::string port_file = args.get("port-file", "");
    const std::vector<std::string> stores = split_csv(args.get("stores", ""));
    const auto backends = static_cast<std::size_t>(args.get_int("backends", 2));
    const auto threads = static_cast<std::size_t>(args.get_int("threads", 2));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
    const std::string profile = args.get("profile", "quick");
    const auto max_inflight = static_cast<std::size_t>(args.get_int("max-inflight", 32));
    const auto max_conns = static_cast<std::size_t>(args.get_int("max-connections", 64));
    const auto request_timeout_ms = args.get_int("request-timeout-ms", 0);
    const std::string cache_dir = args.get("cache-dir", "");
    const std::string fault_plan = args.get("fault-plan", "");
    const std::string trace_out = args.get("trace-out", "");
    const auto slow_ms = args.get_int("slow-ms", 0);
    const auto telemetry_window_ms = args.get_int("telemetry-window-ms", 1000);

    if (!trace_out.empty()) obs::set_tracing_enabled(true);

    // Block the shutdown signals in every thread *before* any thread is
    // spawned, then collect them with sigwait below — no async handler,
    // no async-signal-safety constraints on the drain path.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    if (pthread_sigmask(SIG_BLOCK, &sigs, nullptr) != 0) {
        std::cerr << "serve_tcp: pthread_sigmask failed\n";
        return EXIT_FAILURE;
    }

    federation::federation_config cfg;
    cfg.service = service::profile_by_name(profile, seed, threads);
    cfg.num_backends = backends;
    cfg.store_dirs = stores;
    cfg.cache_dir = cache_dir;
    if (request_timeout_ms > 0)
        cfg.fault_tolerance.request_timeout = std::chrono::milliseconds(request_timeout_ms);
    if (!fault_plan.empty()) cfg.fault_plans = service::parse_fault_plans(fault_plan, backends);
    // The fleet must outlive the tcp_server and its in-flight jobs, so it
    // is declared first.
    federation::federated_server fleet(cfg);

    net::tcp_server_config net_cfg;
    net_cfg.host = host;
    net_cfg.port = port;
    net_cfg.max_inflight_requests = max_inflight;
    net_cfg.max_connections = max_conns;
    net_cfg.slow_request_seconds = slow_ms > 0 ? static_cast<double>(slow_ms) / 1000.0 : 0.0;
    net_cfg.telemetry_window_ms =
        telemetry_window_ms > 0 ? static_cast<std::uint32_t>(telemetry_window_ms) : 0;
    net::tcp_server srv(fleet, net_cfg);

    if (!port_file.empty()) {
        // Write-then-rename so a polling script never reads a torn file.
        const std::string tmp = port_file + ".tmp";
        std::ofstream f(tmp);
        f << srv.port() << '\n';
        f.close();
        if (!f || std::rename(tmp.c_str(), port_file.c_str()) != 0) {
            std::cerr << "serve_tcp: cannot write port file " << port_file << '\n';
            return EXIT_FAILURE;
        }
    }
    if (!quiet)
        std::cerr << "serve_tcp: listening on " << host << ':' << srv.port() << " ("
                  << backends << "-backend fleet"
                  << ", profile " << profile << ", seed " << seed << ", "
                  << max_inflight << " in-flight max"
                  << (cache_dir.empty() ? "" : ", cache spill " + cache_dir)
                  << (request_timeout_ms > 0
                          ? ", " + std::to_string(request_timeout_ms) + "ms deadline"
                          : "")
                  << (fault_plan.empty() ? "" : ", fault plan armed") << ")\n"
                  << "serve_tcp: scrape http://" << host << ':' << srv.port()
                  << "/metrics — SIGTERM drains\n";

    std::thread loop([&srv] { srv.run(); });
    int sig = 0;
    sigwait(&sigs, &sig);
    if (!quiet)
        std::cerr << "serve_tcp: " << (sig == SIGTERM ? "SIGTERM" : "SIGINT")
                  << " — draining (no new connections; finishing in-flight)\n";
    srv.drain();
    loop.join();

    const net::tcp_server_stats s = srv.stats();
    if (!quiet)
        std::cerr << "serve_tcp: drained. " << s.connections_accepted << " connections, "
                  << s.requests_admitted << " requests admitted, "
                  << s.requests_shed_overload + s.requests_shed_draining << " shed, "
                  << s.responses_sent << " responses\n";

    if (!trace_out.empty()) {
        // A job answers before its worker closes the job's spans: wait the
        // workers out so the tape holds every request's whole span tree.
        for (std::size_t k = 0; k < fleet.num_backends(); ++k)
            fleet.backend(k).backing_service().wait_all();
        std::ofstream f(trace_out);
        obs::dump_chrome_trace(f);
        f.close();
        if (!f) {
            std::cerr << "serve_tcp: cannot write trace file " << trace_out << '\n';
            return EXIT_FAILURE;
        }
        const obs::trace_stats ts = obs::stats();
        if (!quiet)
            std::cerr << "serve_tcp: wrote " << ts.recorded << " spans ("
                      << ts.dropped << " dropped) to " << trace_out << '\n';
    }
    return EXIT_SUCCESS;
} catch (const std::exception& e) {
    std::cerr << "serve_tcp: " << e.what() << '\n';
    return EXIT_FAILURE;
}
