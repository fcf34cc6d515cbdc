/// \file bench_capacity.cpp
/// Closed-loop capacity explorer for the network front door. Where
/// `bench_net_loadtest` proves the TCP path is byte-identical and the
/// shed contract holds, this bench asks the quantitative question: **how
/// much offered load can the front door carry before it sheds, and what
/// does latency look like on the way there?**
///
/// The loop is closed through the server's own live telemetry, not
/// client-side bookkeeping: a control connection holds a standing
/// `subscribe_stats` stream, and every rung's goodput, shed rate, and
/// latency percentiles are read from the `stats_update` frames the server
/// pushes (one per telemetry window — per-window admission/shed deltas
/// and the window's latency histogram summary). The load itself uses the
/// resident-corpus request mode: `identify_resident` frames by building
/// name with `fresh = true`, so every request routes through a mounted
/// store and runs the real pipeline — the result cache cannot flatten the
/// frontier.
///
/// Rung protocol: offer a fixed request rate for `--rung-seconds`,
/// collect the telemetry windows that cover the rung, record
/// {offered rate, goodput, shed rate, p50, p99}, multiply the rate by
/// `--rate-multiplier`, repeat. The exploration stops when the shed rate
/// crosses `--shed-threshold` (after at least 3 rungs, so the frontier
/// has a below-knee, near-knee shape) or at `--max-rungs`. The recorded
/// frontier lands in the `"capacity"` section of `BENCH_net.json`
/// (spliced into `bench_net_loadtest`'s report when one exists).
///
/// Run:  ./bench_capacity [--quick] [--json] [--out BENCH_net.json]
///                        [--connect HOST:PORT --store DIR]
///                        [--buildings N] [--samples-per-floor M]
///                        [--connections C] [--backends B] [--threads T]
///                        [--max-inflight N] [--window-ms W] [--seed S]
///                        [--start-rate R] [--rate-multiplier X]
///                        [--rung-seconds S] [--shed-threshold F]
///                        [--max-rungs N]
///
///  --quick     CI-sized: small corpus, short rungs, 200 ms windows.
///  --connect   drive an external `serve_tcp` (started with --stores and
///              a telemetry window); --store names the same store
///              directory so the bench can learn the building names.
///              Without --connect the bench synthesises a corpus, writes
///              it to a temporary store, and runs a federated fleet +
///              front door in-process (--max-inflight bounds admission,
///              --window-ms sets the telemetry window).
///
/// Exits non-zero when the control stream dies, when fewer than 3 rungs
/// complete, or when the shed threshold is never crossed.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
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
#include "api/codec.hpp"
#include "data/corpus_store.hpp"
#include "federation/federated_server.hpp"
#include "net/socket.hpp"
#include "net/tcp_server.hpp"
#include "service/profiles.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace fisone;
using clock_type = std::chrono::steady_clock;

// --- the telemetry control stream -------------------------------------------

/// A standing `subscribe_stats` stream on its own connection: subscribes
/// on construction, decodes pushed `stats_update` frames on a reader
/// thread, and hands them to the main thread through a queue.
class stats_stream {
public:
    stats_stream(const std::string& host, std::uint16_t port)
        : conn_(host, port) {
        api::subscribe_stats_request sub;
        sub.correlation_id = 1;
        sub.interval_ms = 0;  // every telemetry window the server closes
        sub.subscribe = true;
        conn_.send(api::encode(api::request(sub)));
        reader_ = std::thread([this] { read_loop(); });
    }

    ~stats_stream() {
        conn_.shutdown_write();
        if (reader_.joinable()) reader_.join();
    }

    /// The next pushed window, or nullopt when \p deadline passes (or the
    /// stream ended) first.
    std::optional<api::stats_update_response> next(clock_type::time_point deadline) {
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait_until(lock, deadline, [this] { return !q_.empty() || done_; });
        if (q_.empty()) return std::nullopt;
        api::stats_update_response u = q_.front();
        q_.pop_front();
        return u;
    }

    /// Drop everything queued (called between rungs so stale windows from
    /// the settling gap never leak into the next rung's accounting).
    void drain_queue() {
        const std::lock_guard<std::mutex> lock(m_);
        q_.clear();
    }

    [[nodiscard]] bool acked() const {
        const std::lock_guard<std::mutex> lock(m_);
        return acked_;
    }

private:
    void read_loop() {
        while (std::optional<std::string> frame = conn_.read_frame()) {
            const api::decode_result<api::response> r = api::decode_response(*frame);
            if (!r.ok()) continue;
            if (const auto* u = std::get_if<api::stats_update_response>(&*r.value)) {
                const std::lock_guard<std::mutex> lock(m_);
                q_.push_back(*u);
                cv_.notify_all();
            } else if (std::holds_alternative<api::watch_ack_response>(*r.value)) {
                const std::lock_guard<std::mutex> lock(m_);
                acked_ = true;
                cv_.notify_all();
            }
        }
        const std::lock_guard<std::mutex> lock(m_);
        done_ = true;
        cv_.notify_all();
    }

    net::frame_conn conn_;
    std::thread reader_;
    mutable std::mutex m_;
    std::condition_variable cv_;
    std::deque<api::stats_update_response> q_;
    bool acked_ = false;
    bool done_ = false;
};

// --- the load generator ------------------------------------------------------

struct load_result {
    std::size_t sent = 0;
    std::size_t results = 0;  ///< building_result answers (client-side goodput)
    std::size_t shed = 0;     ///< typed overloaded/draining errors
    std::size_t other = 0;    ///< anything else (should stay 0)
};

/// Offer `identify_resident` frames at \p rate requests/sec for
/// \p seconds across \p connections fresh connections. Open-loop pacing:
/// each sender walks an absolute schedule with `sleep_until`, so a slow
/// server does not slow the offered rate — it sheds instead (which is the
/// point).
load_result run_load(const std::string& host, std::uint16_t port,
                     const std::vector<std::string>& names, double rate, double seconds,
                     std::size_t connections) {
    struct conn_state {
        load_result r;
        std::string failure;
    };
    std::vector<conn_state> states(connections);
    const auto per_conn_interval =
        std::chrono::duration<double>(static_cast<double>(connections) / rate);
    const auto sends_per_conn = static_cast<std::size_t>(
        std::max(1.0, seconds * rate / static_cast<double>(connections)));

    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            conn_state& st = states[c];
            try {
                net::frame_conn conn(host, port);
                std::thread writer([&] {
                    const clock_type::time_point t0 = clock_type::now();
                    for (std::size_t j = 0; j < sends_per_conn; ++j) {
                        std::this_thread::sleep_until(
                            t0 + std::chrono::duration_cast<clock_type::duration>(
                                     per_conn_interval * static_cast<double>(j)));
                        api::identify_resident_request req;
                        req.correlation_id = j + 1;
                        req.name = names[(c + j * connections) % names.size()];
                        req.fresh = true;  // no cache: every request is real work
                        conn.send(api::encode(api::request(req)));
                        ++st.r.sent;
                    }
                    conn.shutdown_write();
                });
                while (std::optional<std::string> frame = conn.read_frame()) {
                    const api::decode_result<api::response> r = api::decode_response(*frame);
                    if (!r.ok()) {
                        ++st.r.other;
                        continue;
                    }
                    if (std::holds_alternative<api::building_response>(*r.value)) {
                        ++st.r.results;
                    } else if (const auto* e = std::get_if<api::error_response>(&*r.value)) {
                        if (e->code == api::error_code::overloaded ||
                            e->code == api::error_code::draining)
                            ++st.r.shed;
                        else
                            ++st.r.other;
                    } else {
                        ++st.r.other;
                    }
                }
                writer.join();
            } catch (const std::exception& e) {
                st.failure = e.what();
            }
        });
    }
    for (std::thread& t : threads) t.join();
    load_result out;
    for (const conn_state& st : states) {
        if (!st.failure.empty())
            throw std::runtime_error("load connection failed: " + st.failure);
        out.sent += st.r.sent;
        out.results += st.r.results;
        out.shed += st.r.shed;
        out.other += st.r.other;
    }
    return out;
}

// --- rung accounting ---------------------------------------------------------

struct rung {
    double offered_per_sec = 0.0;
    std::size_t sent = 0;
    std::size_t client_results = 0;
    std::size_t client_shed = 0;
    // From the telemetry stream (windows with activity during the rung):
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;  ///< latency observations = finished requests
    std::uint64_t shed = 0;
    double active_seconds = 0.0;  ///< Σ duration of the active windows
    double latency_sum = 0.0;
    double p50 = 0.0;  ///< count-weighted mean of the window p50s
    double p99 = 0.0;  ///< worst window p99 (conservative)
    std::size_t windows = 0;

    [[nodiscard]] double goodput_per_sec() const {
        return active_seconds > 0.0 ? static_cast<double>(completed) / active_seconds : 0.0;
    }
    [[nodiscard]] double shed_rate() const {
        const double total = static_cast<double>(admitted + shed);
        return total > 0.0 ? static_cast<double>(shed) / total : 0.0;
    }
    [[nodiscard]] double mean_seconds() const {
        return completed > 0 ? latency_sum / static_cast<double>(completed) : 0.0;
    }
};

/// Fold one telemetry window into the rung (only windows that saw any
/// admission, shed, or completion count — idle settling windows would
/// dilute goodput).
void fold_window(rung& r, const api::stats_update_response& u) {
    if (u.admitted == 0 && u.shed_overload == 0 && u.shed_draining == 0 &&
        u.latency_count == 0)
        return;
    r.admitted += u.admitted;
    r.shed += u.shed_overload + u.shed_draining;
    r.completed += u.latency_count;
    r.latency_sum += u.latency_sum;
    r.active_seconds += u.window_seconds;
    // p50: count-weighted incremental mean; p99: worst window.
    if (u.latency_count > 0) {
        const double w = static_cast<double>(u.latency_count);
        const double total = static_cast<double>(r.completed);
        r.p50 += (u.latency_p50 - r.p50) * (w / total);
        r.p99 = std::max(r.p99, u.latency_p99);
    }
    ++r.windows;
}

// --- corpus / store plumbing -------------------------------------------------

std::vector<std::string> store_building_names(const std::string& dir) {
    std::vector<std::string> names;
    const data::corpus_store store = data::corpus_store::open(dir);
    store.for_each_building_effective(
        [&](std::size_t, data::building&& b) { names.push_back(std::move(b.name)); });
    return names;
}

}  // namespace

int main(int argc, char** argv) try {
    const util::cli_args args(argc, argv);
    const bool quick = args.has("quick");
    const bool emit_json = args.has("json");
    const std::string out_path = args.get("out", "BENCH_net.json");
    const std::string connect = args.get("connect", "");
    const std::string store_dir = args.get("store", "");
    const auto buildings =
        static_cast<std::size_t>(args.get_int("buildings", quick ? 6 : 12));
    const auto samples =
        static_cast<std::size_t>(args.get_int("samples-per-floor", quick ? 16 : 40));
    const auto connections = static_cast<std::size_t>(args.get_int("connections", 4));
    const auto backends = static_cast<std::size_t>(args.get_int("backends", 2));
    const auto threads = static_cast<std::size_t>(args.get_int("threads", 2));
    const auto max_inflight =
        static_cast<std::size_t>(args.get_int("max-inflight", quick ? 4 : 8));
    const auto window_ms =
        static_cast<std::uint32_t>(args.get_int("window-ms", quick ? 200 : 500));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
    double start_rate = args.get_double("start-rate", quick ? 8.0 : 16.0);
    const double multiplier = args.get_double("rate-multiplier", 2.0);
    const double rung_seconds = args.get_double("rung-seconds", quick ? 1.2 : 3.0);
    const double shed_threshold = args.get_double("shed-threshold", 0.05);
    const auto max_rungs = static_cast<std::size_t>(args.get_int("max-rungs", 8));
    constexpr std::size_t k_min_rungs = 3;
    if (connections < 1) throw std::invalid_argument("--connections must be >= 1");
    if (multiplier <= 1.0) throw std::invalid_argument("--rate-multiplier must be > 1");
    if (!connect.empty() && store_dir.empty())
        throw std::invalid_argument("--connect needs --store (to learn building names)");

    // --- stand up (or locate) the system under test -------------------------
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::vector<std::string> names;
    std::unique_ptr<federation::federated_server> fleet_srv;
    std::unique_ptr<net::tcp_server> front;
    std::thread loop_thread;
    std::string tmp_store;
    if (connect.empty()) {
        std::cerr << "Synthesising " << buildings << " buildings (" << samples
                  << " scans/floor) into a temporary store...\n";
        const data::corpus fleet = bench::make_fleet(buildings, samples, seed);
        tmp_store = (std::filesystem::temp_directory_path() /
                     ("fisone_capacity_store_" + std::to_string(seed)))
                        .string();
        std::filesystem::remove_all(tmp_store);
        data::write_corpus_store(fleet, tmp_store, 4);
        for (const data::building& b : fleet.buildings) names.push_back(b.name);

        federation::federation_config fcfg;
        fcfg.service = service::quick_profile(seed, threads);
        fcfg.num_backends = backends;
        fcfg.store_dirs = {tmp_store};
        fleet_srv = std::make_unique<federation::federated_server>(fcfg);

        net::tcp_server_config ncfg;
        ncfg.max_inflight_requests = max_inflight;
        ncfg.telemetry_window_ms = window_ms;
        front = std::make_unique<net::tcp_server>(*fleet_srv, ncfg);
        port = front->port();
        loop_thread = std::thread([&front] { front->run(); });
    } else {
        const std::size_t colon = connect.rfind(':');
        if (colon == std::string::npos)
            throw std::invalid_argument("--connect wants HOST:PORT, got " + connect);
        host = connect.substr(0, colon);
        port = static_cast<std::uint16_t>(std::stoi(connect.substr(colon + 1)));
        names = store_building_names(store_dir);
    }
    if (names.empty()) throw std::runtime_error("no building names to request");

    // --- the control stream --------------------------------------------------
    stats_stream control(host, port);
    // The first pushed window proves the stream is live (and calibrates
    // nothing — every rung reads its own windows).
    if (!control.next(clock_type::now() + std::chrono::seconds(10)))
        throw std::runtime_error(
            "no stats_update within 10s — is the server's telemetry window enabled?");

    // --- the exploration loop -------------------------------------------------
    std::vector<rung> rungs;
    double rate = start_rate;
    bool crossed = false;
    const auto window = std::chrono::milliseconds(std::max<std::uint32_t>(window_ms, 50));
    while (rungs.size() < max_rungs) {
        control.drain_queue();
        std::cerr << "Rung " << rungs.size() + 1 << ": offering " << rate << " req/s for "
                  << rung_seconds << "s...\n";
        rung r;
        r.offered_per_sec = rate;
        const load_result load = run_load(host, port, names, rate, rung_seconds, connections);
        r.sent = load.sent;
        r.client_results = load.results;
        r.client_shed = load.shed;
        // Collect the windows covering the rung: keep reading until two
        // consecutive idle windows arrive (everything in flight has
        // landed) or a generous deadline passes.
        const clock_type::time_point deadline =
            clock_type::now() + std::chrono::seconds(10) + 4 * window;
        std::size_t idle_windows = 0;
        while (idle_windows < 2) {
            const std::optional<api::stats_update_response> u = control.next(deadline);
            if (!u) break;
            const bool active = u->admitted > 0 || u->shed_overload > 0 ||
                                u->shed_draining > 0 || u->latency_count > 0;
            if (active)
                idle_windows = 0;
            else
                ++idle_windows;
            fold_window(r, *u);
        }
        if (r.windows == 0)
            throw std::runtime_error("telemetry stream went silent mid-rung");
        std::cerr << "  goodput " << r.goodput_per_sec() << "/s, shed rate "
                  << r.shed_rate() * 100.0 << "%, p99 " << r.p99 * 1e3 << " ms ("
                  << r.windows << " windows)\n";
        rungs.push_back(r);
        if (r.shed_rate() >= shed_threshold && rungs.size() >= k_min_rungs) {
            crossed = true;
            break;
        }
        rate *= multiplier;
    }

    if (front) {
        front->drain();
        loop_thread.join();
    }

    // --- report ---------------------------------------------------------------
    util::table_printer table("Capacity frontier — identify_resident over " +
                              std::to_string(connections) + " connections, shed threshold " +
                              util::table_printer::num(shed_threshold * 100.0, 1) + "%");
    table.header({"offered/s", "goodput/s", "shed %", "p50 ms", "p99 ms", "windows"});
    for (const rung& r : rungs)
        table.row({util::table_printer::num(r.offered_per_sec, 1),
                   util::table_printer::num(r.goodput_per_sec(), 1),
                   util::table_printer::num(r.shed_rate() * 100.0, 2),
                   util::table_printer::num(r.p50 * 1e3, 1),
                   util::table_printer::num(r.p99 * 1e3, 1), std::to_string(r.windows)});
    table.print(std::cout);
    std::cout << "\nFrontier " << (crossed ? "terminated at the shed threshold" : "INCOMPLETE")
              << " after " << rungs.size() << " rungs\n";

    if (emit_json) {
        // Splice the capacity section into bench_net_loadtest's report
        // when one exists (re-splicing replaces a previous section);
        // otherwise write a standalone object.
        std::string base;
        {
            std::ifstream in(out_path);
            std::stringstream ss;
            ss << in.rdbuf();
            base = ss.str();
        }
        const std::size_t existing = base.find(",\n  \"capacity\":");
        if (existing != std::string::npos) {
            base.erase(existing);
        } else {
            while (!base.empty() && (base.back() == '\n' || base.back() == ' '))
                base.pop_back();
            if (!base.empty() && base.back() == '}') base.pop_back();
            while (!base.empty() && (base.back() == '\n' || base.back() == ' '))
                base.pop_back();
        }
        std::ostringstream cap;
        cap << "  \"capacity\": {\n";
        cap << "    \"schema\": \"fisone-bench-capacity/v1\",\n";
        cap << "    \"quick\": " << (quick ? "true" : "false") << ",\n";
        cap << "    \"mode\": \"" << (connect.empty() ? "in-process" : "external") << "\",\n";
        cap << "    \"request_mode\": \"identify_resident\",\n";
        cap << "    \"connections\": " << connections << ",\n";
        cap << "    \"shed_threshold\": " << bench::json_num(shed_threshold) << ",\n";
        cap << "    \"terminated\": \"" << (crossed ? "shed-threshold" : "max-rungs")
            << "\",\n";
        cap << "    \"rungs\": [\n";
        for (std::size_t i = 0; i < rungs.size(); ++i) {
            const rung& r = rungs[i];
            cap << "      {\"offered_per_sec\": " << bench::json_num(r.offered_per_sec)
                << ", \"sent\": " << r.sent
                << ", \"goodput_per_sec\": " << bench::json_num(r.goodput_per_sec())
                << ", \"shed_rate\": " << bench::json_num(r.shed_rate())
                << ", \"admitted\": " << r.admitted << ", \"shed\": " << r.shed
                << ", \"latency_mean_ms\": " << bench::json_num(r.mean_seconds() * 1e3)
                << ", \"p50_ms\": " << bench::json_num(r.p50 * 1e3)
                << ", \"p99_ms\": " << bench::json_num(r.p99 * 1e3)
                << ", \"windows\": " << r.windows << "}"
                << (i + 1 < rungs.size() ? ",\n" : "\n");
        }
        cap << "    ]\n";
        cap << "  }\n";
        std::ofstream f(out_path);
        if (!f) {
            std::cerr << "bench_capacity: cannot open " << out_path << '\n';
            return EXIT_FAILURE;
        }
        if (base.empty())
            f << "{\n" << cap.str() << "}\n";
        else
            f << base << ",\n" << cap.str() << "}\n";
        std::cout << "Capacity frontier written to " << out_path << " (\"capacity\" section)\n";
    }

    if (rungs.size() < k_min_rungs) {
        std::cerr << "bench_capacity: only " << rungs.size() << " rungs completed (need "
                  << k_min_rungs << ")\n";
        return EXIT_FAILURE;
    }
    if (!crossed) {
        std::cerr << "bench_capacity: shed threshold never crossed — raise --max-rungs or "
                     "lower the admission bound\n";
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
} catch (const std::exception& e) {
    std::cerr << "bench_capacity: " << e.what() << '\n';
    return EXIT_FAILURE;
}
