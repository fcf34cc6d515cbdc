#include "harness.hpp"

#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "api/codec.hpp"
#include "data/corpus_store.hpp"
#include "service/profiles.hpp"
#include "util/hash.hpp"

extern char** environ;

namespace perfbench {

using namespace fisone;

double ms_between(clock_type::time_point a, clock_type::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1) return hi;
    return (hi + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid))) /
           2.0;
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

double windowed_rate(std::vector<clock_type::time_point> done, clock_type::time_point start,
                     std::size_t per_window) {
    if (done.empty()) return 0.0;
    std::sort(done.begin(), done.end());
    if (done.size() < 3 * per_window)
        return static_cast<double>(done.size()) / (ms_between(start, done.back()) / 1e3);
    std::vector<double> rates;
    clock_type::time_point from = start;
    for (std::size_t end = per_window; end <= done.size(); end += per_window) {
        rates.push_back(static_cast<double>(per_window) /
                        (ms_between(from, done[end - 1]) / 1e3));
        from = done[end - 1];
    }
    return median(rates);
}

void run_report::fail_check(const std::string& what) {
    correct = false;
    lines.push_back("CHECK FAILED: " + what);
    std::cerr << "perfbench: check failed: " << what << '\n';
}

namespace {

std::string json_number(double v) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

}  // namespace

void print_report(std::ostream& out, const run_report& r) {
    for (const std::string& line : r.lines) out << line << '\n';
    out << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
        << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const run_report::metric& m = r.metrics[i];
        out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
            << json_number(std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit
            << "\"}";
    }
    out << "}}" << std::endl;
}

// --- the server ---------------------------------------------------------------

server_process::server_process(const std::string& store_dir, std::uint64_t seed) {
    const std::string port_file = store_dir + ".port";
    std::filesystem::remove(port_file);
    // The shipped front door: one backend over the store, the benchmark's
    // pipeline workers, the default (quick) profile.
    std::vector<std::string> args = {FISBENCH_SERVE_TCP, "--stores", store_dir,
                                     "--backends", "1",
                                     "--threads", std::to_string(k_pipeline_workers),
                                     "--seed", std::to_string(seed),
                                     "--port-file", port_file, "--quiet"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, argv[0], nullptr, nullptr, argv.data(), environ) != 0) {
        pid_ = -1;
        throw std::runtime_error(std::string("cannot start ") + FISBENCH_SERVE_TCP);
    }
    // serve_tcp writes the port file (write-then-rename) once it listens,
    // with the store mounted and the fleet up.
    const clock_type::time_point deadline = clock_type::now() + std::chrono::seconds(60);
    int port = 0;
    while (port == 0 && clock_type::now() < deadline) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("serve_tcp exited before it listened");
        }
        std::ifstream f(port_file);
        if (!(f >> port)) {
            port = 0;
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
    }
    std::filesystem::remove(port_file);
    if (port <= 0 || port > 65535) {
        stop();
        throw std::runtime_error("serve_tcp did not report a port");
    }
    port_ = static_cast<std::uint16_t>(port);
}

server_process::~server_process() { stop(); }

double server_process::cpu_seconds() const {
    std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    std::istringstream rest(stat.substr(stat.rfind(')') + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 1; i <= 13 && rest >> field; ++i)
        if (i >= 12) ticks += std::stod(field);
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double server_process::rss_peak_mb() const {
    std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

void server_process::stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 300; ++i) {
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
}

// --- wire calls ---------------------------------------------------------------

api::response read_response(net::frame_conn& conn) {
    const std::optional<std::string> frame = conn.read_frame();
    if (!frame) throw std::runtime_error("connection closed by the server");
    api::decode_result<api::response> r = api::decode_response(*frame);
    if (!r.ok())
        throw std::runtime_error("undecodable response: " +
                                 (r.error ? r.error->message : std::string("eof")));
    return *std::move(r.value);
}

api::response call(net::frame_conn& conn, const api::request& req) {
    conn.send(api::encode(req));
    return read_response(conn);
}

service::service_stats get_stats(net::frame_conn& conn) {
    const api::response r = call(conn, api::request{api::get_stats_request{1}});
    if (const auto* s = std::get_if<api::stats_response>(&r)) return s->stats;
    throw std::runtime_error("get_stats answered with another frame");
}

resident_answer identify_resident(net::frame_conn& conn, std::uint64_t corr,
                                  const std::string& name, bool fresh) {
    api::identify_resident_request req;
    req.correlation_id = corr;
    req.name = name;
    req.fresh = fresh;
    resident_answer a;
    const clock_type::time_point t0 = clock_type::now();
    api::response r = call(conn, api::request{std::move(req)});
    a.ms = ms_between(t0, clock_type::now());
    if (auto* b = std::get_if<api::building_response>(&r)) {
        if (b->correlation_id != corr)
            a.error = "correlation id " + std::to_string(b->correlation_id) + " != " +
                      std::to_string(corr);
        else if (b->report.name != name)
            a.error = "answered building " + b->report.name + " for " + name;
        else if (!b->report.ok)
            a.error = name + " failed: " + b->report.error;
        a.report = std::move(b->report);
    } else if (const auto* e = std::get_if<api::error_response>(&r)) {
        a.error = std::string(api::error_code_name(e->code)) + ": " + e->message;
    } else {
        a.error = "unexpected response frame";
    }
    return a;
}

struct watcher::state {
    std::mutex m;
    std::condition_variable cv;
    std::map<std::pair<std::string, std::uint64_t>, push> pushes;
    bool done = false;
};

watcher::watcher(net::frame_conn& conn, const std::vector<std::string>& names)
    : conn_(conn), state_(std::make_shared<state>()) {
    for (std::size_t i = 0; i < names.size(); ++i) {
        const api::response r =
            call(conn_, api::request{api::watch_request{i + 1, names[i], true}});
        const auto* ack = std::get_if<api::watch_ack_response>(&r);
        if (!ack || !ack->active) throw std::runtime_error("watch on " + names[i] + " refused");
    }
    reader_ = std::thread([this, st = state_] {
        try {
            while (std::optional<std::string> frame = conn_.read_frame()) {
                api::decode_result<api::response> r = api::decode_response(*frame);
                auto* p = r.ok() ? std::get_if<api::push_response>(&*r.value) : nullptr;
                if (!p) continue;
                const std::lock_guard<std::mutex> lock(st->m);
                const std::string name = p->report.name;
                st->pushes[{name, p->version}] = push{std::move(p->report), clock_type::now()};
                st->cv.notify_all();
            }
        } catch (const std::exception&) {
            // The connection was shut down under the reader: done.
        }
        const std::lock_guard<std::mutex> lock(st->m);
        st->done = true;
        st->cv.notify_all();
    });
}

watcher::~watcher() {
    ::shutdown(conn_.fd(), SHUT_RDWR);
    reader_.join();
}

std::optional<watcher::push> watcher::wait(const std::string& name, std::uint64_t version,
                                           clock_type::time_point deadline) {
    std::unique_lock<std::mutex> lock(state_->m);
    const auto key = std::make_pair(name, version);
    state_->cv.wait_until(lock, deadline,
                          [&] { return state_->done || state_->pushes.count(key) > 0; });
    const auto it = state_->pushes.find(key);
    if (it == state_->pushes.end()) return std::nullopt;
    push p = std::move(it->second);
    state_->pushes.erase(it);
    return p;
}

void append_loop(net::frame_conn& conn, watcher& w, const std::vector<corpus_building>& corpus,
                 const std::vector<std::size_t>& rotation,
                 const std::function<bool(std::size_t)>& keep_going, ingest_samples& out,
                 std::atomic<std::size_t>* acked) {
    std::map<std::size_t, data::building> effective;
    for (std::size_t step = 0; keep_going(step); ++step) {
        const std::size_t idx = rotation[step % rotation.size()];
        const corpus_building& cb = corpus[idx];
        data::building rec = append_record(cb, step / rotation.size());
        ++out.attempted;

        api::append_scans_request req;
        req.correlation_id = step + 1;
        req.corpus_name = k_corpus_name;
        req.records = {rec};
        const clock_type::time_point t0 = clock_type::now();
        const api::response r = call(conn, api::request{std::move(req)});
        const clock_type::time_point t1 = clock_type::now();
        const auto* ack = std::get_if<api::append_response>(&r);
        if (!ack || ack->correlation_id != step + 1 || ack->accepted != 1 || ack->dirty != 1) {
            std::cerr << "perfbench: append " << step << " to " << cb.base.name
                      << " was not acked with one dirty building\n";
            ++out.failed;
            continue;
        }
        if (acked) ++*acked;
        auto [it, fresh] = effective.try_emplace(idx, cb.base);
        data::apply_delta_record(it->second, rec);

        std::optional<watcher::push> p =
            w.wait(cb.base.name, ack->version, t1 + std::chrono::seconds(60));
        if (!p) {
            std::cerr << "perfbench: no push for " << cb.base.name << " at version "
                      << ack->version << '\n';
            ++out.failed;
            continue;
        }
        out.append_ms.push_back(ms_between(t0, t1));
        out.fresh_ms.push_back(ms_between(t0, p->arrived));
        out.rerun_ms.push_back(p->report.seconds * 1e3);
        out.pushed_at.push_back(p->arrived);
        out.pushes.push_back(served_result{idx, it->second, std::move(p->report)});
    }
}

// --- the correctness oracle ---------------------------------------------------

core::fis_one_config pipeline_template(std::uint64_t seed) {
    return service::quick_profile(seed, k_pipeline_workers).pipeline;
}

bool same_result(const runtime::building_report& served,
                 const runtime::building_report& reference) {
    const core::fis_one_result& a = served.result;
    const core::fis_one_result& b = reference.result;
    return served.ok && reference.ok && served.index == reference.index &&
           served.name == reference.name && a.assignment == b.assignment &&
           a.cluster_to_floor == b.cluster_to_floor &&
           a.embeddings.rows() == b.embeddings.rows() &&
           a.embeddings.cols() == b.embeddings.cols() &&
           std::memcmp(a.embeddings.data(), b.embeddings.data(),
                       a.embeddings.size() * sizeof(double)) == 0;
}

std::size_t verify_results(const std::vector<served_result>& results, std::uint64_t seed,
                           std::size_t threads) {
    const core::fis_one_config pipeline = pipeline_template(seed);
    std::vector<char> match(results.size(), 0);
    std::vector<std::thread> workers;
    threads = std::max<std::size_t>(1, std::min(threads, results.size()));
    for (std::size_t t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
            for (std::size_t i = t; i < results.size(); i += threads) {
                const served_result& s = results[i];
                const runtime::building_report ref =
                    runtime::run_building_task(pipeline, seed, s.index, s.input, true);
                match[i] = same_result(s.report, ref) ? 1 : 0;
            }
        });
    for (std::thread& w : workers) w.join();
    return static_cast<std::size_t>(std::count(match.begin(), match.end(), 0));
}

std::uint64_t result_digest(const std::vector<served_result>& results) {
    util::fnv1a64 h;
    for (const served_result& s : results) {
        const core::fis_one_result& r = s.report.result;
        h.size(s.index);
        for (const int a : r.assignment) h.i32(a);
        for (const int c : r.cluster_to_floor) h.i32(c);
        for (const double x : r.embeddings.flat()) h.f64(x);
    }
    return h.digest();
}

void add_quality(run_report& r, const std::vector<served_result>& results) {
    std::vector<double> ari, nmi, edit;
    for (const served_result& s : results) {
        ari.push_back(s.report.result.ari);
        nmi.push_back(s.report.result.nmi);
        edit.push_back(s.report.result.edit_distance);
    }
    r.add("ari_mean", mean(ari), "1");
    r.add("nmi_mean", mean(nmi), "1");
    r.add("edit_distance_mean", mean(edit), "1");
}

data::corpus as_corpus(const std::vector<corpus_building>& buildings) {
    data::corpus c;
    c.name = k_corpus_name;
    c.buildings.reserve(buildings.size());
    for (const corpus_building& b : buildings) c.buildings.push_back(b.base);
    return c;
}

void write_store(const data::corpus& c, const std::string& dir) {
    std::filesystem::remove_all(dir);
    data::write_corpus_store(c, dir, k_shard_size);
}

}  // namespace perfbench
