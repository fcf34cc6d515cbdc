#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "calibration.hpp"
#include "data/corpus_store.hpp"

namespace perfbench {

using namespace fisone;

namespace {

/// Set-ups per run (`setup_s` is their median): more where a set-up is
/// short and its time spreads more.
constexpr int k_cold_setups = 15;  ///< store write, start, connect: 0.03–0.07 s
constexpr int k_warm_setups = 5;   ///< plus 24 pipeline runs: 1–2 s
constexpr int k_live_setups = 9;   ///< plus 4 pipeline runs and watches: 0.2–0.4 s
/// Repetitions of each host-speed probe at each sampling point.
constexpr int k_calibration_reps = 10;
/// Threads that recompute reference results after the server has stopped.
constexpr std::size_t k_verify_threads = 4;
/// Appends in the post-measurement probe of cold_campaign and warm_cache,
/// all to one building, so their median compares like with like (an odd
/// count: the median is one sample).
constexpr std::size_t k_probe_appends = 15;
/// The tail percentile needs this many samples beyond it.
constexpr std::size_t k_min_tail_samples = 10;
constexpr double k_tail = 0.90;

constexpr std::size_t k_cold_store = 120;
constexpr std::size_t k_warm_working_set = 24;
constexpr std::size_t k_live_store = 40;
/// live_ingest reads buildings [0, 4) and appends to the other 36 in turn.
/// Many rotation buildings of spread sizes keep the freshness distribution
/// smooth, so its median does not jump between buildings. Every append
/// empties the server's resident cache, so the next read of each reader
/// building pays a store scan; a small reader set keeps those slow reads
/// well under a tenth of all reads, away from the p90.
constexpr std::size_t k_live_readers = 4;

/// Completions per throughput or latency window (see `windowed_rate` and
/// `add_latency`). cold_campaign's latency uses the whole run: it has too
/// few requests to split.
constexpr std::size_t k_cold_window = 12;
constexpr std::size_t k_read_window = 2000;  ///< cached reads (warm, live)
constexpr std::size_t k_live_window = 8;     ///< live append cycles

/// One running server with its client connections.
struct fleet {
    std::string store_dir;
    std::unique_ptr<server_process> server;
    std::vector<std::unique_ptr<net::frame_conn>> conns;
    std::unique_ptr<watcher> watch;     ///< live_ingest: on the last connection
    std::vector<served_result> filled;  ///< results of the cache fill, by index

    fleet() = default;
    fleet(const fleet&) = delete;
    fleet& operator=(const fleet&) = delete;
    ~fleet() {
        watch.reset();
        conns.clear();
        server.reset();
        std::error_code ec;
        std::filesystem::remove_all(store_dir, ec);
    }
};

std::unique_ptr<fleet> start_fleet(const run_options& o, const data::corpus& c, int setup,
                                   std::size_t connections) {
    auto f = std::make_unique<fleet>();
    f->store_dir = o.dir + "/store-" + std::to_string(setup);
    write_store(c, f->store_dir);
    f->server = std::make_unique<server_process>(f->store_dir, o.seed);
    for (std::size_t i = 0; i < connections; ++i)
        f->conns.push_back(std::make_unique<net::frame_conn>("127.0.0.1", f->server->port()));
    return f;
}

/// Put \p indices in the result cache, spreading them over the first
/// \p connections connections; the results land in `f.filled`.
void fill_cache(fleet& f, const std::vector<corpus_building>& corpus,
                const std::vector<std::size_t>& indices, std::size_t connections) {
    std::vector<std::vector<served_result>> parts(connections);
    std::vector<std::string> errors(connections);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections; ++c)
        threads.emplace_back([&, c] {
            for (std::size_t j = c; j < indices.size(); j += connections) {
                const std::size_t idx = indices[j];
                resident_answer a =
                    identify_resident(*f.conns[c], j + 1, corpus[idx].base.name, false);
                if (!a.error.empty()) {
                    errors[c] = a.error;
                    return;
                }
                parts[c].push_back(served_result{idx, corpus[idx].base, std::move(a.report)});
            }
        });
    for (std::thread& t : threads) t.join();
    for (const std::string& e : errors)
        if (!e.empty()) throw std::runtime_error("cache fill failed: " + e);
    for (auto& p : parts)
        for (served_result& s : p) f.filled.push_back(std::move(s));
    std::sort(f.filled.begin(), f.filled.end(),
              [](const served_result& a, const served_result& b) { return a.index < b.index; });
}

/// Set up \p count times, tearing each down before the next; keep the
/// last. Each set-up is timed from the store write to the moment the first
/// measured request could be sent.
template <class Setup>
std::unique_ptr<fleet> timed_setups(run_report& r, int count, Setup&& setup) {
    std::unique_ptr<fleet> f;
    std::vector<double> secs;
    for (int k = 0; k < count; ++k) {
        f.reset();
        const clock_type::time_point t0 = clock_type::now();
        f = setup(k);
        secs.push_back(ms_between(t0, clock_type::now()) / 1e3);
    }
    std::ostringstream line;
    line << "setup_s samples:";
    for (const double s : secs) line << ' ' << s;
    r.lines.push_back(line.str());
    r.add("setup_s", median(secs), "s");
    return f;
}

std::vector<std::size_t> iota_indices(std::size_t begin, std::size_t end) {
    std::vector<std::size_t> v;
    for (std::size_t i = begin; i < end; ++i) v.push_back(i);
    return v;
}

std::vector<std::string> names_of(const std::vector<corpus_building>& corpus,
                                  const std::vector<std::size_t>& indices) {
    std::vector<std::string> out;
    for (const std::size_t i : indices) out.push_back(corpus[i].base.name);
    return out;
}

/// The measured-phase bookkeeping every workload shares. The host's speed
/// is sampled just before the phase starts and again as it ends
/// (`add_server_costs`), while the server is idle.
struct phase {
    host_calibration& host;
    service::service_stats before;
    double cpu_before = 0.0;
    double rss_setup_mb = 0.0;  ///< the server's peak RSS through set-up
    clock_type::time_point start;
    clock_type::time_point deadline;

    phase(const run_options& o, fleet& f, net::frame_conn& stats_conn) : host(*o.host) {
        host.sample(k_calibration_reps);
        before = get_stats(stats_conn);
        cpu_before = f.server->cpu_seconds();
        rss_setup_mb = f.server->rss_peak_mb();
        start = clock_type::now();
        deadline = start + std::chrono::duration_cast<clock_type::duration>(
                               std::chrono::duration<double>(o.seconds));
    }
};

/// Per-connection results of a closed loop, merged after the threads join.
struct loop_log {
    std::vector<double> ms;
    std::vector<clock_type::time_point> done;
    std::vector<served_result> served;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void merge(loop_log&& other) {
        ms.insert(ms.end(), other.ms.begin(), other.ms.end());
        done.insert(done.end(), other.done.begin(), other.done.end());
        for (served_result& s : other.served) served.push_back(std::move(s));
        attempted += other.attempted;
        failed += other.failed;
    }
};

/// Latency p50 and p90 of \p log. With \p window > 0 each is the median,
/// over consecutive windows of that many requests (in completion order),
/// of the window's own percentile, so a burst of outside interference moves
/// one window rather than the result; each window keeps at least
/// `k_min_tail_samples` beyond its p90.
void add_latency(run_report& r, const loop_log& log, std::size_t window,
                 const std::string& what) {
    std::vector<std::size_t> order(log.ms.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return log.done[a] < log.done[b]; });
    if (window == 0 || order.size() < 3 * window) window = order.size();
    std::vector<double> p50s, p90s;
    for (std::size_t begin = 0; begin + window <= order.size(); begin += window) {
        std::vector<double> ms;
        for (std::size_t i = begin; i < begin + window; ++i) ms.push_back(log.ms[order[i]]);
        p50s.push_back(median(ms));
        p90s.push_back(percentile(ms, k_tail));
    }
    const auto beyond = static_cast<std::size_t>(
        static_cast<double>(window) * (1.0 - k_tail));
    r.lines.push_back("latency (" + what + "): " + std::to_string(log.ms.size()) +
                      " samples in " + std::to_string(p90s.size()) + " window(s) of " +
                      std::to_string(window) + ", about " + std::to_string(beyond) +
                      " beyond p90 in each");
    if (beyond < k_min_tail_samples)
        r.lines.push_back("note: fewer than " + std::to_string(k_min_tail_samples) +
                          " samples beyond p90");
    r.add("latency_p50_ms", median(p50s), "ms");
    r.add("latency_p90_ms", median(p90s), "ms");
}

void add_ingest(run_report& r, const ingest_samples& s, const std::string& what) {
    std::ostringstream line;
    line << "appends (" << what << "): " << s.append_ms.size() << " samples";
    if (s.append_ms.size() <= k_probe_appends) {
        line << "; append ms";
        for (const double ms : s.append_ms) line << ' ' << ms;
        line << "; freshness ms";
        for (const double ms : s.fresh_ms) line << ' ' << ms;
    }
    r.lines.push_back(line.str());
    r.add("append_p50_ms", median(s.append_ms), "ms");
    r.add("freshness_p50_ms", median(s.fresh_ms), "ms");
    r.attempted += s.attempted;
    r.failed += s.failed;
}

/// Appends on an otherwise idle server after the measured phase, on two
/// fresh connections (watcher, appender).
ingest_samples ingest_probe(fleet& f, const std::vector<corpus_building>& corpus,
                            const std::vector<std::size_t>& rotation) {
    net::frame_conn watch_conn("127.0.0.1", f.server->port());
    net::frame_conn append_conn("127.0.0.1", f.server->port());
    ingest_samples s;
    watcher w(watch_conn, names_of(corpus, rotation));
    append_loop(append_conn, w, corpus, rotation,
                [](std::size_t done) { return done < k_probe_appends; }, s);
    return s;
}

void check(run_report& r, bool ok, const std::string& what) {
    if (!ok) r.fail_check(what);
}

/// Verify every served result against the in-process reference; print the
/// digest of \p digest_set.
void verify(run_report& r, const std::vector<served_result>& results,
            const std::vector<served_result>& digest_set, std::uint64_t seed) {
    const std::size_t mismatches = verify_results(results, seed, k_verify_threads);
    r.failed += mismatches;
    check(r, mismatches == 0,
          std::to_string(mismatches) + " served results differ from the reference");
    std::ostringstream line;
    line << "verified " << results.size() << " served results against the reference, "
         << mismatches << " mismatches; result digest " << std::hex << result_digest(digest_set);
    r.lines.push_back(line.str());
}

/// Server CPU per answered request and peak RSS, read as the measured
/// phase ends. cold_campaign reports the peak through its measured phase
/// (its pipeline runs are its main memory cost). warm_cache and live_ingest
/// report the peak through set-up: under their cached reads the server heap
/// grows by a different amount each run (warm 23 to 64 MB, live 36 to
/// 338 MB on identical runs), so that peak is printed but not bounded.
void add_server_costs(run_report& r, fleet& f, const phase& p, std::size_t requests,
                      bool serving_peak) {
    const double cpu_ms = (f.server->cpu_seconds() - p.cpu_before) * 1e3;
    r.add("cpu_ms_per_request", cpu_ms / static_cast<double>(std::max<std::size_t>(1, requests)),
          "ms");
    const double served_mb = f.server->rss_peak_mb();
    r.add("rss_peak_mb", serving_peak ? served_mb : p.rss_setup_mb, "MB");
    r.lines.push_back("server peak RSS: " + std::to_string(p.rss_setup_mb) +
                      " MB through set-up, " + std::to_string(served_mb) +
                      " MB through the measured phase; rss_peak_mb is the " +
                      (serving_peak ? "second" : "first"));
    p.host.sample(k_calibration_reps);
}

/// Run \p body(connection, log) on one thread per connection; merge.
template <class Body>
loop_log closed_loops(std::size_t connections, Body&& body) {
    std::vector<loop_log> logs(connections);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections; ++c)
        threads.emplace_back([&, c] { body(c, logs[c]); });
    for (std::thread& t : threads) t.join();
    loop_log all;
    for (loop_log& l : logs) all.merge(std::move(l));
    return all;
}

/// One checked cached read: the answer must equal what the fill returned.
void cached_read(net::frame_conn& conn, std::uint64_t corr, const served_result& expected,
                 loop_log& log) {
    ++log.attempted;
    const resident_answer a = identify_resident(conn, corr, expected.report.name, false);
    if (!a.error.empty() || !same_result(a.report, expected.report)) {
        std::cerr << "perfbench: read of " << expected.report.name << ": "
                  << (a.error.empty() ? "result differs from the cache fill" : a.error) << '\n';
        ++log.failed;
        return;
    }
    log.ms.push_back(a.ms);
    log.done.push_back(clock_type::now());
}

// --- cold_campaign ----------------------------------------------------------

run_report run_cold(const run_options& o) {
    run_report r;
    const std::vector<corpus_building> corpus =
        make_corpus(o.seed, k_cold_store, k_pool_per_floor, 4);
    const data::corpus c = as_corpus(corpus);
    std::unique_ptr<fleet> f =
        timed_setups(r, k_cold_setups, [&](int k) { return start_fleet(o, c, k, 2); });

    const phase p(o, *f, *f->conns[0]);
    // Past the deadline the run goes on until the tail percentile has its
    // samples, up to three times the nominal length; each building is
    // requested once, so the run also ends when the store runs out.
    const clock_type::time_point hard_deadline = p.start + 3 * (p.deadline - p.start);
    const auto min_samples = static_cast<std::size_t>(
        std::lround(static_cast<double>(k_min_tail_samples) / (1.0 - k_tail)));
    std::atomic<std::size_t> next{0}, done{0};
    loop_log log = closed_loops(2, [&](std::size_t conn, loop_log& l) {
        for (std::uint64_t corr = 1;; ++corr) {
            const clock_type::time_point now = clock_type::now();
            if (now >= hard_deadline || (now >= p.deadline && done.load() >= min_samples)) break;
            const std::size_t idx = next.fetch_add(1);
            if (idx >= corpus.size()) break;
            ++l.attempted;
            resident_answer a =
                identify_resident(*f->conns[conn], corr, corpus[idx].base.name, true);
            if (!a.error.empty()) {
                std::cerr << "perfbench: " << a.error << '\n';
                ++l.failed;
                continue;
            }
            ++done;
            l.ms.push_back(a.ms);
            l.done.push_back(clock_type::now());
            l.served.push_back(served_result{idx, corpus[idx].base, std::move(a.report)});
        }
    });
    add_server_costs(r, *f, p, log.ms.size(), true);
    const service::service_stats after = get_stats(*f->conns[0]);
    r.attempted = log.attempted;
    r.failed = log.failed;
    std::sort(log.served.begin(), log.served.end(),
              [](const served_result& a, const served_result& b) { return a.index < b.index; });

    r.add("throughput_rps", windowed_rate(log.done, p.start, k_cold_window), "1/s");
    add_latency(r, log, 0, "identify_resident fresh");
    add_quality(r, log.served);
    check(r, after.cache_hits == p.before.cache_hits,
          "cold_campaign: cache hits during the measured phase");
    check(r, after.buildings_done - p.before.buildings_done == log.ms.size(),
          "cold_campaign: buildings_done != requests answered");

    const ingest_samples probe = ingest_probe(*f, corpus, ingest_rotation(o.workload));
    add_ingest(r, probe, "post-measurement probe");
    f.reset();

    std::vector<served_result> to_verify = log.served;
    to_verify.insert(to_verify.end(), probe.pushes.begin(), probe.pushes.end());
    const auto digest_n = static_cast<std::ptrdiff_t>(std::min<std::size_t>(16, log.served.size()));
    verify(r, to_verify, {log.served.begin(), log.served.begin() + digest_n}, o.seed);
    return r;
}

// --- warm_cache -------------------------------------------------------------

run_report run_warm(const run_options& o) {
    run_report r;
    const std::vector<corpus_building> corpus =
        make_corpus(o.seed, k_warm_working_set, k_pool_per_floor, 4);
    const data::corpus c = as_corpus(corpus);
    constexpr std::size_t k_conns = 3;
    std::unique_ptr<fleet> f = timed_setups(r, k_warm_setups, [&](int k) {
        std::unique_ptr<fleet> fl = start_fleet(o, c, k, k_conns);
        fill_cache(*fl, corpus, iota_indices(0, corpus.size()), k_conns);
        return fl;
    });

    const phase p(o, *f, *f->conns[0]);
    loop_log log = closed_loops(k_conns, [&](std::size_t conn, loop_log& l) {
        l.ms.reserve(1 << 16);
        l.done.reserve(1 << 16);
        for (std::uint64_t j = 0; clock_type::now() < p.deadline; ++j)
            cached_read(*f->conns[conn], j + 1, f->filled[(conn + k_conns * j) % corpus.size()],
                        l);
    });
    add_server_costs(r, *f, p, log.ms.size(), false);
    const service::service_stats after = get_stats(*f->conns[0]);
    r.attempted = log.attempted;
    r.failed = log.failed;

    r.add("throughput_rps", windowed_rate(log.done, p.start, k_read_window), "1/s");
    add_latency(r, log, k_read_window, "identify_resident cached");
    add_quality(r, f->filled);
    check(r, after.cache_hits - p.before.cache_hits == log.attempted,
          "warm_cache: cache hit ratio below 1");
    check(r, after.cache_misses == p.before.cache_misses,
          "warm_cache: cache misses during the measured phase");
    check(r, after.buildings_done == p.before.buildings_done,
          "warm_cache: the pipeline ran during the measured phase");

    const ingest_samples probe = ingest_probe(*f, corpus, ingest_rotation(o.workload));
    add_ingest(r, probe, "post-measurement probe");
    const std::vector<served_result> filled = std::move(f->filled);
    f.reset();

    std::vector<served_result> to_verify = filled;
    to_verify.insert(to_verify.end(), probe.pushes.begin(), probe.pushes.end());
    verify(r, to_verify, filled, o.seed);
    return r;
}

// --- live_ingest ------------------------------------------------------------

run_report run_live(const run_options& o) {
    run_report r;
    const std::vector<corpus_building> corpus =
        make_corpus(o.seed, k_live_store, k_pool_per_floor, 4);
    const data::corpus c = as_corpus(corpus);
    const std::vector<std::size_t> rotation = ingest_rotation(o.workload);
    // Connections: 0 reader, 1 appender, 2 watcher.
    std::unique_ptr<fleet> f = timed_setups(r, k_live_setups, [&](int k) {
        std::unique_ptr<fleet> fl = start_fleet(o, c, k, 3);
        fill_cache(*fl, corpus, iota_indices(0, k_live_readers), 2);
        fl->watch = std::make_unique<watcher>(*fl->conns[2], names_of(corpus, rotation));
        return fl;
    });

    const phase p(o, *f, *f->conns[0]);
    // The first read after each append is reported apart, with its count,
    // so a read-path cost of appends (a resident directory rebuild, a lock
    // held by the ingest worker) shows: such reads are about one in 700,
    // too few to reach the p50 or p90.
    std::atomic<std::size_t> acked{0};
    loop_log reads;
    std::vector<double> first_after_append;
    std::thread reader([&] {
        reads.ms.reserve(1 << 15);
        std::size_t seen = 0;
        for (std::uint64_t j = 0; clock_type::now() < p.deadline; ++j) {
            const std::size_t appends = acked.load();
            const std::size_t before = reads.ms.size();
            cached_read(*f->conns[0], j + 1, f->filled[j % f->filled.size()], reads);
            if (appends != seen && reads.ms.size() > before)
                first_after_append.push_back(reads.ms.back());
            seen = appends;
        }
    });
    ingest_samples s;
    append_loop(*f->conns[1], *f->watch, corpus, rotation,
                [&](std::size_t) { return clock_type::now() < p.deadline; }, s, &acked);
    reader.join();
    add_server_costs(r, *f, p, reads.ms.size() + s.pushes.size(), false);
    const service::service_stats after = get_stats(*f->conns[0]);
    r.attempted = reads.attempted;
    r.failed = reads.failed;

    r.add("throughput_rps", windowed_rate(s.pushed_at, p.start, k_live_window), "1/s");
    r.lines.push_back("throughput_rps counts append -> push cycles; " +
                      std::to_string(reads.ms.size()) + " cached reads beside them");
    add_latency(r, reads, k_read_window, "identify_resident cached, beside appends");
    r.lines.push_back("reader: " + std::to_string(first_after_append.size()) +
                      " first reads after an append, p50 " +
                      std::to_string(median(first_after_append)) +
                      " ms (not bounded)");
    add_ingest(r, s, "measured phase");
    check(r, after.ingest_appends - p.before.ingest_appends == s.attempted,
          "live_ingest: ingest_appends != appends sent");
    check(r, after.ingest_dirty_buildings - p.before.ingest_dirty_buildings == s.attempted,
          "live_ingest: ingest_dirty_buildings != appends");
    const std::vector<served_result> filled = std::move(f->filled);
    f.reset();

    std::vector<served_result> served = filled;
    served.insert(served.end(), s.pushes.begin(), s.pushes.end());
    add_quality(r, served);
    verify(r, served, filled, o.seed);
    return r;
}

}  // namespace

std::size_t store_size(const std::string& workload) {
    return workload == "cold_campaign" ? k_cold_store
           : workload == "warm_cache"  ? k_warm_working_set
                                       : k_live_store;
}

std::vector<std::size_t> ingest_rotation(const std::string& workload) {
    if (workload == "live_ingest") return iota_indices(k_live_readers, k_live_store);
    return {store_size(workload) - 1};
}

bool known_workload(const std::string& name) {
    return name == "cold_campaign" || name == "warm_cache" || name == "live_ingest";
}

run_report run_workload(run_options o) {
    // The host's speed, sampled before set-up, around the measured phase
    // and after verification.
    host_calibration host;
    o.host = &host;
    host.sample(k_calibration_reps);
    run_report r = o.workload == "cold_campaign" ? run_cold(o)
                   : o.workload == "warm_cache"  ? run_warm(o)
                                                 : run_live(o);
    host.sample(k_calibration_reps);
    r.lines.insert(r.lines.begin(), "workload " + o.workload + ", seed " +
                                        std::to_string(o.seed) + ", " +
                                        std::to_string(o.seconds) + " s measured");
    std::ostringstream ops;
    ops << "ops attempted " << r.attempted << ", failed " << r.failed;
    r.lines.push_back(ops.str());

    // Timings are reported at the reference host's speed; the measured
    // values stay in `r.measured` (the layer ladder compares against them).
    const double slowdown = host.slowdown();
    std::ostringstream cal;
    cal << "host calibration: compute " << host.compute_ms() << " ms, memory "
        << host.memory_ms() << " ms; slowdown " << slowdown << " against the reference host";
    r.lines.push_back(cal.str());
    r.lines.push_back("end-to-end metrics (as measured -> at reference host speed):");
    r.measured = r.metrics;
    for (run_report::metric& m : r.metrics) {
        std::ostringstream line;
        line << "  " << m.name << " = " << m.value;
        if (m.unit == "ms" || m.unit == "s" || m.unit == "1/s") {
            m.value = m.unit == "1/s" ? m.value * slowdown : m.value / slowdown;
            line << " -> " << m.value;
        }
        line << ' ' << m.unit;
        r.lines.push_back(line.str());
    }
    return r;
}

}  // namespace perfbench
