#pragma once

/// \file harness.hpp
/// Plumbing shared by the workloads and the layer ladder: statistics, the
/// report every run prints, the server child process, blocking wire calls,
/// and the correctness oracle (the in-process `runtime::run_building_task`
/// reference every served result must match bit for bit).

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/message.hpp"
#include "corpus.hpp"
#include "net/socket.hpp"
#include "runtime/batch_runner.hpp"
#include "service/floor_service.hpp"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] double ms_between(clock_type::time_point a, clock_type::time_point b);

/// Median / nearest-rank percentile / mean of \p v (0 when empty).
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Completions per second: the median, over consecutive windows of
/// \p per_window completions, of each window's rate (the first window
/// starts at \p start). A burst of interference from outside the
/// benchmark then moves one window, not the result. With fewer than three
/// windows it is the overall rate.
[[nodiscard]] double windowed_rate(std::vector<clock_type::time_point> done,
                                   clock_type::time_point start, std::size_t per_window);

/// The name every corpus store is written under (the `append_scans` key).
inline constexpr const char* k_corpus_name = "perfbench";

/// Pipeline workers behind the one backend of every fleet.
inline constexpr std::size_t k_pipeline_workers = 2;

/// What one run prints: a human-readable report, then one JSON line.
struct run_report {
    struct metric {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<metric> metrics;
    std::vector<metric> measured;    ///< end-to-end metrics before host scaling
    std::vector<std::string> lines;  ///< report lines printed before the JSON

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /// Record a violated check: the run stays reportable but is not correct.
    void fail_check(const std::string& what);
};

/// Print the report lines, then the JSON object as the last stdout line.
void print_report(std::ostream& out, const run_report& r);

/// The shipped `serve_tcp` front door as a child process: a fleet of one
/// backend with `k_pipeline_workers` workers at the default profile over
/// \p store_dir, so its CPU time and peak RSS are measured apart from the
/// load generator's.
class server_process {
public:
    /// Starts serve_tcp and waits until it listens (its `--port-file`).
    server_process(const std::string& store_dir, std::uint64_t seed);
    ~server_process();

    server_process(const server_process&) = delete;
    server_process& operator=(const server_process&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
    /// User + system CPU seconds the server has used so far.
    [[nodiscard]] double cpu_seconds() const;
    /// Peak resident set size so far (VmHWM), in MB.
    [[nodiscard]] double rss_peak_mb() const;
    /// SIGTERM (graceful drain), then wait; SIGKILL if it does not exit.
    void stop();

private:
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
};

/// Read one response frame. \throws std::runtime_error on EOF or an
/// undecodable frame.
[[nodiscard]] fisone::api::response read_response(fisone::net::frame_conn& conn);

/// Send \p req and read the next frame.
[[nodiscard]] fisone::api::response call(fisone::net::frame_conn& conn,
                                         const fisone::api::request& req);

/// The public `get_stats` view. \throws std::runtime_error on another answer.
[[nodiscard]] fisone::service::service_stats get_stats(fisone::net::frame_conn& conn);

/// The campaign's pipeline template (what the server runs).
[[nodiscard]] fisone::core::fis_one_config pipeline_template(std::uint64_t seed);

/// Bitwise comparison of the served result with the reference: assignment,
/// cluster_to_floor and the embedding bits.
[[nodiscard]] bool same_result(const fisone::runtime::building_report& served,
                               const fisone::runtime::building_report& reference);

/// One served result to verify: the building exactly as the server held it
/// (base plus every append so far), its corpus index, and what came back.
struct served_result {
    std::size_t index = 0;
    fisone::data::building input;
    fisone::runtime::building_report report;
};

/// Recompute every result in-process on \p threads threads and compare;
/// returns the number of mismatches.
[[nodiscard]] std::size_t verify_results(const std::vector<served_result>& results,
                                         std::uint64_t seed, std::size_t threads);

/// FNV-1a digest over the indices, assignments, floor orders and embedding
/// bits of \p results, in the given order.
[[nodiscard]] std::uint64_t result_digest(const std::vector<served_result>& results);

/// Mean ARI / NMI / Jaro edit similarity over \p results.
void add_quality(run_report& r, const std::vector<served_result>& results);

/// One answered `identify_resident`: `error` is empty when the response was
/// a successful `building_response` with the request's correlation id and
/// building name; otherwise it says what went wrong (typed sheds included).
struct resident_answer {
    std::string error;
    double ms = 0.0;  ///< send → response frame read
    fisone::runtime::building_report report;
};

[[nodiscard]] resident_answer identify_resident(fisone::net::frame_conn& conn,
                                                std::uint64_t corr, const std::string& name,
                                                bool fresh);

/// A connection holding `watch` subscriptions; a reader thread collects the
/// `push_update` frames so the appender can wait for the one its append
/// caused.
class watcher {
public:
    /// Subscribes to every name in \p names on \p conn and waits for the acks.
    watcher(fisone::net::frame_conn& conn, const std::vector<std::string>& names);
    /// Shuts the connection down and joins the reader.
    ~watcher();

    watcher(const watcher&) = delete;
    watcher& operator=(const watcher&) = delete;

    struct push {
        fisone::runtime::building_report report;
        clock_type::time_point arrived;
    };
    /// The push for \p name at store version \p version, or nullopt when
    /// \p deadline passes or the connection ends first.
    [[nodiscard]] std::optional<push> wait(const std::string& name, std::uint64_t version,
                                           clock_type::time_point deadline);

private:
    struct state;
    fisone::net::frame_conn& conn_;
    std::shared_ptr<state> state_;
    std::thread reader_;
};

/// Closed-loop appends against a freshly written store: each step appends
/// one held-back scan per floor to the next building of \p rotation, waits
/// for the `append_response`, then for the `push_update` of the
/// re-identified building. Each push is kept with the building as the
/// server then held it (base plus every append so far), for verification.
struct ingest_samples {
    std::vector<double> append_ms;  ///< append_scans sent → append_response
    std::vector<double> fresh_ms;   ///< append_scans sent → push_update
    std::vector<double> rerun_ms;   ///< the pushed report's pipeline seconds
    std::vector<clock_type::time_point> pushed_at;
    std::vector<served_result> pushes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/// Appends while \p keep_going(appends done so far) holds; counts each
/// acked append in \p acked when given.
void append_loop(fisone::net::frame_conn& conn, watcher& w,
                 const std::vector<corpus_building>& corpus,
                 const std::vector<std::size_t>& rotation,
                 const std::function<bool(std::size_t)>& keep_going, ingest_samples& out,
                 std::atomic<std::size_t>* acked = nullptr);

/// The base buildings of \p buildings as one corpus named `k_corpus_name`.
[[nodiscard]] fisone::data::corpus as_corpus(const std::vector<corpus_building>& buildings);

/// Buildings per store shard.
inline constexpr std::size_t k_shard_size = 16;

/// Write \p c as a fresh corpus store at \p dir (replacing any old one).
void write_store(const fisone::data::corpus& c, const std::string& dir);

}  // namespace perfbench
