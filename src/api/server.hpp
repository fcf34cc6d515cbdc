#pragma once

/// \file server.hpp
/// The API dispatcher: decodes request frames, routes them onto a
/// `service::floor_service`, and streams encoded response frames back in
/// completion order with correlation ids. Transports are trivial by
/// construction:
///  - `serve(in, out)` speaks the framed codec over any
///    `std::istream`/`std::ostream` pair (a file, a socketpair wrapper, a
///    `std::stringstream` in tests);
///  - `open(sink)` is the in-process loopback: callers hand encoded
///    request frames to `session::handle_frame` (or decoded messages to
///    `session::handle`) and receive encoded response frames through the
///    sink — the exact same codec path as the framed stream, so the two
///    transports are byte-identical by construction.
///
/// The building path itself is two typed steps: `server::probe`, the cache
/// probe by (content hash, corpus index) that answers a hit inline, and
/// `server::run`, which submits the building and fills the cache on
/// success. A session's `identify_building` calls both, and so does
/// `federation::federated_server`, which calls each backend's `probe` and
/// `run` (and, for shards, its `backing_service().submit`) directly rather
/// than speaking frames to it; it reads a resident building only when the
/// probe misses.
///
/// Result caching: `identify_building` requests are content-addressed
/// through an `api::result_cache` keyed by (building content hash,
/// effective-config fingerprint — seeds included). A hit answers without
/// touching the service and is bit-identical to what a fresh run would
/// produce; a miss runs normally and populates the cache on success.
/// Shard requests always run (their contents are on disk, not hashable
/// without the streaming read that *is* the job); when
/// `server_config::shard_root` is set, their paths must resolve inside
/// it or the request is refused with `error_code::bad_request`.
///
/// Protocol failures become typed `error_response` frames. Recoverable
/// ones (wrong version, unknown tag, malformed payload) keep the
/// connection alive; fatal ones (bad magic, truncation, oversized length)
/// end `serve` after the error frame is written.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "message.hpp"
#include "result_cache.hpp"
#include "service/floor_service.hpp"

namespace fisone::api {

/// Server configuration.
struct server_config {
    /// The backing service (pipeline template, campaign seed, workers,
    /// backpressure). `service.on_report` stays available for the owner's
    /// observability taps; the server routes its responses through per-job
    /// callbacks, not this hook.
    service::service_config service{};
    bool enable_cache = true;          ///< serve repeat submissions from cache
    std::size_t cache_capacity = 1024; ///< LRU entries (one building report each)
    /// Persistent cache spill (crash-safe write-then-rename files, warm
    /// load on construction). Disabled by default; ignored when
    /// `enable_cache` is false. See `cache_spill_config`.
    cache_spill_config cache_spill{};
    /// Filesystem root that `identify_shard` paths must resolve inside
    /// (symlinks and dot-segments resolved). Empty — the default — trusts
    /// the caller, which is right for in-process embedding. No network
    /// transport fronts a bare `api::server`: `net::tcp_server` serves a
    /// `federation::federated_server`, which confines paths to its
    /// mounted stores before a backend sees them. Set this when a stream
    /// (`serve(in, out)`) carries untrusted input. Out-of-root requests
    /// are answered with a typed `error_code::bad_request`, never
    /// executed.
    std::string shard_root;
};

/// Jobs by request correlation id: one connection's `cancel_job`
/// namespace. Resubmitting under an id re-points it. Finished jobs are
/// dropped on every insert, so a long-lived connection that never flushes
/// cannot accumulate handles (each pins its reports — full embedding
/// matrices — for the job's lifetime).
class job_table {
public:
    void remember(std::uint64_t correlation_id, service::floor_service::job job);

    /// Cancel the job under \p correlation_id: true when the request landed
    /// before it finished, false for a finished job or an unknown id.
    bool cancel(std::uint64_t correlation_id);

    /// Drop the handles of finished jobs (flush-time housekeeping).
    void prune();

private:
    void prune_locked();

    std::mutex m_;
    std::unordered_map<std::uint64_t, service::floor_service::job> jobs_;
};

/// A building's one answer from `server::probe` or `server::run`. A run
/// that does not fill the cache (a failure, or caching off for it) hands
/// over its whole report and no entry. A cache hit, and a run that fills
/// the cache, hand over the shared entry instead of a copy: `report` then
/// holds only the answer's head — its index and `seconds` (a hit's own
/// index and probe time), the entry's name, ok, error and seed — with an
/// empty result. The result exists only as `cached->tail`, its encoded
/// bytes; a typed reader decodes it from the joined frame.
struct building_answer {
    runtime::building_report report;
    std::shared_ptr<const cached_report> cached;  ///< set on a cache hit or fill
};

class server {
public:
    /// Receives each encoded response frame. Calls are serialised by the
    /// session; the sink must not re-enter the session or block on it.
    using frame_sink = std::function<void(std::string_view)>;

    /// Receives a building's one answer from `probe` or `run`.
    using report_sink = std::function<void(building_answer)>;

    /// One client connection: a correlation-id namespace (for `cancel_job`)
    /// plus the response channel. Cheap handle; copies share state. Jobs
    /// submitted through a session keep the session state alive until they
    /// finish, but the *sink targets* (e.g. the output stream) must outlive
    /// the jobs — call `finish()` (or `server` teardown) before tearing
    /// them down.
    class session {
    public:
        /// Dispatch one decoded request.
        void handle(const request& req);

        /// Decode one frame, then dispatch. Protocol failures emit a typed
        /// `error_response` through the sink. Returns false when the
        /// failure was fatal (framing integrity lost — the feeder should
        /// stop), true otherwise.
        bool handle_frame(std::string_view frame);

        /// Barrier: wait until every building of every job submitted so
        /// far has produced its response frame. (Same as a `flush` request,
        /// minus the `flush_response`.)
        void finish();

        /// True once a sink invocation threw: subsequent response frames
        /// are dropped (the transport is assumed gone).
        [[nodiscard]] bool sink_broken() const;

    private:
        friend class server;
        struct state;
        explicit session(std::shared_ptr<state> s) : state_(std::move(s)) {}
        std::shared_ptr<state> state_;
    };

    /// Spins up the backing `floor_service` immediately.
    /// \throws std::invalid_argument exactly as `floor_service` does.
    explicit server(server_config cfg);

    /// Waits for every submitted job (service teardown semantics).
    ~server();

    server(const server&) = delete;
    server& operator=(const server&) = delete;

    /// Open an in-process loopback session.
    [[nodiscard]] session open(frame_sink sink);

    /// Serve one framed connection: read request frames from \p in until
    /// EOF or a fatal framing error, stream response frames to \p out.
    /// Returns after every accepted job has answered (implicit `finish`).
    void serve(std::istream& in, std::ostream& out);

    /// The cache step of every front-end's building path: look up
    /// (\p content_hash, the task fingerprint of \p index) in the result
    /// cache, counting one hit or one miss. A hit answers through
    /// \p on_report inline, copying no report, and `probe` returns true; it
    /// also advances the service's corpus-index counter past \p index, as
    /// the run it replaces would. False on a miss, and with caching off
    /// (nothing counted). The probe needs no building, so a caller that
    /// reads its building from a store reads it only when this misses.
    /// Span `api.cache_probe`.
    bool probe(std::uint64_t content_hash, std::size_t index, const report_sink& on_report);

    /// The run step: submit \p b at corpus index \p index. Unless
    /// \p no_cache, a successful run fills the cache under
    /// (\p content_hash, the task fingerprint of \p index) and answers from
    /// the entry it made. \p content_hash must be `data::content_hash(b)`,
    /// which the caller already holds (the fleet hashes a building once per
    /// request, a resident building once per read), so `run` never walks
    /// the scans itself. It does not probe: a caller that wants a cached
    /// answer calls `probe` first. \p on_report gets the building's one
    /// answer under the service's callback rules. Span `api.identify`.
    /// \throws whatever `floor_service::submit` throws (an injected crash).
    service::floor_service::job run(const data::building& b, std::uint64_t content_hash,
                                    std::size_t index, bool no_cache, report_sink on_report);

    /// Service stats with the cache counters folded in — exactly what a
    /// `get_stats` request returns.
    [[nodiscard]] service::service_stats stats() const;
    /// The service's snapshot with the cache counters folded in: what a
    /// fleet merge pools.
    [[nodiscard]] service::service_snapshot snapshot() const;

    [[nodiscard]] result_cache_stats cache_stats() const;

    /// The backing service (pause/resume, direct submission, raw stats).
    [[nodiscard]] service::floor_service& backing_service() noexcept { return *svc_; }

    /// The config half of corpus index \p index's cache key:
    /// `core::config_fingerprint` of the task's effective config. It
    /// depends only on the service config and \p index, so it is memoised
    /// per index (thread-safe, bounded).
    [[nodiscard]] std::uint64_t task_fingerprint(std::size_t index) const;

private:
    /// One `task_fingerprint` memo slot.
    struct fingerprint_slot {
        std::size_t index = 0;
        std::uint64_t fingerprint = 0;
        bool valid = false;
    };

    server_config cfg_;
    /// The `task_fingerprint` memo, direct-mapped by index so that it
    /// stays bounded however many indices a long-lived server sees.
    mutable std::mutex fingerprint_m_;
    mutable std::vector<fingerprint_slot> fingerprints_;
    /// Declared before the service so teardown destroys the service first:
    /// its destructor waits for in-flight jobs, whose callbacks may still
    /// touch the cache.
    std::unique_ptr<result_cache> cache_;  ///< null when caching disabled
    std::unique_ptr<service::floor_service> svc_;
};

}  // namespace fisone::api
