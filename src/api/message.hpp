#pragma once

/// \file message.hpp
/// The versioned request/response message model of the FIS-ONE API — the
/// one public contract that subsumes the library's three historical entry
/// points (`core::fis_one::run`, `runtime::batch_runner`,
/// `service::floor_service::submit`). Every front-end — the in-process
/// loopback, the framed-stream server, and any future HTTP/gRPC or
/// federation adapter — speaks exactly these messages; transports differ
/// only in how the encoded frames move.
///
/// Conventions:
///  - every message carries a caller-chosen `correlation_id`; responses
///    echo the id of the request they answer, so a transport may stream
///    responses in completion order;
///  - a shard request fans out into one `building_response` per building,
///    all sharing the request's correlation id;
///  - protocol-level failures arrive as a typed `error_response`, never as
///    a broken stream (see `codec.hpp` for the framing rules).

#include <cstdint>
#include <string>
#include <variant>

#include "data/rf_sample.hpp"
#include "runtime/batch_runner.hpp"
#include "service/floor_service.hpp"

namespace fisone::api {

/// Wire schema version. Bump on any change to message layouts; decoders
/// reject frames from a different version with `error_code::bad_version`.
/// v2: `service_stats` gained `cache_evictions`.
/// v3: live ingestion — `append_scans` / `watch` verbs, `append_result` /
///     `watch_ack` / `push_update` frames, `service_stats` gained the
///     ingest counters.
/// v4: live telemetry — `identify_resident` / `subscribe_stats` verbs and
///     the `stats_update` push frame; `identify_building_request` gained
///     `no_cache`.
inline constexpr std::uint32_t k_schema_version = 4;

/// Frame tag: which message a frame's payload holds. Requests live in
/// [1, 64), responses in [64, 128); the split leaves both ranges room to
/// grow without renumbering.
enum class message_tag : std::uint16_t {
    // requests
    identify_building = 1,
    identify_shard = 2,
    get_stats = 3,
    cancel_job = 4,
    flush = 5,
    append_scans = 6,
    watch = 7,
    identify_resident = 8,
    subscribe_stats = 9,
    // responses
    building_result = 64,
    stats_result = 65,
    cancel_result = 66,
    flush_done = 67,
    append_result = 68,
    watch_ack = 69,
    /// Server-initiated: a re-identified floor labeling pushed to a
    /// standing `watch` subscription — the one frame a client receives
    /// without a request of its own in flight.
    push_update = 70,
    /// Server-initiated: one completed telemetry window streamed to a
    /// standing `subscribe_stats` subscription.
    stats_update = 71,
    error = 127,
};

/// Typed protocol-failure codes carried by `error_response`.
enum class error_code : std::uint16_t {
    none = 0,
    bad_magic = 1,     ///< frame does not start with the FIS1 magic (fatal)
    truncated = 2,     ///< stream ended inside a header or payload (fatal)
    oversized = 3,     ///< declared payload length exceeds the codec bound (fatal)
    bad_version = 4,   ///< frame from a different schema version (skippable)
    unknown_tag = 5,   ///< well-framed payload with an unknown tag (skippable)
    bad_payload = 6,   ///< payload too short, malformed, or with trailing bytes
    bad_request = 7,   ///< decoded fine but semantically unservable
    overloaded = 8,    ///< shed: the admission queue is saturated — retry later
    draining = 9,      ///< shed: the server is draining for shutdown
    /// Every backend that could serve the request is circuit-broken or
    /// crashed and retries are exhausted — the fleet, not the request, is
    /// at fault; retry later.
    backend_unavailable = 10,
    /// The request's deadline elapsed before any backend produced a
    /// result; the in-flight attempt was cancelled.
    deadline_exceeded = 11,
};

/// Human-readable name of \p code (for logs and error messages).
[[nodiscard]] const char* error_code_name(error_code code) noexcept;

// --- requests ---------------------------------------------------------------

/// Run the pipeline on one building. Without `has_index` the server
/// assigns the next unused corpus index (and thus seed); with it, the
/// caller pins the building's place in the campaign — resubmitting a
/// corpus at the same indices is what makes the result cache hit.
struct identify_building_request {
    std::uint64_t correlation_id = 0;
    bool has_index = false;
    std::uint64_t corpus_index = 0;
    /// Skip the result cache for this request (no probe, no insert): the
    /// pipeline always reruns. This is what keeps a capacity bench honest —
    /// without it, a repeated corpus measures cache lookups, not the
    /// pipeline.
    bool no_cache = false;
    data::building b;
};

/// Stream an on-disk shard through the service (one `building_response`
/// per building, shared correlation id). Never served from the cache —
/// shard contents are not resident to hash.
struct identify_shard_request {
    std::uint64_t correlation_id = 0;
    service::shard_ref ref;
};

/// Snapshot the service + cache counters.
struct get_stats_request {
    std::uint64_t correlation_id = 0;
};

/// Cooperatively cancel the job submitted under `target_correlation_id`.
struct cancel_job_request {
    std::uint64_t correlation_id = 0;
    std::uint64_t target_correlation_id = 0;
};

/// Barrier: answered (with `flush_response`) only after every building of
/// every job submitted before it has produced its response.
struct flush_request {
    std::uint64_t correlation_id = 0;
};

/// Append new crowdsourced scans to the mounted store whose corpus is
/// named `corpus_name`. Each record is a building block carrying the
/// NEW scans for the building it names (`data::apply_delta_record`
/// semantics); a name no base building holds introduces a new building at
/// the store's tail. Answered with `append_response` only after the
/// store's advanced manifest was written then renamed into place (not
/// fsynced: a process crash keeps the append, a power loss may not); the
/// re-run of the dirty
/// buildings follows asynchronously (barrier: `flush`). Served by the
/// federated front-end — a bare `api::server` has no store to land deltas
/// in and answers `bad_request`.
struct append_scans_request {
    std::uint64_t correlation_id = 0;
    std::string corpus_name;
    std::vector<data::building> records;
};

/// Stand up (or tear down) a subscription on one building name: after a
/// `watch_ack`, every re-identification of that building triggered by an
/// append pushes a `push_update` carrying this request's correlation id
/// over the same connection, until unsubscribed or the connection closes.
struct watch_request {
    std::uint64_t correlation_id = 0;
    std::string name;      ///< building name to watch
    bool subscribe = true; ///< false = cancel this connection's subscription
};

/// Run the pipeline on one *resident* building: the building named `name`
/// in a mounted corpus store, at its store-assigned corpus index (and thus
/// seed). The request carries a few bytes where `identify_building` carries
/// the whole building — the mode that keeps the wire from being the
/// bottleneck when exploring server capacity. Served by the federated
/// front-end (it owns the mounted stores); a bare `api::server` answers
/// `bad_request`, as does a fleet with no stores or an unknown name.
struct identify_resident_request {
    std::uint64_t correlation_id = 0;
    std::string name;    ///< building name in a mounted store
    bool fresh = false;  ///< bypass the result cache (forwarded as `no_cache`)
};

/// Stand up (or tear down) a telemetry stream on this connection: after
/// the `watch_ack`, the server pushes one `stats_update` frame per elapsed
/// interval (rounded up to the server's telemetry window) carrying this
/// request's correlation id, until unsubscribed or the connection closes.
/// Served by `net::tcp_server` — the shed/admission counters the stream
/// exists to expose live at the front door, so loopback servers answer
/// `bad_request`.
struct subscribe_stats_request {
    std::uint64_t correlation_id = 0;
    std::uint32_t interval_ms = 1000;  ///< minimum spacing between pushes
    bool subscribe = true;  ///< false = cancel this connection's stream
};

using request = std::variant<identify_building_request, identify_shard_request,
                             get_stats_request, cancel_job_request, flush_request,
                             append_scans_request, watch_request, identify_resident_request,
                             subscribe_stats_request>;

// --- responses --------------------------------------------------------------

/// One finished building (ok, failed, cancelled — exactly as
/// `runtime::building_report` models it).
struct building_response {
    std::uint64_t correlation_id = 0;
    runtime::building_report report;
};

/// Answer to `get_stats_request`; `stats.cache_hits` / `cache_misses` are
/// filled from the server's `result_cache`.
struct stats_response {
    std::uint64_t correlation_id = 0;
    service::service_stats stats;
};

/// Answer to `cancel_job_request`. `accepted` mirrors
/// `floor_service::job::cancel`: true when the request landed before the
/// target finished; false when the target was already complete or the
/// target correlation id is unknown.
struct cancel_response {
    std::uint64_t correlation_id = 0;
    std::uint64_t target_correlation_id = 0;
    bool accepted = false;
};

/// Answer to `flush_request`.
struct flush_response {
    std::uint64_t correlation_id = 0;
};

/// Answer to `append_scans_request`, emitted once the append has landed:
/// delta shard and manifest written then renamed into place, not fsynced.
/// A process crash after this frame never loses the delta; a power loss
/// may (the `util::durable_write` item in ROADMAP.md). `version` is the
/// store's manifest version after the append; `dirty` counts the buildings
/// whose content hash changed (they re-run; everything else keeps serving
/// from cache).
struct append_response {
    std::uint64_t correlation_id = 0;
    std::uint64_t version = 0;
    std::uint64_t accepted = 0;  ///< delta records appended (written then renamed, not fsynced)
    std::uint64_t dirty = 0;
};

/// Answer to `watch_request`: the subscription state after the request.
struct watch_ack_response {
    std::uint64_t correlation_id = 0;
    bool active = false;
};

/// Server-initiated push to a standing watch: the watched building was
/// re-identified after an append made it dirty. `correlation_id` is the
/// watch request's, so a client multiplexing subscriptions can tell them
/// apart; `version` is the store version whose data the report reflects.
struct push_response {
    std::uint64_t correlation_id = 0;
    std::uint64_t version = 0;
    runtime::building_report report;
};

/// Typed protocol failure. `correlation_id` is 0 when the failure happened
/// before a correlation id could be decoded (e.g. a truncated header).
struct error_response {
    std::uint64_t correlation_id = 0;
    error_code code = error_code::none;
    std::string message;
};

/// Server-initiated push to a standing `subscribe_stats` stream: one
/// completed telemetry window of the front door. Counters are deltas over
/// the window; connections/inflight are gauges sampled at its close;
/// percentiles come from the window's latency histogram and carry
/// `obs::latency_histogram::k_max_relative_error`.
struct stats_update_response {
    std::uint64_t correlation_id = 0;  ///< the subscribe request's id
    std::uint64_t window_seq = 0;      ///< 1-based telemetry tick number
    double window_seconds = 0.0;       ///< actual window duration
    std::uint64_t connections = 0;     ///< open connections at window close
    std::uint64_t inflight = 0;        ///< admitted jobs not yet answered
    std::uint64_t admitted = 0;        ///< requests admitted this window
    std::uint64_t responses = 0;       ///< response frames sent this window
    std::uint64_t shed_overload = 0;   ///< overload sheds this window
    std::uint64_t shed_draining = 0;   ///< draining sheds this window
    std::uint64_t latency_count = 0;   ///< latencies observed this window
    double latency_sum = 0.0;          ///< their exact sum (seconds)
    double latency_p50 = 0.0;
    double latency_p90 = 0.0;
    double latency_p99 = 0.0;
};

using response = std::variant<building_response, stats_response, cancel_response,
                              flush_response, append_response, watch_ack_response,
                              push_response, stats_update_response, error_response>;

// --- uniform accessors ------------------------------------------------------

[[nodiscard]] std::uint64_t correlation_id(const request& r) noexcept;
[[nodiscard]] std::uint64_t correlation_id(const response& r) noexcept;
[[nodiscard]] message_tag tag_of(const request& r) noexcept;
[[nodiscard]] message_tag tag_of(const response& r) noexcept;

}  // namespace fisone::api
