#pragma once

/// \file federated_server.hpp
/// One API front-end over a fleet: `federated_server` speaks exactly the
/// `api::server` contract — the same request/response messages, the same
/// framed codec, the same transports (`serve(in, out)` streams, `open(sink)`
/// loopback) — but dispatches onto M backends fed from N corpus stores
/// mounted in a `store_registry`. A backend is an `api::server` used only
/// as the container of a `service::floor_service` and its own warm
/// `api::result_cache`: the fleet calls them directly and never speaks
/// frames to them, so the session contract (correlation ids, the cancel
/// namespace, response encoding) is implemented once, here.
///
/// Dispatch per message:
///  - `identify_building` / `identify_shard` — a `router` policy picks the
///    backend (round-robin, least-queue-depth over bounded-queue occupancy,
///    or content-hash affinity so repeat buildings hit the backend whose
///    result cache is warm). A building goes through that backend's
///    `api::server::probe` (the cache) and, on a miss, its `run` (submit,
///    cache fill); a shard goes straight to its `floor_service::submit`.
///    Each report is encoded once, under the client's correlation id, as
///    the job produces it, so completion order interleaves across backends
///    exactly as jobs finish.
///    A cache hit encodes only its head (the per-answer fields) and hands
///    the sink the backend cache's shared entry, whose result bytes were
///    encoded once when the entry was made.
///  - `get_stats` — answered by the front-end: per-backend
///    `service_snapshot`s are merged (counters summed; latency percentiles
///    recomputed from the merged `obs::latency_histogram`s — percentiles
///    cannot be merged from percentiles).
///  - `cancel_job` — cancels the job handle the connection tracks under the
///    target correlation id (finished handles are pruned as new ones are
///    tracked); unknown or finished targets answer `accepted = false`.
///  - `flush` — fans out: every backend drains — and the ingest manager
///    goes idle (queued appends landed, dirty re-runs answered) — before
///    the one `flush_response` is emitted.
///  - `append_scans` — handed to the `ingest::ingest_manager` (created when
///    stores are mounted at construction): the append lands in the named
///    store (written then renamed, not fsynced), the `append_response`
///    fires, and the dirty buildings are resubmitted through an internal
///    session — so the re-runs ride the same retry/failover/deadline path
///    as client work and leave the backend caches warm. A fleet without stores answers `bad_request`.
///  - `watch` — registered in the server-wide `watch_registry`; every
///    append-triggered re-identification of the watched building is pushed
///    to the subscribed connection as a `push_update`.
///  - `identify_resident` — the request names a building already resident
///    in a mounted store; the front-end resolves the name through the
///    server-wide `resident_directory`, which keeps only each name's global
///    corpus index and content hash (the first resolve of a name reads and
///    hashes that one building, span `federation.resident_load`, and the
///    request runs on that read). The request then dispatches as a pinned
///    `identify_building` carrying the hash — so resident requests ride the
///    exact routing/retry path client-supplied buildings do, with a few
///    name bytes on the wire instead of the whole building. A cached read
///    reads and hashes nothing; a request that must run (a cache miss, or
///    `fresh`) reads the building again, and runs and caches it under the
///    hash of what it read, so an append that lands between the resolve
///    and the read is seen whole. A successful append drops the names it
///    touched, so they and new names resolve to the post-append scans.
///    Unknown names and store-less fleets answer `bad_request`.
///  - `subscribe_stats` — answered `bad_request`: telemetry windows live at
///    the TCP front door (`net::tcp_server`, which serves this class
///    directly), the only layer that sees sheds and admission.
/// `pause()` / `resume()` fan out to every backend's service.
///
/// Determinism: a building's results depend only on its *global* corpus
/// index (seeds derive from it) and its bits — never on which backend ran
/// it. The registry's mount order fixes global indices to the concatenated
/// corpus, auto-assigned building indices come from one front-end counter,
/// and every backend shares the campaign seed, so the input-order NDJSON
/// re-export of a federated campaign is byte-identical to a single
/// `floor_service` over the concatenated corpus at ANY
/// (stores × backends × threads) combination.
///
/// Shard-path confinement is per store: a path that does not resolve inside
/// a mounted store's directory is refused with `error_code::bad_request`
/// before any filesystem access (backends run with the front-end's
/// already-confined paths).
///
/// **Fault tolerance** (the one building dispatch path): each building
/// request becomes an *attempt*, tracked under an internal attempt id that
/// never reaches the wire, with the backend job of its current try. The
/// job's report callback reads the report directly. A success (or a
/// genuine, deterministic pipeline failure — rerunning those would only
/// repeat them) is encoded under the client's correlation id, so a
/// response does not depend on how many tries produced it. A *transient*
/// failure (`service::is_transient_fault`, which matches only injected
/// faults), a submit-time crash, or a deadline expiry (which cancels the
/// hung job) instead feeds the backend's circuit breaker and reschedules
/// the attempt under a fresh attempt id — exponential backoff, rerouted
/// around broken backends (failover) — until it succeeds or `max_attempts`
/// is spent, when the client gets a typed `backend_unavailable` /
/// `deadline_exceeded` error. Reports of superseded tries are dropped as
/// stale. All deferred work runs on the `fleet_health` watchdog thread,
/// never inline from a completion callback (which must not block or
/// submit). Shard requests fail over only on submit-time crashes (before
/// any report exists); mid-shard failures are forwarded as-is — a shard
/// stream has already answered some buildings, so resubmission would
/// duplicate them. Every client correlation id is usable; none is reserved.
/// A fleet with no armed `fault_plan` and no `request_timeout` never
/// retries: nothing produces a transient failure or a crash, and no
/// deadline is armed, so every try is the first and only one.
///
/// **Threads and lifetimes** (the rule every response sink lives by):
///  - *Who runs a sink.* A session's sink is called on backend worker
///    threads (job reports), on the `fleet_health` watchdog (retries,
///    deadline expiries and the typed errors they end in), on the ingest
///    worker (append acks, re-runs answered from cache) and inline on the
///    thread calling `handle` (cache hits, stats, cancel and watch answers,
///    refusals — the event loop for `net::tcp_server`). Calls are
///    serialised per session by its emitter; a sink must not block and must
///    not re-enter its session.
///  - *What a sink may own.* The sink lives in the session's emitter, which
///    backend jobs' callbacks and append acks share (watch entries hold it
///    weakly), so it can outlive the session handle and its transport. It
///    owns what it touches by `shared_ptr` — the TCP front door's sink owns
///    the server's `core` and the connection's `conn`, and drops frames
///    once the connection is closed — and holds no raw reference to a
///    transport. Callbacks hold the session state only weakly (the state
///    owns the jobs that own them); the emitter is shared, never the
///    session.
///  - *What a sink may keep.* Every sink argument is borrowed for the call,
///    except the cache entry of a hit: a sink may copy that `shared_ptr`
///    and keep the entry alive after it returns. The entry is immutable,
///    so any thread may read it while backend workers insert and evict.
///    The TCP front door does so: it queues the entry's tail on the
///    connection and holds it until the kernel has taken the bytes. The
///    typed `building_response` of a hit carries only the answer's head,
///    and the entry holds the result only as encoded bytes: a typed reader
///    that needs the result (the ingest bridge) decodes the frame joined
///    to the entry's tail.
///  - *Who joins which thread.* The destructor destroys `ingest_` first
///    (it joins the ingest worker after its queued appends land and its
///    re-runs are answered, while the backends can still answer them),
///    then the backends drain (each waits out its in-flight jobs and joins
///    its workers), then `health_->stop()` joins the watchdog. A transport
///    over the fleet stops first: the fleet outlives `tcp_server::run()`,
///    and the sinks that fire during its teardown land in the shared
///    `core` and `conn`.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/server.hpp"
#include "fault_tolerance.hpp"
#include "router.hpp"
#include "store_registry.hpp"

namespace fisone::ingest {
class ingest_manager;
}  // namespace fisone::ingest

namespace fisone::federation {

class resident_directory;
class watch_registry;

/// Fleet configuration.
struct federation_config {
    /// Template for every backend's service (pipeline, campaign seed,
    /// workers-per-backend, backpressure). All backends share the seed —
    /// that, plus global corpus indices, is the determinism contract.
    service::service_config service{};
    std::size_t num_backends = 2;  ///< fleet size; must be >= 1
    routing_policy policy = routing_policy::content_hash_affinity;
    bool enable_cache = true;           ///< per-backend result caches
    std::size_t cache_capacity = 1024;  ///< LRU entries per backend
    /// Corpus-store directories mounted at construction (more may be
    /// mounted later via `registry().mount` — before serving starts).
    std::vector<std::string> store_dirs;
    /// Persistent result-cache directory, shared by the whole fleet; each
    /// backend spills its inserts there and warm-loads **only its affinity
    /// shard** (`content_hash % num_backends == k`) on restart. Empty —
    /// the default — keeps caches purely in-memory.
    std::string cache_dir;
    /// Retry / deadline / circuit-breaker tuning, applied to every building
    /// request. Retries only happen on injected faults (`fault_plans`) or
    /// an expired `request_timeout` (0, the default, arms no deadline).
    fault_tolerance_config fault_tolerance{};
    /// Per-backend fault injection (tests and chaos drills). Empty = every
    /// backend healthy; otherwise exactly one plan per backend.
    std::vector<service::fault_plan> fault_plans;
};

/// Merge per-backend snapshots into fleet-wide stats: every counter and
/// gauge of `service::k_service_stat_fields` sums; the latency summary is
/// taken over the pooled histograms (bucket-wise, so any merge order
/// yields identical fleet percentiles).
[[nodiscard]] service::service_stats merge_backend_stats(
    const std::vector<service::service_snapshot>& backends);

class federated_server {
public:
    using frame_sink = api::server::frame_sink;
    /// Receives each response both typed and encoded, so a transport
    /// forwards the bytes and reads the id and kind off the message, never
    /// off the bytes. Without \p cached, `frame` is `api::encode(resp)`. A
    /// cache hit comes with its shared entry \p cached instead: `resp` is a
    /// `building_response` holding the answer's head (result empty), and
    /// `frame` is only the head's bytes — the whole frame is `frame`
    /// followed by `cached->tail`, which holds the only copy of the result.
    using response_sink =
        std::function<void(const api::response& resp, std::string_view frame,
                           const std::shared_ptr<const api::cached_report>& cached)>;

    /// One client connection over the fleet: a correlation-id namespace
    /// spanning every backend, plus the response channel. Cheap handle;
    /// copies share state. In-flight jobs keep the response channel alive,
    /// but sink targets must outlive the jobs — `finish()` (or server
    /// teardown) before tearing them down.
    class session {
    public:
        /// Dispatch one decoded request.
        void handle(const api::request& req);

        /// Decode one frame, then dispatch. Returns false when the failure
        /// was fatal (framing integrity lost — the feeder should stop).
        bool handle_frame(std::string_view frame);

        /// Barrier: every backend drained, every response frame emitted.
        void finish();

        /// True once a sink invocation threw: later frames are dropped.
        [[nodiscard]] bool sink_broken() const;

    private:
        friend class federated_server;
        struct state;
        explicit session(std::shared_ptr<state> s) : state_(std::move(s)) {}
        std::shared_ptr<state> state_;
    };

    /// Spins up every backend (and mounts `store_dirs`) immediately.
    /// \throws std::invalid_argument on a zero `num_backends`, a backend
    ///         config `floor_service` rejects, or a store merge the
    ///         registry rejects.
    explicit federated_server(federation_config cfg);

    /// Waits for every in-flight job on every backend.
    ~federated_server();

    federated_server(const federated_server&) = delete;
    federated_server& operator=(const federated_server&) = delete;

    /// Open an in-process loopback session over the fleet.
    [[nodiscard]] session open(response_sink sink);
    /// The same, for a sink that wants only the encoded frames (a cache
    /// hit's head and tail are joined into one).
    [[nodiscard]] session open(frame_sink sink);

    /// Serve one framed connection (same loop as `api::server::serve`):
    /// read request frames from \p in until EOF or a fatal framing error,
    /// stream response frames to \p out, drain before returning.
    void serve(std::istream& in, std::ostream& out);

    /// Fleet-wide stats — exactly what a `get_stats` request returns:
    /// counters summed over backends, percentiles over merged latencies.
    [[nodiscard]] service::service_stats stats() const;

    /// Hold every backend's queue at the gate / release them all.
    void pause();
    void resume();

    [[nodiscard]] store_registry& registry() noexcept { return registry_; }
    [[nodiscard]] const store_registry& registry() const noexcept { return registry_; }

    [[nodiscard]] std::size_t num_backends() const noexcept { return backends_.size(); }

    /// Backend \p k: the `api::server` holding that backend's service and
    /// result cache (its stats, cache stats, `backing_service()`). The
    /// fleet calls its `probe`, `run` and service directly; sessions opened
    /// on it bypass the fleet's routing and retries.
    /// \throws std::out_of_range on a bad index.
    [[nodiscard]] api::server& backend(std::size_t k);

    /// Fleet-health counters and per-backend breaker states.
    [[nodiscard]] health_snapshot health() const;

private:
    struct routing;

    static void start_attempt(const std::shared_ptr<session::state>& st, std::uint64_t corr,
                              std::shared_ptr<const data::building> b,
                              std::optional<std::uint64_t> content_hash, std::size_t index,
                              bool no_cache, std::string resident = {});
    static void dispatch_attempt(const std::shared_ptr<session::state>& st,
                                 std::uint64_t attempt_id);
    static void expire_attempt(const std::shared_ptr<session::state>& st,
                               std::uint64_t attempt_id);
    static void retry_or_fail(const std::shared_ptr<session::state>& st,
                              std::uint64_t attempt_id, std::size_t failed_backend,
                              api::error_code code, const std::string& message);

    federation_config cfg_;
    store_registry registry_;
    /// Shared with sessions so routing state outlives a dropped handle.
    std::shared_ptr<routing> routing_;
    /// Shared with sessions and backend jobs' report callbacks (they may
    /// outlive the server's own pointer during teardown). The destructor
    /// stops its watchdog after `backends_` drain, so the watchdog outlives
    /// draining jobs and never runs the last fleet_health release itself.
    std::shared_ptr<fleet_health> health_;
    /// Name → (global index, content hash) for `identify_resident`, over
    /// per-building reads of the mounted stores; it holds no building.
    /// Shared with every session; each successful append drops the names
    /// it touched.
    std::shared_ptr<resident_directory> residents_;
    /// Standing `watch` subscriptions, shared with every session. Entries
    /// expire with their connection's emitter, so no teardown ordering
    /// matters beyond outliving the sessions (shared ownership handles it).
    std::shared_ptr<watch_registry> watches_;
    /// Backend teardown (which waits for in-flight jobs whose callbacks may
    /// still consult fleet state) must run while everything above is
    /// alive — only `ingest_`, which needs the fleet to answer its
    /// in-flight re-runs, is destroyed earlier.
    std::vector<std::unique_ptr<api::server>> backends_;
    /// The live-ingestion engine; null when no stores are mounted at
    /// construction. Declared after `backends_` so it is destroyed FIRST:
    /// its destructor drains queued appends and waits out every in-flight
    /// re-run while the fleet is still alive to answer them.
    std::shared_ptr<ingest::ingest_manager> ingest_;
};

}  // namespace fisone::federation
