#include "federated_server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <istream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "api/codec.hpp"
#include "ingest/ingest_manager.hpp"
#include "obs/trace.hpp"
#include "resident_directory.hpp"
#include "util/hash.hpp"
#include "watch_registry.hpp"

namespace fisone::federation {

namespace {

/// Stable affinity identity of a shard request: a canonical hash of its
/// path, so resubmitting the same shard lands on the same backend.
std::uint64_t shard_affinity(const service::shard_ref& ref) noexcept {
    util::fnv1a64 h;
    h.str(ref.path);
    return h.digest();
}

}  // namespace

service::service_stats merge_backend_stats(
    const std::vector<service::service_snapshot>& backends) {
    service::service_stats merged;
    obs::latency_histogram pooled;
    for (const service::service_snapshot& b : backends) {
        for (const service::stat_field& f : service::k_service_stat_fields)
            if (f.kind != service::stat_kind::latency) merged.*f.count += b.stats.*f.count;
        pooled.merge(b.latencies);
    }
    // Percentiles come from the pooled observations, never from averaging
    // the per-backend percentiles (which answers a different question).
    merged.latency = obs::summarize(pooled);
    return merged;
}

/// Shared routing state: one cursor/counter namespace per server, shared by
/// every session (and outliving dropped handles).
struct federated_server::routing {
    routing(routing_policy policy, std::size_t num_backends) : rt(policy, num_backends) {}

    std::mutex m;  ///< guards `rt` and `next_index`
    router rt;
    /// Front-end corpus-index counter — the ONE assignment authority for
    /// auto-indexed buildings, mirroring `floor_service`'s own counter so
    /// a federated campaign assigns exactly the indices (and thus seeds) a
    /// single service would.
    std::size_t next_index = 0;

    std::size_t allocate_index() {
        const std::lock_guard<std::mutex> lock(m);
        return next_index++;
    }

    void advance_index(std::size_t end) {
        const std::lock_guard<std::mutex> lock(m);
        if (end > next_index) next_index = end;
    }

    std::size_t route(std::uint64_t affinity, const std::vector<backend_probe>& probes) {
        const std::lock_guard<std::mutex> lock(m);
        return rt.route(affinity, probes);
    }
};

// Named (not anonymous) so session::state — an external-linkage type — may
// hold it without GCC's -Wsubobject-linkage firing.
namespace detail {

/// One in-flight building request. Lives in the tracker map
/// from submission until its final answer (success, genuine failure, or
/// typed error) — a scheduled-but-not-yet-dispatched retry re-keys the
/// entry under a fresh attempt id, so the map is never empty while the
/// client still awaits a response (the drain barrier waits on exactly
/// that).
struct attempt {
    std::uint64_t client_corr = 0;
    /// Null for a resident building until a try reads it (a cache hit
    /// never does); kept from then on, for the retries.
    std::shared_ptr<const data::building> b;
    std::string resident;  ///< the name a resident building is read by
    /// `data::content_hash(*b)`, computed once: the router's affinity key
    /// and the backend's cache key on every try. A resident building's read
    /// replaces it with the hash of the building it read.
    std::uint64_t content_hash = 0;
    std::size_t index = 0;        ///< pinned: every retry reruns the same task
    bool no_cache = false;
    std::size_t backend = 0;      ///< backend of the current dispatch
    std::size_t last_failed = 0;  ///< backend the previous try failed on (retries only)
    std::size_t tries = 0;        ///< dispatches so far
    /// The current dispatch's backend job; empty before dispatch, after a
    /// cache hit, and once a failed try is re-keyed.
    service::floor_service::job job;
    /// Set while the final response is being delivered: competing
    /// resolution paths (a late timeout racing the answer) back off, and
    /// the drain barrier keeps waiting until delivery completes.
    bool resolving = false;
    obs::trace_context trace{};   ///< submitter's trace position (for retry spans)
};

/// The building requests one session has in flight. Attempt ids are internal:
/// they key this map and the report callbacks of backend jobs, and never
/// reach the wire, so every client correlation id stays usable.
struct attempt_tracker {
    std::mutex m;
    std::condition_variable cv;  ///< notified whenever an attempt resolves
    std::unordered_map<std::uint64_t, attempt> attempts;  ///< by attempt id
    /// Client correlation id → current attempt id (the `cancel_job`
    /// namespace of building requests). Resubmitting under an id re-points
    /// it.
    std::unordered_map<std::uint64_t, std::uint64_t> attempt_by_client;
    std::uint64_t next_id = 0;

    std::uint64_t mint() { return next_id++; }

    /// Drop the resolved attempt \p id (and its client alias).
    void erase(std::uint64_t id) {
        const auto it = attempts.find(id);
        if (it == attempts.end()) return;
        const auto alias = attempt_by_client.find(it->second.client_corr);
        if (alias != attempt_by_client.end() && alias->second == id)
            attempt_by_client.erase(alias);
        attempts.erase(it);
    }
};

/// The response channel of one federated connection. Kept separate from the
/// session state on purpose: backend jobs' report callbacks hold it alive
/// while they are in flight, and pointing them at the session state instead
/// would cycle session → job table → job → callback → session.
struct emitter {
    federated_server::response_sink sink;
    std::mutex m;  ///< serialises sink calls across every backend's workers
    bool broken = false;

    /// Encode one response and hand it, with its frame, to the sink. A
    /// sink that throws marks the transport broken; later responses are
    /// dropped silently.
    void respond(const api::response& resp) { deliver(resp, api::encode(resp), nullptr); }

    /// Answer a building under the client's id \p corr. A cache hit
    /// encodes only its head; the sink gets the shared entry for the rest.
    void answer(std::uint64_t corr, api::building_answer a) {
        const api::response resp{api::building_response{corr, std::move(a.report)}};
        if (!a.cached) return respond(resp);
        const auto& head = std::get<api::building_response>(resp).report;
        deliver(resp, api::encode_building_head(corr, head, a.cached->tail.size()), a.cached);
    }

    void deliver(const api::response& resp, const std::string& frame,
                 const std::shared_ptr<const api::cached_report>& cached) {
        const std::lock_guard<std::mutex> lock(m);
        if (broken) return;
        try {
            sink(resp, frame, cached);
        } catch (...) {
            broken = true;
        }
    }
};

}  // namespace detail

/// Per-connection state: the attempt tracker building requests live in,
/// and the job table shard jobs live in — together the `cancel_job`
/// namespace.
struct federated_server::session::state {
    std::shared_ptr<detail::emitter> out;
    federated_server* fleet = nullptr;
    std::shared_ptr<federated_server::routing> routing;
    /// The tracker is shared with backend jobs' report callbacks;
    /// fleet_health is shared with the server (its watchdog must outlive
    /// every scheduled retry).
    std::shared_ptr<detail::attempt_tracker> tracker;
    std::shared_ptr<fleet_health> health;
    /// Live ingestion: the append engine (null when the fleet has no
    /// stores — and always null on the manager's own internal session, or
    /// manager → session → manager would cycle) and the fleet-wide watch
    /// registry.
    std::shared_ptr<ingest::ingest_manager> ingest;
    std::shared_ptr<watch_registry> watches;
    std::shared_ptr<resident_directory> residents;

    /// Shard jobs by client correlation id.
    api::job_table jobs;

    [[nodiscard]] api::server& backend(std::size_t k) const { return *fleet->backends_[k]; }

    /// Probe every backend's load and breaker state for the router.
    [[nodiscard]] std::vector<backend_probe> probe() const {
        std::vector<backend_probe> probes(fleet->backends_.size());
        const std::vector<bool> mask = health->unavailable_mask();
        for (std::size_t k = 0; k < probes.size(); ++k) {
            const service::floor_service& svc = backend(k).backing_service();
            probes[k] = backend_probe{svc.pending_jobs(), svc.paused(), mask[k]};
        }
        return probes;
    }

    /// Drain barrier: the ingest manager idle (appends queued before the
    /// barrier landed, their dirty re-runs answered), every backend
    /// finished, AND every attempt resolved. Ingest first — its
    /// re-runs create the backend work the rest of the barrier waits on.
    /// Loops because a scheduled retry may submit new backend work after a
    /// round of finishes.
    void drain() {
        if (ingest) ingest->wait_idle();
        for (;;) {
            for (const std::unique_ptr<api::server>& b : fleet->backends_)
                b->backing_service().wait_all();
            std::unique_lock<std::mutex> lock(tracker->m);
            if (tracker->attempts.empty()) return;
            tracker->cv.wait_for(lock, std::chrono::milliseconds(20));
        }
    }
};

// --- building dispatch ------------------------------------------------------

/// (Re)dispatch attempt \p attempt_id: route it (avoiding the
/// backend it last failed on and every circuit-broken backend — though
/// when nothing is available the natural choice still gets the work, so
/// a single-backend fleet keeps retrying toward exhaustion rather than
/// failing early), probe that backend's cache, and on a miss hand the
/// building to its `run` and arm the deadline. A resident building not yet
/// read is read here, after the probe missed. Runs on the submitting
/// thread for the first try and on the fleet_health watchdog for retries —
/// never inside a completion callback.
void federated_server::dispatch_attempt(const std::shared_ptr<session::state>& st,
                                        std::uint64_t attempt_id) {
    detail::attempt_tracker& tr = *st->tracker;
    fleet_health& health = *st->health;

    std::shared_ptr<const data::building> b;
    std::string resident;
    std::uint64_t client = 0;
    std::uint64_t content_hash = 0;
    std::size_t index = 0;
    bool no_cache = false;
    std::size_t last_failed = 0;
    std::size_t tries = 0;
    obs::trace_context trace;
    {
        const std::lock_guard<std::mutex> lock(tr.m);
        const auto it = tr.attempts.find(attempt_id);
        if (it == tr.attempts.end()) return;  // resolved while queued
        detail::attempt& a = it->second;
        ++a.tries;
        tries = a.tries;
        b = a.b;
        if (!b) resident = a.resident;
        client = a.client_corr;
        content_hash = a.content_hash;
        index = a.index;
        no_cache = a.no_cache;
        last_failed = a.last_failed;
        trace = a.trace;
    }

    std::size_t k = 0;
    if (tries == 1) {
        obs::scoped_span route_span("federation.route");
        k = st->routing->route(content_hash, st->probe());
    } else {
        // A retry runs on the watchdog, outside any span: record its route
        // under the submitter's trace rather than rooting a new one.
        const std::uint64_t start = obs::now_ns();
        std::vector<backend_probe> probes = st->probe();
        if (last_failed < probes.size()) probes[last_failed].broken = true;
        k = st->routing->route(content_hash, probes);
        const std::uint64_t now = obs::now_ns();
        obs::emit_child_span("federation.route", trace, start, now);
        health.count_retry();
        obs::emit_child_span("federation.retry", trace, now, now);
        if (k != last_failed) {
            health.count_failover();
            obs::emit_child_span("federation.failover", trace, now, now);
        }
    }
    health.note_routed(k);
    {
        const std::lock_guard<std::mutex> lock(tr.m);
        const auto it = tr.attempts.find(attempt_id);
        if (it == tr.attempts.end()) return;
        it->second.backend = k;
    }

    // The report callback holds the session state only weakly (the state
    // owns the tracker, which owns this job); the tracker, fleet_health and
    // emitter are co-owned, so reports that arrive after the session handle
    // died still resolve or fail the attempt.
    std::weak_ptr<session::state> w = st;
    api::server::report_sink on_report = [w, out = st->out, tracker = st->tracker,
                                          health = st->health,
                                          attempt_id](api::building_answer answer) {
        std::size_t backend = 0;
        std::uint64_t client = 0;
        bool transient = false;
        {
            const std::lock_guard<std::mutex> lock(tracker->m);
            const auto it = tracker->attempts.find(attempt_id);
            // A report from an attempt already resolved or re-keyed (a
            // timed-out try answering late, or the cancelled straggler) is
            // stale: the client has its answer or will get it from the
            // retry in flight.
            if (it == tracker->attempts.end() || it->second.resolving) return;
            backend = it->second.backend;
            client = it->second.client_corr;
            transient = !answer.report.ok && service::is_transient_fault(answer.report.error);
            if (!transient) it->second.resolving = true;  // claim: delivery is final
        }
        if (!transient) {
            // Success — or a genuine, deterministic failure the retry
            // layer must NOT rerun.
            health->on_success(backend);
            out->answer(client, std::move(answer));
            {
                const std::lock_guard<std::mutex> lock(tracker->m);
                tracker->erase(attempt_id);
            }
            tracker->cv.notify_all();
            return;
        }
        health->on_failure(backend);
        if (const std::shared_ptr<session::state> s = w.lock()) {
            retry_or_fail(s, attempt_id, backend, api::error_code::backend_unavailable,
                          "backend kept failing transiently");
            return;
        }
        // Session gone: nothing can re-dispatch — fail it now so the
        // tracker drains.
        {
            const std::lock_guard<std::mutex> lock(tracker->m);
            tracker->erase(attempt_id);
        }
        health->count_backend_unavailable();
        out->respond(api::error_response{client, api::error_code::backend_unavailable,
                                         "backend failed and the session is gone"});
        tracker->cv.notify_all();
    };
    api::server& backend = st->backend(k);
    // A hit answers inline.
    if (!no_cache && backend.probe(content_hash, index, on_report)) return;
    if (!b) {
        // The probe missed, or the request is `fresh`: read the resident
        // building now, and run it under the hash of what was read, so an
        // append that landed since the resolve keys the cache on the
        // post-append building.
        std::optional<resident_directory::hit> read;
        std::string failure;
        try {
            read = st->residents->read(resident);
        } catch (const std::exception& e) {
            failure = e.what();
        }
        if (!read) {
            // A store that lost the name or failed the read. The attempt
            // has no job yet, so nothing else can resolve it.
            st->out->respond(api::error_response{
                client, api::error_code::bad_request,
                "identify_resident: cannot read '" + resident + "' from the mounted stores" +
                    (failure.empty() ? "" : ": " + failure)});
            {
                const std::lock_guard<std::mutex> lock(tr.m);
                tr.erase(attempt_id);
            }
            tr.cv.notify_all();
            return;
        }
        b = std::move(read->b);
        content_hash = read->content_hash;
        const std::lock_guard<std::mutex> lock(tr.m);
        const auto it = tr.attempts.find(attempt_id);
        if (it == tr.attempts.end()) return;
        it->second.b = b;
        it->second.content_hash = content_hash;
    }
    service::floor_service::job job;
    try {
        job = backend.run(*b, content_hash, index, no_cache, std::move(on_report));
    } catch (const std::exception& e) {
        // Submit-time crash: no backend job exists, no report will come.
        health.on_failure(k);
        retry_or_fail(st, attempt_id, k, api::error_code::backend_unavailable,
                      std::string("backend crashed on submit: ") + e.what());
        return;
    }
    {
        const std::lock_guard<std::mutex> lock(tr.m);
        const auto it = tr.attempts.find(attempt_id);
        if (it == tr.attempts.end()) return;  // already answered
        it->second.job = job;
    }
    if (health.config().request_timeout.count() > 0) {
        health.schedule(fleet_health::clock::now() + health.config().request_timeout,
                        [w, attempt_id] {
                            if (const std::shared_ptr<session::state> s = w.lock())
                                expire_attempt(s, attempt_id);
                        });
    }
}

/// Resolve a failed try of \p attempt_id: either re-key it under a fresh
/// attempt id and schedule the backoff retry, or — attempts exhausted —
/// answer the client with the typed error \p code.
void federated_server::retry_or_fail(const std::shared_ptr<session::state>& st,
                                     std::uint64_t attempt_id, std::size_t failed_backend,
                                     api::error_code code, const std::string& message) {
    detail::attempt_tracker& tr = *st->tracker;
    fleet_health& health = *st->health;

    std::uint64_t client = 0;
    std::uint64_t new_id = 0;
    bool exhausted = false;
    std::size_t tries = 0;
    {
        const std::lock_guard<std::mutex> lock(tr.m);
        const auto it = tr.attempts.find(attempt_id);
        if (it == tr.attempts.end() || it->second.resolving) return;  // already resolved
        tries = it->second.tries;
        client = it->second.client_corr;
        if (tries >= health.config().max_attempts) {
            exhausted = true;
            it->second.resolving = true;  // claimed: the error below is final
        } else {
            // Re-key now (not at dispatch time): the map must stay
            // non-empty while the client awaits an answer, or the drain
            // barrier would return with a retry still scheduled. A late
            // report for the old id finds nothing and is dropped as stale.
            detail::attempt a = std::move(it->second);
            tr.attempts.erase(it);
            a.last_failed = failed_backend;
            a.job = {};  // the failed try is no longer the cancel target
            new_id = tr.mint();
            const auto alias = tr.attempt_by_client.find(a.client_corr);
            if (alias != tr.attempt_by_client.end() && alias->second == attempt_id)
                alias->second = new_id;
            tr.attempts.emplace(new_id, std::move(a));
        }
    }
    if (exhausted) {
        if (code == api::error_code::deadline_exceeded)
            health.count_deadline_exceeded();
        else
            health.count_backend_unavailable();
        st->out->respond(api::error_response{
            client, code, message + " (after " + std::to_string(tries) + " attempts)"});
        {
            const std::lock_guard<std::mutex> lock(tr.m);
            tr.erase(attempt_id);
        }
        tr.cv.notify_all();
        return;
    }
    std::weak_ptr<session::state> w = st;
    health.schedule_after(health.backoff(tries), [w, new_id] {
        if (const std::shared_ptr<session::state> s = w.lock()) dispatch_attempt(s, new_id);
    });
}

/// Deadline expiry of \p attempt_id (watchdog timer). Claims the attempt
/// first, then cancels the straggler job — in that order, so the job's
/// "cancelled" report arrives under an id no longer tracked and is
/// dropped as stale instead of reaching the client as a cancelled result.
void federated_server::expire_attempt(const std::shared_ptr<session::state>& st,
                                      std::uint64_t attempt_id) {
    detail::attempt_tracker& tr = *st->tracker;
    std::size_t backend = 0;
    service::floor_service::job job;
    {
        const std::lock_guard<std::mutex> lock(tr.m);
        const auto it = tr.attempts.find(attempt_id);
        if (it == tr.attempts.end() || it->second.resolving) return;  // answered in time
        backend = it->second.backend;
        job = it->second.job;
    }
    st->health->on_failure(backend);
    retry_or_fail(st, attempt_id, backend, api::error_code::deadline_exceeded,
                  "deadline exceeded after " +
                      std::to_string(st->health->config().request_timeout.count()) + " ms");
    // Cancel the hung job so its worker stops burning the deadline's budget.
    if (job.valid()) job.cancel();
}

/// Register a building request as a fresh attempt and dispatch it. The
/// index is already pinned: the identity must survive failover — every
/// retry reruns the SAME task. \p content_hash is the building's one hash
/// for the whole request: a resident building brings its directory entry's
/// hash, an ingest re-run the hash its dirty check computed; a
/// client-supplied one passes nullopt and is hashed here. A resident
/// building passes \p resident, its name, and \p b only when its resolve
/// just read it; with \p b null the dispatch reads it on a cache miss.
void federated_server::start_attempt(const std::shared_ptr<session::state>& st,
                                     std::uint64_t corr,
                                     std::shared_ptr<const data::building> b,
                                     std::optional<std::uint64_t> content_hash,
                                     std::size_t index, bool no_cache, std::string resident) {
    detail::attempt a;
    a.client_corr = corr;
    a.content_hash = content_hash ? *content_hash : data::content_hash(*b);
    a.b = std::move(b);
    a.resident = std::move(resident);
    a.index = index;
    a.no_cache = no_cache;
    a.trace = obs::current_context();
    std::uint64_t id = 0;
    {
        const std::lock_guard<std::mutex> lock(st->tracker->m);
        id = st->tracker->mint();
        st->tracker->attempts.emplace(id, std::move(a));
        st->tracker->attempt_by_client[corr] = id;
    }
    dispatch_attempt(st, id);
}

void federated_server::session::handle(const api::request& req) {
    const std::shared_ptr<state> st = state_;
    std::visit(
        [&](const auto& m) {
            using T = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<T, api::identify_building_request>) {
                obs::scoped_span span("federation.dispatch");
                // The front-end is the one index-assignment authority: pin
                // the global index before the hop, so the backend (and its
                // cache key) sees the identity a single service would assign.
                std::size_t index = 0;
                if (m.has_index) {
                    index = static_cast<std::size_t>(m.corpus_index);
                    st->routing->advance_index(index + 1);
                } else {
                    index = st->routing->allocate_index();
                }
                start_attempt(st, m.correlation_id, std::make_shared<const data::building>(m.b),
                              std::nullopt, index, m.no_cache);
            } else if constexpr (std::is_same_v<T, api::identify_shard_request>) {
                obs::scoped_span span("federation.dispatch");
                // Per-store confinement: only paths inside a mounted store
                // are servable — an empty registry serves nothing.
                const store_registry& registry = st->fleet->registry_;
                if (!registry.shard_allowed(m.ref.path)) {
                    st->out->respond(api::error_response{
                        m.correlation_id, api::error_code::bad_request,
                        registry.num_stores() == 0
                            ? "no corpus stores mounted: " + m.ref.path
                            : "shard path outside every mounted store: " + m.ref.path});
                    return;
                }
                st->routing->advance_index(m.ref.first_index + m.ref.num_buildings);
                const auto submit = [&](std::size_t k) {
                    obs::scoped_span identify_span("api.identify");
                    st->jobs.remember(
                        m.correlation_id,
                        st->backend(k).backing_service().submit(
                            m.ref, [out = st->out, corr = m.correlation_id](
                                       const runtime::building_report& report) {
                                out->respond(api::building_response{corr, report});
                            }));
                };
                // Shards fail over only on submit-time crashes: once a
                // backend accepts the stream it may have answered some
                // buildings, and resubmission would duplicate them. The loop
                // is synchronous (submission is cheap — it only enqueues),
                // rerouting around each crashed backend.
                std::vector<backend_probe> probes = st->probe();
                const std::size_t max_tries =
                    std::min(st->health->config().max_attempts, probes.size());
                std::size_t prev = probes.size();
                for (std::size_t t = 0; t < max_tries; ++t) {
                    const std::size_t k = [&] {
                        obs::scoped_span route_span("federation.route");
                        return st->routing->route(shard_affinity(m.ref), probes);
                    }();
                    if (t > 0) {
                        st->health->count_retry();
                        if (k != prev) st->health->count_failover();
                    }
                    try {
                        submit(k);
                        st->health->on_success(k);
                        return;
                    } catch (const std::exception&) {
                        st->health->on_failure(k);
                        probes[k].broken = true;  // reroute away from it
                        prev = k;
                    }
                }
                st->health->count_backend_unavailable();
                st->out->respond(api::error_response{
                    m.correlation_id, api::error_code::backend_unavailable,
                    "every backend crashed on shard submit: " + m.ref.path});
            } else if constexpr (std::is_same_v<T, api::get_stats_request>) {
                st->out->respond(api::stats_response{m.correlation_id, st->fleet->stats()});
            } else if constexpr (std::is_same_v<T, api::append_scans_request>) {
                obs::scoped_span span("federation.dispatch");
                if (!st->ingest) {
                    st->out->respond(api::error_response{
                        m.correlation_id, api::error_code::bad_request,
                        "append_scans needs a store-backed fleet (no corpus stores "
                        "mounted at construction)"});
                    return;
                }
                // Ack from the ingest worker, after the advanced manifest
                // was written then renamed into place, not fsynced (or the
                // batch was refused). The emitter
                // is captured shared: the ack must deliver even if this
                // session handle is dropped meanwhile.
                // The resident directory learns of the append before the
                // client does, so a read sent after the ack sees it.
                const std::uint64_t corr = m.correlation_id;
                const std::shared_ptr<detail::emitter> out = st->out;
                const std::shared_ptr<resident_directory> residents = st->residents;
                st->ingest->enqueue_append(
                    m.corpus_name, m.records,
                    [out, corr, residents, corpus = m.corpus_name](const ingest::append_ack& ack) {
                        if (ack.error.empty()) {
                            residents->on_append(corpus, ack.touched);
                            out->respond(api::append_response{corr, ack.version, ack.accepted,
                                                              ack.dirty});
                        } else {
                            out->respond(api::error_response{
                                corr, api::error_code::bad_request, ack.error});
                        }
                    });
            } else if constexpr (std::is_same_v<T, api::watch_request>) {
                // One subscription per (building, connection); the emitter
                // pointer is the connection's identity. Entries hold the
                // emitter weakly — closing the connection unsubscribes by
                // expiry.
                const auto token =
                    static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(st->out.get()));
                bool active = false;
                if (m.subscribe) {
                    std::weak_ptr<detail::emitter> w = st->out;
                    st->watches->subscribe(m.name, token, m.correlation_id,
                                           std::weak_ptr<void>(st->out),
                                           [w](const api::response& resp) {
                                               if (const auto out_ = w.lock())
                                                   out_->respond(resp);
                                           });
                    active = true;
                } else {
                    st->watches->unsubscribe(m.name, token);
                }
                st->out->respond(api::watch_ack_response{m.correlation_id, active});
            } else if constexpr (std::is_same_v<T, api::identify_resident_request>) {
                // Resolve the name against the mounted stores, then dispatch
                // as a pinned identify_building: resident requests ride the
                // exact routing/retry path client-supplied buildings do. A
                // known name brings only its hash; the building is read
                // only if the backend's cache cannot answer.
                if (st->fleet->registry_.num_stores() == 0) {
                    st->out->respond(api::error_response{
                        m.correlation_id, api::error_code::bad_request,
                        "identify_resident: no corpus stores mounted"});
                    return;
                }
                const auto hit = st->residents->resolve(m.name);
                if (!hit) {
                    st->out->respond(api::error_response{
                        m.correlation_id, api::error_code::bad_request,
                        "identify_resident: no mounted store holds a building named '" +
                            m.name + "'"});
                    return;
                }
                obs::scoped_span span("federation.dispatch");
                st->routing->advance_index(hit->global_index + 1);
                start_attempt(st, m.correlation_id, hit->b, hit->content_hash, hit->global_index,
                              m.fresh, m.name);
            } else if constexpr (std::is_same_v<T, api::subscribe_stats_request>) {
                st->out->respond(api::error_response{
                    m.correlation_id, api::error_code::bad_request,
                    "subscribe_stats: telemetry windows live at the TCP front door "
                    "(connect through serve_tcp to stream stats)"});
            } else if constexpr (std::is_same_v<T, api::cancel_job_request>) {
                // A live building is cancelled through its current attempt's
                // job; everything else (shard jobs, unknown targets) through
                // the job table.
                service::floor_service::job job;
                {
                    const std::lock_guard<std::mutex> lock(st->tracker->m);
                    const auto alias =
                        st->tracker->attempt_by_client.find(m.target_correlation_id);
                    if (alias != st->tracker->attempt_by_client.end()) {
                        const auto at = st->tracker->attempts.find(alias->second);
                        if (at != st->tracker->attempts.end() && !at->second.resolving)
                            job = at->second.job;
                    }
                }
                const bool accepted =
                    job.valid() ? job.cancel() : st->jobs.cancel(m.target_correlation_id);
                st->out->respond(
                    api::cancel_response{m.correlation_id, m.target_correlation_id, accepted});
            } else {
                static_assert(std::is_same_v<T, api::flush_request>);
                // Fan-out barrier: every backend drains — and every
                // attempt resolves (retries included) — before the one
                // flush_response. (Flush on a paused fleet
                // throws, exactly as floor_service::wait_all refuses to
                // deadlock.)
                st->drain();
                st->jobs.prune();
                st->out->respond(api::flush_response{m.correlation_id});
            }
        },
        req);
}

bool federated_server::session::handle_frame(std::string_view frame) {
    const api::decode_result<api::request> decoded = api::decode_request(frame);
    if (decoded.eof) return true;
    if (decoded.error) {
        state_->out->respond(
            api::error_response{0, decoded.error->code, decoded.error->message});
        return !decoded.fatal;
    }
    handle(*decoded.value);
    return true;
}

void federated_server::session::finish() { state_->drain(); }

bool federated_server::session::sink_broken() const {
    const std::lock_guard<std::mutex> lock(state_->out->m);
    return state_->out->broken;
}

federated_server::federated_server(federation_config cfg) : cfg_(std::move(cfg)) {
    if (cfg_.num_backends == 0)
        throw std::invalid_argument("federated_server: num_backends must be >= 1");
    if (!cfg_.fault_plans.empty() && cfg_.fault_plans.size() != cfg_.num_backends)
        throw std::invalid_argument("federated_server: " +
                                    std::to_string(cfg_.fault_plans.size()) +
                                    " fault plans for " + std::to_string(cfg_.num_backends) +
                                    " backends");
    health_ = std::make_shared<fleet_health>(cfg_.fault_tolerance, cfg_.num_backends);
    routing_ = std::make_shared<routing>(cfg_.policy, cfg_.num_backends);
    for (const std::string& dir : cfg_.store_dirs) static_cast<void>(registry_.mount(dir));
    backends_.reserve(cfg_.num_backends);
    for (std::size_t k = 0; k < cfg_.num_backends; ++k) {
        api::server_config bc;
        bc.service = cfg_.service;
        if (!cfg_.fault_plans.empty()) bc.service.faults = cfg_.fault_plans[k];
        bc.enable_cache = cfg_.enable_cache;
        bc.cache_capacity = cfg_.cache_capacity;
        if (!cfg_.cache_dir.empty())
            bc.cache_spill = api::cache_spill_config{cfg_.cache_dir, cfg_.num_backends, k};
        // Backends trust their paths: the front-end already confined every
        // shard request to the mounted stores.
        bc.shard_root.clear();
        backends_.push_back(std::make_unique<api::server>(std::move(bc)));
    }
    watches_ = std::make_shared<watch_registry>();
    residents_ = std::make_shared<resident_directory>(registry_);
    if (registry_.num_stores() > 0) {
        std::vector<ingest::store_binding> bindings;
        bindings.reserve(registry_.num_stores());
        for (std::size_t s = 0; s < registry_.num_stores(); ++s) {
            ingest::store_binding b;
            b.dir = registry_.store(s).directory();
            b.corpus_name = registry_.store(s).manifest().corpus_name;
            b.base_offset = registry_.store_offset(s);
            // The store-owning backend's drills govern its ingest path:
            // store k belongs to backend k mod fleet size.
            if (!cfg_.fault_plans.empty()) b.faults = cfg_.fault_plans[s % cfg_.num_backends];
            bindings.push_back(std::move(b));
        }
        // The manager's re-runs go through an internal session, so they
        // ride the retry/failover/deadline path exactly as client work
        // does. Opened BEFORE `ingest_` exists, so its state's
        // `ingest` pointer stays null — the manager must not own a session
        // that owns the manager. The bridge breaks the remaining knot: the
        // session's sink needs the manager, the manager needs the session.
        // It is the fleet's one typed reader of results: an ok re-run
        // arrives as a head plus the shared cache entry (it filled the
        // cache, or was answered from it), whose result exists only as the
        // entry's encoded tail, so the manager gets the whole report
        // decoded from the head's frame joined to the tail.
        auto bridge = std::make_shared<std::weak_ptr<ingest::ingest_manager>>();
        const session internal =
            open([bridge](const api::response& resp, std::string_view frame,
                          const std::shared_ptr<const api::cached_report>& cached) {
                const std::shared_ptr<ingest::ingest_manager> mgr = bridge->lock();
                if (!mgr) return;
                if (const auto* br = std::get_if<api::building_response>(&resp)) {
                    if (!cached) return mgr->on_reindex_result(br->correlation_id, &br->report);
                    std::string whole(frame);
                    whole += cached->tail;
                    const api::decode_result<api::response> decoded = api::decode_response(whole);
                    const auto* full = decoded.value
                                           ? std::get_if<api::building_response>(&*decoded.value)
                                           : nullptr;
                    mgr->on_reindex_result(br->correlation_id, full ? &full->report : nullptr);
                } else if (const auto* er = std::get_if<api::error_response>(&resp)) {
                    mgr->on_reindex_result(er->correlation_id, nullptr);
                }
            });
        std::shared_ptr<watch_registry> watches = watches_;
        ingest_ = std::make_shared<ingest::ingest_manager>(
            std::move(bindings),
            // A re-run takes the pinned path resident requests take, with
            // the hash the dirty check already computed.
            [st = internal.state_](std::uint64_t corr, std::size_t index, data::building b,
                                   std::uint64_t content_hash) {
                obs::scoped_span span("federation.dispatch");
                st->routing->advance_index(index + 1);
                start_attempt(st, corr, std::make_shared<const data::building>(std::move(b)),
                              content_hash, index, /*no_cache=*/false);
            },
            [watches](const std::string& name, std::uint64_t version,
                      const runtime::building_report& report) {
                watches->publish(name, version, report);
            });
        *bridge = ingest_;
    }
}

federated_server::~federated_server() {
    // The members' own reverse-declaration order, spelled out so the
    // watchdog stops after the backends drain (their jobs' callbacks may
    // still schedule retries and deadlines) and before the server drops
    // its fleet_health reference: a watchdog action can hold the last
    // session, and with it the last other reference to fleet_health.
    ingest_.reset();
    backends_.clear();
    health_->stop();
}

federated_server::session federated_server::open(frame_sink sink) {
    return open([sink = std::move(sink)](const api::response&, std::string_view frame,
                                         const std::shared_ptr<const api::cached_report>& cached) {
        if (!cached) return sink(frame);
        std::string whole(frame);  // a cache hit: head, then the entry's tail
        whole += cached->tail;
        sink(whole);
    });
}

federated_server::session federated_server::open(response_sink sink) {
    auto st = std::make_shared<session::state>();
    st->out = std::make_shared<detail::emitter>();
    st->out->sink = std::move(sink);
    st->fleet = this;
    st->routing = routing_;
    st->ingest = ingest_;  // still null while the internal session opens
    st->watches = watches_;
    st->residents = residents_;
    st->health = health_;
    st->tracker = std::make_shared<detail::attempt_tracker>();
    return session(std::move(st));
}

void federated_server::serve(std::istream& in, std::ostream& out) {
    session s = open([&out](std::string_view frame) {
        out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
        if (!out) throw std::ios_base::failure("federated_server: response stream went bad");
        out.flush();
    });
    try {
        for (;;) {
            const api::decode_result<api::request> r = api::read_request(in);
            if (r.eof) break;
            if (r.error) {
                s.state_->out->respond(
                    api::error_response{0, r.error->code, r.error->message});
                if (r.fatal) break;
                continue;
            }
            s.handle(*r.value);
            if (s.sink_broken()) break;
        }
    } catch (...) {
        // Same contract as api::server::serve: never unwind with jobs in
        // flight (their sinks write to `out`). The in-protocol throw is
        // flush-while-paused, so release every gate, drain, then rethrow.
        resume();
        s.finish();
        throw;
    }
    s.finish();
}

service::service_stats federated_server::stats() const {
    std::vector<service::service_snapshot> snapshots;
    snapshots.reserve(backends_.size());
    for (const std::unique_ptr<api::server>& b : backends_) snapshots.push_back(b->snapshot());
    service::service_stats s = merge_backend_stats(snapshots);
    if (ingest_) {
        s.ingest_appends = static_cast<std::size_t>(ingest_->appends_total());
        s.ingest_dirty_buildings = static_cast<std::size_t>(ingest_->dirty_total());
    }
    s.watch_subscribers = watches_->live_count();
    return s;
}

void federated_server::pause() {
    for (const std::unique_ptr<api::server>& b : backends_) b->backing_service().pause();
}

void federated_server::resume() {
    for (const std::unique_ptr<api::server>& b : backends_) b->backing_service().resume();
}

health_snapshot federated_server::health() const { return health_->snapshot(); }

api::server& federated_server::backend(std::size_t k) {
    if (k >= backends_.size())
        throw std::out_of_range("federated_server: backend " + std::to_string(k) + " of " +
                                std::to_string(backends_.size()));
    return *backends_[k];
}

}  // namespace fisone::federation
