#include "server.hpp"

#include <chrono>
#include <istream>
#include <mutex>
#include <ostream>
#include <type_traits>
#include <utility>

#include "codec.hpp"
#include "core/fis_one.hpp"
#include "obs/trace.hpp"
#include "runtime/task_executor.hpp"
#include "util/path.hpp"

namespace fisone::api {

namespace {

using clock = std::chrono::steady_clock;

/// Slots of `server::task_fingerprint`'s memo: more than a working set of
/// corpus indices, and a few tens of kilobytes.
constexpr std::size_t k_fingerprint_slots = 1024;

/// A building's answer from a cache entry: the head fields of \p entry's
/// report under \p index and \p seconds, the entry itself for the rest.
building_answer answer_from(std::shared_ptr<const cached_report> entry, std::size_t index,
                            double seconds) {
    building_answer a;
    a.report.index = index;
    a.report.name = entry->head.name;
    a.report.ok = entry->head.ok;
    a.report.error = entry->head.error;
    a.report.seed = entry->head.seed;
    a.report.seconds = seconds;
    a.cached = std::move(entry);
    return a;
}

}  // namespace

void job_table::remember(std::uint64_t correlation_id, service::floor_service::job job) {
    const std::lock_guard<std::mutex> lock(m_);
    prune_locked();
    jobs_[correlation_id] = std::move(job);
}

bool job_table::cancel(std::uint64_t correlation_id) {
    const std::lock_guard<std::mutex> lock(m_);
    const auto it = jobs_.find(correlation_id);
    return it != jobs_.end() && it->second.cancel();
}

void job_table::prune() {
    const std::lock_guard<std::mutex> lock(m_);
    prune_locked();
}

void job_table::prune_locked() {
    for (auto it = jobs_.begin(); it != jobs_.end();) {
        const service::job_state js = it->second.state();
        if (js == service::job_state::done || js == service::job_state::cancelled)
            it = jobs_.erase(it);
        else
            ++it;
    }
}

/// Shared per-connection state. Jobs' completion callbacks hold it by
/// shared_ptr, so a session handle may be dropped while jobs are still in
/// flight without dangling anything.
struct server::session::state {
    server* srv = nullptr;
    frame_sink sink;

    std::mutex emit_m;  ///< serialises sink calls across worker threads
    bool broken = false;

    job_table jobs;  ///< the `cancel_job` namespace

    /// Encode and emit one response frame. A sink that throws marks the
    /// transport broken; later frames are dropped silently — the job
    /// machinery must never wedge on a dead connection.
    void emit(const response& resp) {
        send([&resp] { return encode(resp); });
    }

    /// Emit a building's answer under \p corr; a cache hit's frame is its
    /// fresh head joined to the entry's stored tail.
    void emit(std::uint64_t corr, building_answer a) {
        if (!a.cached) return emit(building_response{corr, std::move(a.report)});
        send([&] {
            std::string frame = encode_building_head(corr, a.report, a.cached->tail.size());
            frame += a.cached->tail;
            return frame;
        });
    }

    template <class Encode>
    void send(Encode encode_frame) {
        const std::lock_guard<std::mutex> lock(emit_m);
        if (broken) return;
        try {
            const std::string frame = encode_frame();
            sink(frame);
        } catch (...) {
            broken = true;
        }
    }
};

void server::session::handle(const request& req) {
    const std::shared_ptr<state> st = state_;
    service::floor_service& svc = st->srv->backing_service();
    std::visit(
        [&](const auto& m) {
            using T = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<T, identify_building_request>) {
                const std::uint64_t corr = m.correlation_id;
                const std::size_t index = m.has_index
                                              ? static_cast<std::size_t>(m.corpus_index)
                                              : svc.allocate_corpus_index();
                const std::uint64_t hash = data::content_hash(m.b);
                report_sink emit = [st, corr](building_answer a) {
                    st->emit(corr, std::move(a));
                };
                if (!m.no_cache && st->srv->probe(hash, index, emit)) return;
                st->jobs.remember(corr, st->srv->run(m.b, hash, index, m.no_cache,
                                                     std::move(emit)));
            } else if constexpr (std::is_same_v<T, identify_shard_request>) {
                obs::scoped_span span("api.identify");
                const std::uint64_t corr = m.correlation_id;
                const std::string& root = st->srv->cfg_.shard_root;
                if (!root.empty() && !util::path_within_root(root, m.ref.path)) {
                    st->emit(error_response{corr, error_code::bad_request,
                                            "shard path outside the configured shard root: " +
                                                m.ref.path});
                    return;
                }
                st->jobs.remember(
                    corr, svc.submit(m.ref, [st, corr](const runtime::building_report& report) {
                        st->emit(building_response{corr, report});
                    }));
            } else if constexpr (std::is_same_v<T, get_stats_request>) {
                st->emit(stats_response{m.correlation_id, st->srv->stats()});
            } else if constexpr (std::is_same_v<T, cancel_job_request>) {
                st->emit(cancel_response{m.correlation_id, m.target_correlation_id,
                                         st->jobs.cancel(m.target_correlation_id)});
            } else if constexpr (std::is_same_v<T, flush_request>) {
                svc.wait_all();
                st->jobs.prune();
                st->emit(flush_response{m.correlation_id});
            } else if constexpr (std::is_same_v<T, append_scans_request>) {
                // Live ingestion is a federation-level verb: a bare server
                // has no mounted store to land deltas in.
                st->emit(error_response{m.correlation_id, error_code::bad_request,
                                        "append_scans: this server mounts no corpus store "
                                        "(appends are served by the federated front-end)"});
            } else if constexpr (std::is_same_v<T, watch_request>) {
                st->emit(error_response{m.correlation_id, error_code::bad_request,
                                        "watch: this server has no watch registry "
                                        "(subscriptions are served by the federated "
                                        "front-end)"});
            } else if constexpr (std::is_same_v<T, identify_resident_request>) {
                st->emit(error_response{m.correlation_id, error_code::bad_request,
                                        "identify_resident: this server mounts no corpus "
                                        "store (resident lookups are served by the "
                                        "federated front-end)"});
            } else {
                static_assert(std::is_same_v<T, subscribe_stats_request>);
                st->emit(error_response{m.correlation_id, error_code::bad_request,
                                        "subscribe_stats: this server has no telemetry "
                                        "windows (stats streams are served by the TCP "
                                        "front door)"});
            }
        },
        req);
}

bool server::session::handle_frame(std::string_view frame) {
    const decode_result<request> decoded = decode_request(frame);
    if (decoded.eof) return true;  // empty feed: nothing to do
    if (decoded.error) {
        state_->emit(error_response{0, decoded.error->code, decoded.error->message});
        return !decoded.fatal;
    }
    handle(*decoded.value);
    return true;
}

void server::session::finish() { state_->srv->backing_service().wait_all(); }

bool server::session::sink_broken() const {
    const std::lock_guard<std::mutex> lock(state_->emit_m);
    return state_->broken;
}

server::server(server_config cfg) : cfg_(std::move(cfg)), fingerprints_(k_fingerprint_slots) {
    if (cfg_.enable_cache)
        cache_ = std::make_unique<result_cache>(cfg_.cache_capacity, cfg_.cache_spill);
    svc_ = std::make_unique<service::floor_service>(cfg_.service);
}

server::~server() = default;

server::session server::open(frame_sink sink) {
    auto st = std::make_shared<session::state>();
    st->srv = this;
    st->sink = std::move(sink);
    return session(std::move(st));
}

void server::serve(std::istream& in, std::ostream& out) {
    session s = open([&out](std::string_view frame) {
        out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
        if (!out) throw std::ios_base::failure("api::server: response stream went bad");
        out.flush();
    });
    try {
        for (;;) {
            const decode_result<request> r = read_request(in);
            if (r.eof) break;
            if (r.error) {
                s.state_->emit(error_response{0, r.error->code, r.error->message});
                if (r.fatal) break;
                continue;
            }
            s.handle(*r.value);
            if (s.sink_broken()) break;
        }
    } catch (...) {
        // serve must never return (or unwind) with jobs in flight: their
        // callbacks write to `out`, which the caller is free to destroy
        // afterwards. The one in-protocol throw is flush-while-paused
        // (`wait_all` refuses to deadlock), so release the gate, drain,
        // and only then let the error propagate.
        svc_->resume();
        s.finish();
        throw;
    }
    s.finish();
}

bool server::probe(std::uint64_t content_hash, std::size_t index, const report_sink& on_report) {
    if (!cache_) return false;
    const clock::time_point start = clock::now();
    obs::scoped_span span("api.cache_probe");
    std::shared_ptr<const cached_report> hit =
        cache_->lookup(cache_key{content_hash, task_fingerprint(index)});
    if (!hit) return false;
    // Keep index assignment identical to a cache-off run even though the
    // service never sees this one.
    svc_->advance_corpus_index(index + 1);
    on_report(answer_from(std::move(hit), index,
                          std::chrono::duration<double>(clock::now() - start).count()));
    return true;
}

service::floor_service::job server::run(const data::building& b, std::uint64_t content_hash,
                                        std::size_t index, bool no_cache,
                                        report_sink on_report) {
    obs::scoped_span span("api.identify");
    std::optional<cache_key> key;
    if (cache_ && !no_cache) key = cache_key{content_hash, task_fingerprint(index)};
    // A run that fills the cache answers from the entry it just made: its
    // result is encoded once, for the entry, and not copied again.
    return svc_->submit(b, index,
                        [cache = cache_.get(), key, on_report = std::move(on_report)](
                            const runtime::building_report& report) {
                            if (!key || !report.ok)
                                return on_report(building_answer{report, nullptr});
                            std::shared_ptr<const cached_report> entry =
                                cache->insert(*key, report);
                            on_report(answer_from(std::move(entry), report.index, report.seconds));
                        });
}

std::uint64_t server::task_fingerprint(std::size_t index) const {
    fingerprint_slot& slot = fingerprints_[index % fingerprints_.size()];
    {
        const std::lock_guard<std::mutex> lock(fingerprint_m_);
        if (slot.valid && slot.index == index) return slot.fingerprint;
    }
    const service::service_config& scfg = svc_->config();
    const std::uint64_t fingerprint = core::config_fingerprint(runtime::effective_task_config(
        scfg.pipeline, scfg.seed, index, svc_->num_workers() > 1));
    const std::lock_guard<std::mutex> lock(fingerprint_m_);
    slot = fingerprint_slot{index, fingerprint, true};
    return fingerprint;
}

service::service_stats server::stats() const {
    service::service_snapshot snap = snapshot();
    snap.stats.latency = obs::summarize(snap.latencies);
    return std::move(snap.stats);
}

service::service_snapshot server::snapshot() const {
    service::service_snapshot snap = svc_->snapshot();
    if (cache_) {
        const result_cache_stats cs = cache_->stats();
        snap.stats.cache_hits = cs.hits;
        snap.stats.cache_misses = cs.misses;
        snap.stats.cache_evictions = cs.evictions;
    }
    return snap;
}

result_cache_stats server::cache_stats() const {
    return cache_ ? cache_->stats() : result_cache_stats{};
}

}  // namespace fisone::api
