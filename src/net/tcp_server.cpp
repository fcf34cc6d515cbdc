#include "tcp_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/codec.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace fisone::net {

namespace {

using clock_type = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const char* what) {
    throw std::system_error(errno, std::generic_category(), what);
}

/// What a retired in-flight entry leaves behind — everything the
/// completion path needs once the locks are released (root-span close,
/// latency sample, slow-request log).
struct request_finish {
    double seconds = 0.0;
    std::uint64_t client_id = 0;
    obs::trace_context trace{};   ///< the request's root span ({0,0} untraced)
    std::uint64_t start_ns = 0;   ///< admission time on the span clock
};

/// How many answers retire \p req if it is a job request — one per
/// building of a shard, one for every other job — or nullopt if it is not
/// a job. Jobs pass admission and are tracked until retired; resident
/// identification counts as one, so it sheds at the same bound (the
/// capacity bench leans on that parity), and so do appends, so drain
/// waits for their durability.
std::optional<std::size_t> job_answers(const api::request& req) {
    if (const auto* shard = std::get_if<api::identify_shard_request>(&req))
        return shard->ref.num_buildings;
    if (std::holds_alternative<api::identify_building_request>(req) ||
        std::holds_alternative<api::identify_resident_request>(req) ||
        std::holds_alternative<api::append_scans_request>(req))
        return 1;
    return std::nullopt;
}

// Telemetry-window column order, fixed by the registration sequence in
// core's constructor (registry windows carry parallel value vectors, not
// name→value maps).
constexpr std::size_t k_win_admitted = 0;
constexpr std::size_t k_win_responses = 1;
constexpr std::size_t k_win_shed_overload = 2;
constexpr std::size_t k_win_shed_draining = 3;
constexpr std::size_t k_win_connections = 0;  // gauge column
constexpr std::size_t k_win_inflight = 1;     // gauge column

/// Segments one gathered write hands the kernel (a cache hit queues two:
/// its head and its shared tail).
constexpr std::size_t k_max_iov = 16;

}  // namespace

/// Global state shared between the loop thread, the public thread-safe
/// surface (stats/drain/stop), and the response sinks running on backend
/// worker threads. Held by shared_ptr so a sink firing after teardown
/// still has somewhere safe to account to.
struct tcp_server::core {
    mutable std::mutex m;
    tcp_server_stats counters;           ///< guarded by m (latency fields unused)
    obs::latency_histogram latency;      ///< guarded by m (bounded: serve loop feeds it forever)
    /// The windowed time series behind `subscribe_stats` and the capacity
    /// bench. Thread-safe on its own lock; its samplers take `m`, so never
    /// call into the registry while holding `m` (lock order: registry → m).
    obs::telemetry_registry registry;
    std::atomic<bool> draining{false};
    std::atomic<bool> stopping{false};
    socket_fd wake_fd;
    /// The thread running the event loop (default-constructed when none
    /// is). Per server, not per process: tests run several servers.
    std::atomic<std::thread::id> loop_thread{};
    const clock_type::time_point started = clock_type::now();  ///< uptime epoch
    /// Slow-request log settings, copied from the config at construction
    /// (immutable afterwards — sinks read them without the lock).
    double slow_threshold = 0.0;
    std::function<void(const std::string&)> slow_log;

    explicit core(std::size_t ring_windows) : registry(ring_windows) {
        wake_fd.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
        if (!wake_fd.valid()) throw_errno("net: eventfd");
        // Registration order defines the k_win_* column constants above.
        const auto ctr = [this](std::size_t tcp_server_stats::* field) {
            return [this, field] {
                const std::lock_guard<std::mutex> lock(m);
                return static_cast<double>(counters.*field);
            };
        };
        registry.add_counter("requests_admitted", ctr(&tcp_server_stats::requests_admitted));
        registry.add_counter("responses_sent", ctr(&tcp_server_stats::responses_sent));
        registry.add_counter("requests_shed_overload",
                             ctr(&tcp_server_stats::requests_shed_overload));
        registry.add_counter("requests_shed_draining",
                             ctr(&tcp_server_stats::requests_shed_draining));
        registry.add_gauge("connections_open", ctr(&tcp_server_stats::connections_open));
        registry.add_gauge("requests_in_flight", ctr(&tcp_server_stats::requests_in_flight));
        registry.add_histogram("request_latency_seconds", [this] {
            const std::lock_guard<std::mutex> lock(m);
            return latency;
        });
    }

    /// Nudge the epoll loop (signal/thread-safe; errors ignored — a full
    /// eventfd counter already guarantees a pending wakeup). A no-op on
    /// the loop thread itself: the loop flushes and re-checks its flags at
    /// the top of every pass, before it waits, so whatever that thread
    /// just buffered is seen without a wakeup. (Relaxed is enough: only
    /// the loop thread can ever find its own id stored here.)
    void wake() noexcept {
        if (loop_thread.load(std::memory_order_relaxed) == std::this_thread::get_id()) return;
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t r = ::write(wake_fd.get(), &one, sizeof one);
    }

    static void on_response(const std::shared_ptr<core>& co, const std::shared_ptr<conn>& c,
                            std::size_t max_wbuf, const api::response& resp,
                            std::string_view frame,
                            const std::shared_ptr<const api::cached_report>& cached);

    /// Post-completion work that must run outside every lock: close the
    /// request's root span and emit the slow-request log line.
    void complete_request(const request_finish& fi) const;
};

/// One accepted connection. The first block is touched only by the loop
/// thread; everything under `m` is shared with response sinks.
struct tcp_server::conn {
    // --- loop-thread-only ---
    socket_fd fd;
    std::uint32_t events = 0;  ///< registered epoll interest mask
    bool mode_known = false;   ///< false until framed-vs-text is decided
    bool text_mode = false;
    std::string probe;     ///< first bytes, before the mode is decided
    std::string text_buf;  ///< text-mode accumulated request line
    api::frame_splitter splitter;
    bool read_closed = false;       ///< EOF seen, or reading abandoned
    bool close_after_flush = false; ///< answer is final: close once flushed
    bool dead = false;              ///< socket error: close immediately
    /// The connection's own trace (accept/read/flush spans). Distinct from
    /// per-request traces: one read may carry frames of many requests.
    obs::trace_context conn_ctx{};
    /// The connection's standing `subscribe_stats` stream, when one is
    /// active (at most one per connection; a re-subscribe replaces it).
    /// Loop-thread-only: dispatch installs it, the telemetry tick reads
    /// it, close tears it down — all on the event loop.
    struct stats_subscription {
        std::uint64_t corr = 0;
        std::uint32_t interval_ms = 1000;
        clock_type::time_point next_due;  ///< push at the first tick ≥ this
    };
    std::optional<stats_subscription> stats_sub;

    // --- shared with sinks (guarded by m) ---
    std::mutex m;
    bool closed = false;      ///< torn down by the loop; sinks drop frames
    bool overflowed = false;  ///< slow-reader shed engaged: dropping frames
    /// One run of queued response bytes: owned bytes, or a cache entry's
    /// shared tail, held until the kernel has taken it.
    struct segment {
        std::string owned;
        std::shared_ptr<const api::cached_report> shared;  ///< set: the bytes are its tail

        [[nodiscard]] std::string_view bytes() const noexcept {
            return shared ? std::string_view(shared->tail) : std::string_view(owned);
        }
    };
    /// The write queue, in wire order. Consecutive owned bytes coalesce
    /// into one segment; flushes gather up to `k_max_iov` segments.
    std::deque<segment> wq;
    std::size_t woff = 0;    ///< sent prefix of `wq.front()`
    std::size_t queued = 0;  ///< unsent bytes in `wq`, shared tails included

    struct pending {
        std::size_t remaining = 0;  ///< building responses still expected
        clock_type::time_point start;
        obs::trace_context trace{};  ///< request root span ({0,0} untraced)
        std::uint64_t start_ns = 0;  ///< admission time on the span clock
    };
    /// Admitted job requests by the client's correlation id (unique among
    /// live requests: `admit` refuses a duplicate).
    std::unordered_map<std::uint64_t, pending> inflight;
    struct flush_barrier {
        std::uint64_t corr = 0;
        std::unordered_set<std::uint64_t> waiting;  ///< client ids
    };
    std::vector<flush_barrier> flushes;  ///< FIFO

    /// Queue one response frame: \p frame, then \p cached's tail when the
    /// frame is a cache hit's head. Returns false when the frame was
    /// dropped: connection torn down, already shedding, or this frame
    /// tripped the bound and engaged shedding.
    bool append_locked(std::string_view frame, std::size_t max_wbuf,
                       const std::shared_ptr<const api::cached_report>& cached = nullptr) {
        if (closed || overflowed) return false;
        const std::size_t n = frame.size() + (cached ? cached->tail.size() : 0);
        if (queued + n > max_wbuf) {
            overflowed = true;
            return false;
        }
        if (wq.empty() || wq.back().shared) {
            wq.emplace_back();
        } else if (wq.size() == 1 && woff > (256u << 10)) {
            wq.front().owned.erase(0, woff);  // compact the one owned segment
            woff = 0;
        }
        wq.back().owned.append(frame.data(), frame.size());
        if (cached) wq.push_back(segment{{}, cached});
        queued += n;
        return true;
    }

    /// The kernel took \p n more bytes: release every segment it finished.
    void consume_locked(std::size_t n) {
        queued -= n;
        woff += n;
        while (!wq.empty() && woff >= wq.front().bytes().size()) {
            woff -= wq.front().bytes().size();
            wq.pop_front();
        }
    }

    /// Retire the in-flight entry of \p corr: update flush barriers
    /// (appending any now-satisfied flush_response frames), and hand back
    /// the latency sample plus what the lock-free completion path needs
    /// (trace context, admission time). Call with `m` held.
    request_finish finish_locked(std::uint64_t corr, std::size_t max_wbuf, std::size_t& sent,
                                 std::size_t& dropped) {
        const auto it = inflight.find(corr);
        request_finish fi;
        fi.seconds = std::chrono::duration<double>(clock_type::now() - it->second.start).count();
        fi.client_id = corr;
        fi.trace = it->second.trace;
        fi.start_ns = it->second.start_ns;
        inflight.erase(it);
        for (auto fit = flushes.begin(); fit != flushes.end();) {
            fit->waiting.erase(corr);
            if (fit->waiting.empty()) {
                const std::string frame =
                    api::encode(api::response(api::flush_response{fit->corr}));
                (append_locked(frame, max_wbuf) ? sent : dropped) += 1;
                fit = flushes.erase(fit);
            } else {
                ++fit;
            }
        }
        return fi;
    }
};

/// The response sink installed on each connection's fleet session. Runs
/// on the threads the fleet's lifetime rule names (`federated_server.hpp`:
/// backend workers, the watchdog, the ingest worker, and inline on the
/// loop thread); touches only `conn` shared state and `core`. Every answer
/// carries the client's own correlation id.
void tcp_server::core::on_response(const std::shared_ptr<core>& co,
                                   const std::shared_ptr<conn>& c, std::size_t max_wbuf,
                                   const api::response& resp, std::string_view frame,
                                   const std::shared_ptr<const api::cached_report>& cached) {
    // Runs under the worker's trace context (installed at job pickup), so
    // the respond span lands inside the request tree it answers.
    obs::scoped_span span("net.respond");
    const std::uint64_t corr = api::correlation_id(resp);
    // A building result counts its request down (a shard expects one per
    // building); a typed error or an append result ends it whatever the
    // count. A push answers no request; stats, cancel, flush and watch
    // answers pass through.
    const bool counts_down = std::holds_alternative<api::building_response>(resp);
    const bool ends = std::holds_alternative<api::error_response>(resp) ||
                      std::holds_alternative<api::append_response>(resp);
    const bool is_push = std::holds_alternative<api::push_response>(resp);

    std::size_t sent = 0, dropped = 0, completed = 0;
    request_finish fi;
    bool have_sample = false;
    {
        const std::lock_guard<std::mutex> lock(c->m);
        bool completes = false;
        if (counts_down || ends) {
            const auto it = c->inflight.find(corr);
            if (it != c->inflight.end()) {
                completes = ends || it->second.remaining <= 1;
                if (!completes) --it->second.remaining;
            }
        }
        (c->append_locked(frame, max_wbuf, cached) ? sent : dropped) += 1;
        if (completes) {
            fi = c->finish_locked(corr, max_wbuf, sent, dropped);
            have_sample = true;
            completed = 1;
        }
    }
    {
        const std::lock_guard<std::mutex> lock(co->m);
        co->counters.responses_sent += sent;
        co->counters.responses_dropped += dropped;
        co->counters.requests_completed += completed;
        co->counters.requests_in_flight -= completed;
        co->counters.pushes_sent += is_push && sent > 0 ? 1 : 0;
        if (have_sample) co->latency.add(fi.seconds);
    }
    if (is_push && obs::tracing_enabled()) {
        // An instantaneous delivery marker under the publisher's context
        // (the re-run's trace), so the tape shows append → reindex → push.
        const std::uint64_t t = obs::now_ns();
        obs::emit_child_span("net.push", obs::current_context(), t, t);
    }
    if (have_sample) co->complete_request(fi);
    co->wake();
}

void tcp_server::core::complete_request(const request_finish& fi) const {
    // Close the root span first so a slow-request breakdown includes it.
    if (fi.trace.active())
        obs::emit_span("net.request", fi.trace.trace_id, fi.trace.span_id, 0, fi.start_ns,
                       obs::now_ns());
    if (slow_threshold <= 0.0 || fi.seconds < slow_threshold) return;
    char buf[128];
    std::string line = "{\"slow_request\":{\"correlation_id\":" + std::to_string(fi.client_id);
    std::snprintf(buf, sizeof buf, ",\"seconds\":%.6f", fi.seconds);
    line += buf;
    if (fi.trace.active()) {
        std::snprintf(buf, sizeof buf, ",\"trace_id\":\"0x%llx\"",
                      static_cast<unsigned long long>(fi.trace.trace_id));
        line += buf;
        line += ",\"spans\":[";
        bool first = true;
        for (const obs::span_record& rec : obs::spans_for_trace(fi.trace.trace_id)) {
            if (!first) line += ',';
            first = false;
            std::snprintf(buf, sizeof buf, "{\"name\":\"%s\",\"ms\":%.3f}",
                          rec.name != nullptr ? rec.name : "?",
                          static_cast<double>(rec.dur_ns) * 1e-6);
            line += buf;
        }
        line += ']';
    }
    line += "}}";
    if (slow_log)
        slow_log(line);
    else
        std::fprintf(stderr, "%s\n", line.c_str());
}

// --- the event loop ----------------------------------------------------------

/// Loop-local state of one `run()` invocation.
struct tcp_server::loop {
    tcp_server& srv;
    socket_fd ep;

    struct open_conn {
        std::shared_ptr<conn> c;
        federation::federated_server::session session;
    };
    std::unordered_map<int, open_conn> conns;
    bool listener_open = true;
    /// Next telemetry window boundary (meaningful only when
    /// `telemetry_window_ms > 0`; the epoll wait is bounded to it).
    clock_type::time_point next_tick;
    /// `evaluate_all`'s snapshot of the open fds, reused across passes.
    std::vector<int> eval_fds;

    explicit loop(tcp_server& s) : srv(s) {
        ep.reset(::epoll_create1(EPOLL_CLOEXEC));
        if (!ep.valid()) throw_errno("net: epoll_create1");
        add(srv.core_->wake_fd.get(), EPOLLIN);
        add(srv.listener_.get(), EPOLLIN);
        next_tick = clock_type::now() + std::chrono::milliseconds(srv.cfg_.telemetry_window_ms);
        srv.core_->loop_thread.store(std::this_thread::get_id(), std::memory_order_relaxed);
    }

    ~loop() { srv.core_->loop_thread.store(std::thread::id{}, std::memory_order_relaxed); }

    void add(int fd, std::uint32_t events) {
        epoll_event ev{};
        ev.events = events;
        ev.data.fd = fd;
        if (::epoll_ctl(ep.get(), EPOLL_CTL_ADD, fd, &ev) != 0)
            throw_errno("net: epoll_ctl(ADD)");
    }

    void set_events(conn& c, std::uint32_t events) {
        if (c.events == events || !c.fd.valid()) return;
        epoll_event ev{};
        ev.events = events;
        ev.data.fd = c.fd.get();
        if (::epoll_ctl(ep.get(), EPOLL_CTL_MOD, c.fd.get(), &ev) != 0)
            throw_errno("net: epoll_ctl(MOD)");
        c.events = events;
    }

    core& co() { return *srv.core_; }

    // --- lifecycle -----------------------------------------------------------

    void accept_all() {
        for (;;) {
            const int fd = ::accept4(srv.listener_.get(), nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) return;
                if (errno == EINTR) continue;
                throw_errno("net: accept4");
            }
            socket_fd accepted(fd);
            if (conns.size() >= srv.cfg_.max_connections) {
                const std::lock_guard<std::mutex> lock(co().m);
                ++co().counters.connections_refused;
                continue;  // accepted goes out of scope → RST/close
            }
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

            auto c = std::make_shared<conn>();
            c->fd = std::move(accepted);
            if (obs::tracing_enabled()) {
                // Root the connection's own trace at an instantaneous
                // accept marker; reads and flushes hang off it.
                c->conn_ctx = obs::trace_context{obs::new_trace_id(), obs::new_span_id()};
                const std::uint64_t t = obs::now_ns();
                obs::emit_span("net.accept", c->conn_ctx.trace_id, c->conn_ctx.span_id, 0, t,
                               t);
            }
            const std::shared_ptr<core> core_sp = srv.core_;
            const std::size_t max_wbuf = srv.cfg_.max_write_buffer;
            federation::federated_server::session session = srv.fleet_.open(
                [core_sp, c, max_wbuf](const api::response& resp, std::string_view frame,
                                       const std::shared_ptr<const api::cached_report>& cached) {
                    core::on_response(core_sp, c, max_wbuf, resp, frame, cached);
                });
            add(fd, EPOLLIN);
            c->events = EPOLLIN;
            conns.emplace(fd, open_conn{std::move(c), std::move(session)});
            {
                const std::lock_guard<std::mutex> lock(co().m);
                ++co().counters.connections_accepted;
                ++co().counters.connections_open;
            }
        }
    }

    void close_conn(int fd) {
        const auto it = conns.find(fd);
        if (it == conns.end()) return;
        conn& c = *it->second.c;
        bool slow = false;
        {
            const std::lock_guard<std::mutex> lock(c.m);
            c.closed = true;
            slow = c.overflowed;
        }
        ::epoll_ctl(ep.get(), EPOLL_CTL_DEL, fd, nullptr);
        c.fd.reset();
        const bool had_stats_sub = c.stats_sub.has_value();
        conns.erase(it);
        {
            const std::lock_guard<std::mutex> lock(co().m);
            --co().counters.connections_open;
            if (slow) ++co().counters.connections_closed_slow;
            if (had_stats_sub) --co().counters.stats_subscribers;
        }
    }

    // --- outbound ------------------------------------------------------------

    /// Flush as much of the write queue as the socket takes, gathering up
    /// to `k_max_iov` segments per `sendmsg` (a shared tail goes from the
    /// cache entry straight to the kernel). Returns false when the socket
    /// errored (the connection is dead).
    bool try_flush(conn& c) {
        const std::uint64_t flush_start = obs::tracing_enabled() ? obs::now_ns() : 0;
        std::size_t sent_bytes = 0;
        bool ok = true;
        {
            const std::lock_guard<std::mutex> lock(c.m);
            while (!c.wq.empty()) {
                iovec iov[k_max_iov];
                msghdr msg{};
                msg.msg_iov = iov;
                std::size_t skip = c.woff;
                for (auto it = c.wq.begin(); it != c.wq.end() && msg.msg_iovlen < k_max_iov;
                     ++it, skip = 0) {
                    const std::string_view b = it->bytes();
                    iov[msg.msg_iovlen].iov_base = const_cast<char*>(b.data() + skip);
                    iov[msg.msg_iovlen].iov_len = b.size() - skip;
                    ++msg.msg_iovlen;
                }
                const ssize_t n = ::sendmsg(c.fd.get(), &msg, MSG_NOSIGNAL);
                if (n > 0) {
                    c.consume_locked(static_cast<std::size_t>(n));
                    sent_bytes += static_cast<std::size_t>(n);
                    continue;
                }
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                if (n < 0 && errno == EINTR) continue;
                ok = false;
                break;
            }
        }
        if (sent_bytes > 0) {
            {
                const std::lock_guard<std::mutex> lock(co().m);
                co().counters.bytes_sent += sent_bytes;
            }
            // Only flushes that moved bytes get a span — idle evaluation
            // passes would otherwise bury the tape in zero-length events.
            if (flush_start != 0)
                obs::emit_child_span("net.flush", c.conn_ctx, flush_start, obs::now_ns());
        }
        return ok;
    }

    /// Emit a locally generated response (shed replies, local cancel/flush
    /// answers, protocol errors) through the same bounded buffer.
    void emit_local(conn& c, const api::response& resp) {
        const std::string frame = api::encode(resp);
        bool appended = false;
        {
            const std::lock_guard<std::mutex> lock(c.m);
            appended = c.append_locked(frame, srv.cfg_.max_write_buffer);
        }
        const std::lock_guard<std::mutex> lock(co().m);
        ++(appended ? co().counters.responses_sent : co().counters.responses_dropped);
    }

    // --- dispatch ------------------------------------------------------------

    /// Admission gate for job requests. An id already live on this
    /// connection is refused as a protocol error: its answers could not be
    /// told apart from the first request's. Otherwise sheds (with the right
    /// typed code) when draining or at the in-flight bound.
    bool admit(conn& c, std::uint64_t corr) {
        bool live = false;
        {
            const std::lock_guard<std::mutex> lock(c.m);
            live = c.inflight.count(corr) != 0;
        }
        if (live) {
            {
                const std::lock_guard<std::mutex> lock(co().m);
                ++co().counters.protocol_errors;
            }
            emit_local(c, api::error_response{corr, api::error_code::bad_request,
                                              "correlation id " + std::to_string(corr) +
                                                  " is already in flight on this connection"});
            return false;
        }
        api::error_code shed = api::error_code::none;
        {
            const std::lock_guard<std::mutex> lock(co().m);
            if (co().draining.load()) {
                shed = api::error_code::draining;
                ++co().counters.requests_shed_draining;
            } else if (co().counters.requests_in_flight >= srv.cfg_.max_inflight_requests) {
                shed = api::error_code::overloaded;
                ++co().counters.requests_shed_overload;
            } else {
                ++co().counters.requests_admitted;
                ++co().counters.requests_in_flight;
            }
        }
        if (shed == api::error_code::none) return true;
        emit_local(c, api::error_response{
                          corr, shed,
                          shed == api::error_code::draining
                              ? "server is draining for shutdown; request shed"
                              : "admission queue saturated; request shed, retry later"});
        return false;
    }

    /// Forward one admitted job request under the client's own id: the
    /// connection's fleet session is its id space.
    void forward_job(open_conn& oc, const api::request& req, std::uint64_t corr,
                     std::size_t expected) {
        conn& c = *oc.c;
        // Mint the request's trace here — admission is where the request
        // becomes real. The root span's id is allocated now so every child
        // (dispatch, routing, cache probe, queue wait, pipeline stages,
        // respond) links to it, but the span itself is only emitted at
        // completion, when its duration is known.
        obs::trace_context req_trace{};
        std::uint64_t start_ns = 0;
        if (obs::tracing_enabled()) {
            req_trace = obs::trace_context{obs::new_trace_id(), obs::new_span_id()};
            start_ns = obs::now_ns();
        }
        {
            const std::lock_guard<std::mutex> lock(c.m);
            c.inflight[corr] = conn::pending{expected, clock_type::now(), req_trace, start_ns};
        }
        bool failed = false;
        std::string what;
        {
            obs::context_guard trace_guard(req_trace);
            obs::scoped_span span("net.dispatch");
            try {
                oc.session.handle(req);
            } catch (const std::exception& e) {
                failed = true;
                what = e.what();
            } catch (...) {
                failed = true;
                what = "backend dispatch failed";
            }
        }
        // A zero-building shard produces no responses at all; a dispatch
        // that threw produces none either (emit the error ourselves).
        // Both retire immediately — an in-flight entry nothing will ever
        // complete would wedge flush and drain.
        bool retire_now = false;
        {
            const std::lock_guard<std::mutex> lock(c.m);
            const auto it = c.inflight.find(corr);
            retire_now = it != c.inflight.end() && (failed || it->second.remaining == 0);
        }
        if (failed)
            emit_local(c, api::error_response{corr, api::error_code::bad_request,
                                              "dispatch failed: " + what});
        if (retire_now) {
            std::size_t sent = 0, dropped = 0;
            request_finish fi;
            bool finished = false;
            {
                const std::lock_guard<std::mutex> lock(c.m);
                if (c.inflight.count(corr) != 0) {
                    fi = c.finish_locked(corr, srv.cfg_.max_write_buffer, sent, dropped);
                    finished = true;
                }
            }
            {
                const std::lock_guard<std::mutex> lock(co().m);
                co().counters.responses_sent += sent;
                co().counters.responses_dropped += dropped;
                ++co().counters.requests_completed;
                --co().counters.requests_in_flight;
            }
            if (finished) co().complete_request(fi);
        }
    }

    void dispatch(open_conn& oc, const api::request& req) {
        conn& c = *oc.c;
        if (const std::optional<std::size_t> expected = job_answers(req)) {
            const std::uint64_t corr = api::correlation_id(req);
            if (admit(c, corr)) forward_job(oc, req, corr, *expected);
        } else if (const auto* msub = std::get_if<api::subscribe_stats_request>(&req)) {
            // Served here, not by the fleet: the admission and shed
            // counters the stream exposes live in this layer. Ack, then
            // let the telemetry tick push stats_update frames.
            const bool had = c.stats_sub.has_value();
            if (msub->subscribe) {
                conn::stats_subscription sub;
                sub.corr = msub->correlation_id;
                sub.interval_ms = msub->interval_ms;
                sub.next_due = clock_type::now();  // first completed window qualifies
                c.stats_sub = sub;
            } else {
                c.stats_sub.reset();
            }
            if (had != c.stats_sub.has_value()) {
                const std::lock_guard<std::mutex> lock(co().m);
                if (c.stats_sub.has_value())
                    ++co().counters.stats_subscribers;
                else
                    --co().counters.stats_subscribers;
            }
            emit_local(c, api::watch_ack_response{msub->correlation_id, msub->subscribe});
        } else if (const auto* mf = std::get_if<api::flush_request>(&req)) {
            // Per-connection barrier over this connection's in-flight
            // requests — never a blocking backend wait on the event loop.
            bool now = false;
            {
                const std::lock_guard<std::mutex> lock(c.m);
                conn::flush_barrier b;
                b.corr = mf->correlation_id;
                for (const auto& [corr, p] : c.inflight) b.waiting.insert(corr);
                if (b.waiting.empty())
                    now = true;
                else
                    c.flushes.push_back(std::move(b));
            }
            if (now) emit_local(c, api::flush_response{mf->correlation_id});
        } else {
            // get_stats / watch / cancel_job: the connection's fleet
            // session answers them (and any push_update frames a watch
            // produces) in the client's own id space. A cancel of an
            // unknown or finished target answers `accepted = false`.
            oc.session.handle(req);
        }
    }

    // --- inbound -------------------------------------------------------------

    void on_frame(open_conn& oc, std::string_view frame) {
        {
            const std::lock_guard<std::mutex> lock(co().m);
            ++co().counters.frames_received;
        }
        const api::decode_result<api::request> decoded = [&] {
            obs::scoped_span span("net.decode");
            return api::decode_request(frame);
        }();
        if (decoded.error) {
            // A complete frame can only fail recoverably (bad version /
            // unknown tag / malformed payload) — framing integrity held.
            {
                const std::lock_guard<std::mutex> lock(co().m);
                ++co().counters.protocol_errors;
            }
            emit_local(*oc.c,
                       api::error_response{0, decoded.error->code, decoded.error->message});
            return;
        }
        dispatch(oc, *decoded.value);
    }

    void serve_text_line(open_conn& oc, std::string line) {
        conn& c = *oc.c;
        if (!line.empty() && line.back() == '\r') line.pop_back();
        std::string body, out;
        if (line.rfind("GET ", 0) == 0) {
            const std::size_t sp = line.find(' ', 4);
            const std::string path = line.substr(4, sp == std::string::npos ? sp : sp - 4);
            if (path == "/metrics" || path == "/metrics/") {
                body = srv.metrics_text();
                out = "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; "
                      "charset=utf-8\r\nContent-Length: " +
                      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
            } else if (path == "/dump_trace" || path == "/dump_trace/") {
                body = obs::chrome_trace_json();
                out = "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
                      "Content-Length: " +
                      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
            } else {
                out = "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\nConnection: "
                      "close\r\n\r\n";
            }
        } else if (line == "METRICS") {
            out = srv.metrics_text();
        } else if (line == "DUMP_TRACE") {
            out = obs::chrome_trace_json();
        } else {
            c.dead = true;  // not a protocol we speak
            return;
        }
        bool appended = false;
        {
            const std::lock_guard<std::mutex> lock(c.m);
            // The metrics page must fit whatever the write bound is; size
            // the bound generously, not the page timidly.
            appended = c.append_locked(out, std::max(srv.cfg_.max_write_buffer, out.size()));
        }
        static_cast<void>(appended);
        c.read_closed = true;
        c.close_after_flush = true;
    }

    void on_bytes(open_conn& oc, std::string_view data) {
        conn& c = *oc.c;
        if (!c.mode_known) {
            c.probe.append(data.data(), data.size());
            const std::size_t got = std::min(c.probe.size(), sizeof api::k_frame_magic);
            if (std::memcmp(c.probe.data(), api::k_frame_magic, got) == 0) {
                if (c.probe.size() < sizeof api::k_frame_magic) return;  // undecided
                c.mode_known = true;
                c.splitter.append(c.probe);
                c.probe.clear();
            } else {
                c.mode_known = true;
                c.text_mode = true;
                c.text_buf = std::move(c.probe);
                c.probe.clear();
            }
        } else if (c.text_mode) {
            c.text_buf.append(data.data(), data.size());
        } else {
            c.splitter.append(data);
        }

        if (c.text_mode) {
            const std::size_t nl = c.text_buf.find('\n');
            if (nl != std::string::npos) {
                serve_text_line(oc, c.text_buf.substr(0, nl));
                c.text_buf.clear();
            } else if (c.text_buf.size() > srv.cfg_.max_text_line) {
                c.dead = true;
            }
            return;
        }

        while (std::optional<std::string> frame = c.splitter.next()) {
            on_frame(oc, *frame);
            if (c.dead || c.close_after_flush) break;
        }
        if (c.splitter.error()) {
            // Framing integrity lost: answer with the typed error, stop
            // reading, close once buffered responses have flushed (the
            // write side is still coherent).
            {
                const std::lock_guard<std::mutex> lock(co().m);
                ++co().counters.protocol_errors;
            }
            emit_local(c, api::error_response{0, c.splitter.error()->code,
                                              c.splitter.error()->message});
            c.read_closed = true;
            c.close_after_flush = true;
        }
    }

    void on_readable(open_conn& oc) {
        conn& c = *oc.c;
        // Read spans belong to the connection trace (one read may carry
        // frames of many requests); request traces begin at admission.
        obs::context_guard trace_guard(c.conn_ctx);
        obs::scoped_span span("net.read");
        char chunk[64 * 1024];
        for (;;) {
            const ssize_t n = ::recv(c.fd.get(), chunk, sizeof chunk, 0);
            if (n > 0) {
                {
                    const std::lock_guard<std::mutex> lock(co().m);
                    co().counters.bytes_received += static_cast<std::size_t>(n);
                }
                on_bytes(oc, std::string_view(chunk, static_cast<std::size_t>(n)));
                if (c.dead || c.read_closed) return;
                // A short read drained the socket: epoll is level-triggered
                // and reports it again when more bytes land, so the recv
                // that would only say EAGAIN is skipped.
                if (static_cast<std::size_t>(n) < sizeof chunk) return;
                continue;
            }
            if (n == 0) {
                // EOF: maybe a half-close (client sent everything, still
                // reading responses), maybe a mid-frame disconnect — both
                // just end the inbound side; the close decision logic
                // handles the rest.
                c.read_closed = true;
                return;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR) continue;
            c.dead = true;
            return;
        }
    }

    // --- per-iteration evaluation -------------------------------------------

    /// Flush, decide interest mask, decide close. Returns true when the
    /// connection was closed.
    bool evaluate(int fd) {
        const auto it = conns.find(fd);
        if (it == conns.end()) return true;
        conn& c = *it->second.c;

        bool overflowed, pending, inflight_empty;
        {
            const std::lock_guard<std::mutex> lock(c.m);
            overflowed = c.overflowed;
            pending = !c.wq.empty();
            inflight_empty = c.inflight.empty();
        }
        if (overflowed || c.dead) {
            // Slow-reader shed / socket error: no point flushing a stream
            // we have already dropped frames from (or that errored).
            close_conn(fd);
            return true;
        }
        if (pending) {
            if (!try_flush(c)) {
                close_conn(fd);
                return true;
            }
            const std::lock_guard<std::mutex> lock(c.m);
            pending = !c.wq.empty();
            overflowed = c.overflowed;
            inflight_empty = c.inflight.empty();
        }
        if (overflowed) {
            close_conn(fd);
            return true;
        }
        const bool draining = co().draining.load();
        const bool done_reading = c.read_closed || c.close_after_flush;
        if (!pending && inflight_empty && (done_reading || draining)) {
            close_conn(fd);
            return true;
        }
        std::uint32_t want = 0;
        if (!c.read_closed && !c.close_after_flush) want |= EPOLLIN;
        if (pending) want |= EPOLLOUT;
        set_events(c, want);
        return false;
    }

    void evaluate_all() {
        eval_fds.clear();
        for (const auto& [fd, oc] : conns) eval_fds.push_back(fd);
        for (const int fd : eval_fds) static_cast<void>(evaluate(fd));
    }

    std::size_t global_inflight() {
        const std::lock_guard<std::mutex> lock(co().m);
        return co().counters.requests_in_flight;
    }

    // --- telemetry tick ------------------------------------------------------

    /// Milliseconds until the next window boundary (epoll timeout), or -1
    /// (block indefinitely) when ticking is disabled.
    int tick_timeout_ms() const {
        if (srv.cfg_.telemetry_window_ms == 0) return -1;
        const auto until = next_tick - clock_type::now();
        if (until <= clock_type::duration::zero()) return 0;
        const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(until).count();
        // Round up: waking one ms late beats a zero-timeout spin just shy
        // of the boundary.
        return static_cast<int>(std::min<long long>(ms + 1, 60'000));
    }

    /// Close the current telemetry window and service `subscribe_stats`
    /// streams: every subscription whose interval has elapsed gets one
    /// `stats_update` frame carrying the window just closed. Runs on the
    /// loop thread; frames ride the same bounded write buffers as every
    /// other response (flushed by the next evaluation pass). The window is
    /// copied out of the ring (a ~26 KB histogram) only when a stream is
    /// due.
    void telemetry_tick() {
        const auto now = clock_type::now();
        if (srv.cfg_.telemetry_window_ms == 0 || now < next_tick) return;
        co().registry.tick(std::chrono::duration<double>(now - co().started).count());
        next_tick = now + std::chrono::milliseconds(srv.cfg_.telemetry_window_ms);
        const bool due = std::any_of(conns.begin(), conns.end(), [now](const auto& entry) {
            const conn& c = *entry.second.c;
            return c.stats_sub && now >= c.stats_sub->next_due;
        });
        if (!due) return;
        const std::optional<obs::telemetry_registry::window> w = co().registry.latest();
        if (!w) return;
        std::size_t pushed = 0, dropped = 0;
        for (auto& [fd, oc] : conns) {
            conn& c = *oc.c;
            if (!c.stats_sub || now < c.stats_sub->next_due) continue;
            api::stats_update_response u;
            u.correlation_id = c.stats_sub->corr;
            u.window_seq = w->seq;
            u.window_seconds = w->duration_seconds;
            u.connections = static_cast<std::uint64_t>(w->gauges[k_win_connections]);
            u.inflight = static_cast<std::uint64_t>(w->gauges[k_win_inflight]);
            u.admitted = static_cast<std::uint64_t>(w->counters[k_win_admitted]);
            u.responses = static_cast<std::uint64_t>(w->counters[k_win_responses]);
            u.shed_overload = static_cast<std::uint64_t>(w->counters[k_win_shed_overload]);
            u.shed_draining = static_cast<std::uint64_t>(w->counters[k_win_shed_draining]);
            const obs::latency_histogram& h = w->histograms[0];
            u.latency_count = h.count();
            u.latency_sum = h.sum();
            u.latency_p50 = h.percentile_or_zero(50.0);
            u.latency_p90 = h.percentile_or_zero(90.0);
            u.latency_p99 = h.percentile_or_zero(99.0);
            const std::string frame = api::encode(api::response(u));
            bool appended = false;
            {
                const std::lock_guard<std::mutex> lock(c.m);
                appended = c.append_locked(frame, srv.cfg_.max_write_buffer);
            }
            (appended ? pushed : dropped) += 1;
            c.stats_sub->next_due =
                now + std::chrono::milliseconds(
                          std::max<std::uint32_t>(c.stats_sub->interval_ms,
                                                  srv.cfg_.telemetry_window_ms));
        }
        if (pushed + dropped > 0) {
            const std::lock_guard<std::mutex> lock(co().m);
            co().counters.responses_sent += pushed;
            co().counters.responses_dropped += dropped;
            co().counters.stats_pushes_sent += pushed;
        }
    }

    void run() {
        std::vector<epoll_event> events(64);
        for (;;) {
            if (co().stopping.load()) {
                std::vector<int> fds;
                for (const auto& [fd, oc] : conns) fds.push_back(fd);
                for (const int fd : fds) close_conn(fd);
                return;
            }
            if (co().draining.load()) {
                if (listener_open) {
                    ::epoll_ctl(ep.get(), EPOLL_CTL_DEL, srv.listener_.get(), nullptr);
                    srv.listener_.reset();
                    listener_open = false;
                }
                {
                    const std::lock_guard<std::mutex> lock(co().m);
                    co().counters.draining = true;
                }
                evaluate_all();
                if (conns.empty() && global_inflight() == 0) return;
            } else {
                evaluate_all();
            }

            const int n = ::epoll_wait(ep.get(), events.data(),
                                       static_cast<int>(events.size()), tick_timeout_ms());
            if (n < 0) {
                if (errno == EINTR) continue;
                throw_errno("net: epoll_wait");
            }
            telemetry_tick();
            for (int i = 0; i < n; ++i) {
                const int fd = events[i].data.fd;
                const std::uint32_t ev = events[i].events;
                if (fd == co().wake_fd.get()) {
                    std::uint64_t drainv = 0;
                    [[maybe_unused]] const ssize_t r =
                        ::read(co().wake_fd.get(), &drainv, sizeof drainv);
                    continue;
                }
                if (listener_open && fd == srv.listener_.get()) {
                    accept_all();
                    continue;
                }
                const auto it = conns.find(fd);
                if (it == conns.end()) continue;
                if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
                    it->second.c->dead = true;
                    continue;
                }
                if ((ev & EPOLLIN) != 0) on_readable(it->second);
                // Writes are flushed by the top-of-loop evaluation pass.
            }
        }
    }
};

// --- public surface ----------------------------------------------------------

tcp_server::tcp_server(federation::federated_server& fleet, tcp_server_config cfg)
    : fleet_(fleet), cfg_(std::move(cfg)) {
    if (cfg_.max_inflight_requests == 0)
        throw std::invalid_argument("net: max_inflight_requests must be >= 1");
    if (cfg_.max_connections == 0)
        throw std::invalid_argument("net: max_connections must be >= 1");
    if (cfg_.max_write_buffer < api::k_frame_header_size)
        throw std::invalid_argument("net: max_write_buffer cannot hold a frame header");
    if (cfg_.telemetry_ring_windows == 0)
        throw std::invalid_argument("net: telemetry_ring_windows must be >= 1");
    core_ = std::make_shared<core>(cfg_.telemetry_ring_windows);
    core_->slow_threshold = cfg_.slow_request_seconds;
    core_->slow_log = cfg_.slow_log;
    listener_ = listen_tcp(cfg_.host, cfg_.port, cfg_.backlog);
    // The accept loop drains the backlog until EAGAIN — which only
    // terminates on a non-blocking listener.
    set_nonblocking(listener_.get(), true);
    port_ = local_port(listener_.get());
}

tcp_server::~tcp_server() = default;

void tcp_server::run() {
    loop l(*this);
    l.run();
}

void tcp_server::drain() {
    core_->draining.store(true);
    core_->wake();
}

void tcp_server::stop() {
    core_->stopping.store(true);
    core_->wake();
}

tcp_server_stats tcp_server::stats() const {
    tcp_server_stats s;
    {
        const std::lock_guard<std::mutex> lock(core_->m);
        s = core_->counters;
        s.draining = core_->draining.load();
        s.request_latency = obs::summarize(core_->latency);
        s.uptime_seconds =
            std::chrono::duration<double>(clock_type::now() - core_->started).count();
    }
    // Outside the counter lock: the registry's samplers take `m`, so the
    // lock order is registry → m, never the reverse.
    s.telemetry_ticks = core_->registry.ticks();
    return s;
}

std::string tcp_server::metrics_text() const {
    metrics_extras extras;
    extras.stages = obs::stage_stats();
    extras.backend_caches.reserve(fleet_.num_backends());
    for (std::size_t k = 0; k < fleet_.num_backends(); ++k)
        extras.backend_caches.push_back(fleet_.backend(k).cache_stats());
    extras.federation = fleet_.health();
    return render_metrics(stats(), fleet_.stats(), extras);
}

}  // namespace fisone::net
