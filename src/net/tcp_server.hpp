#pragma once

/// \file tcp_server.hpp
/// The network front door: an epoll-based TCP server that speaks the
/// existing `"FIS1"` frame contract to many concurrent connections and
/// fronts a `federation::federated_server` fleet (one backend or many).
/// Nothing above the socket is new — connections feed the same
/// `api::codec` and the same session dispatch the stream/loopback
/// transports use, which is what keeps the TCP path byte-identical to
/// them.
///
/// **Connection model.** One OS thread runs the epoll loop (`run()`);
/// pipeline work happens on the fleet's own worker pools. Each accepted
/// connection opens its own fleet session, and that session is the
/// connection's correlation-id space: requests are forwarded under the
/// client's own ids (two clients both using correlation id 1 never
/// collide), and the session's typed sink hands each answer back as the
/// `api::response` plus its encoded frame — the front door reads the id
/// and kind off the message and forwards the bytes verbatim. Responses
/// stream back in completion order, interleaved across a connection's
/// requests exactly as jobs finish. `cancel_job` passes through to the
/// session, which answers `accepted = false` for an unknown or finished
/// target. A job request whose id is already in flight on its connection
/// is refused before admission with `error_response{bad_request}` (its
/// answers could not be told apart from the first request's) and counted
/// in `protocol_errors`. `flush` is a per-connection barrier over the
/// connection's own in-flight requests (it never blocks the event loop).
/// Which thread runs the response sink, what it may own, and the teardown
/// order are the fleet's lifetime rule (`federated_server.hpp`).
///
/// **Writes move no cached bytes.** Each connection queues its responses
/// as a FIFO of segments: owned bytes (coalesced) and, for a cache hit,
/// the result-cache entry's shared tail, held by `shared_ptr` until the
/// kernel has taken it. The loop flushes the queue with `sendmsg` over up
/// to 16 segments, so a cached 40 KB answer is copied once, by the kernel;
/// only its per-answer head is encoded. The loop never wakes itself: an
/// answer buffered on the loop thread (a cache hit answered inline) is
/// flushed at the top of the next pass, before the loop waits, so only
/// other threads write the wakeup eventfd. A `recv` shorter than the read
/// chunk ends the read, since the level-triggered epoll reports the
/// socket again when more bytes arrive.
///
/// **Overload behavior is explicit.** A bounded global admission count
/// (`max_inflight_requests`) caps job requests forwarded to the fleet;
/// at the bound, new `identify_*` requests are answered immediately with
/// a typed `error_response{overloaded}` — shed, never queued into
/// unbounded latency. Keep the bound at or below the backing service's
/// `max_pending_jobs` so a forwarded submission never blocks the loop.
/// Slow readers get the same treatment on the write side: each
/// connection's response buffer is bounded (`max_write_buffer`), and a
/// connection that lets it fill is evicted rather than allowed to pin
/// memory (frames are dropped whole; the close is the shed signal).
///
/// **Graceful drain.** `drain()` (thread-safe — call it from a signal
/// waiter) stops accepting, lets every admitted request finish, flushes
/// buffered responses, then closes; job frames arriving mid-drain are
/// shed with `error_response{draining}`. `run()` returns once the last
/// connection is closed and the last admitted request has completed.
/// `stop()` is the hard variant: close everything now.
///
/// **Metrics & traces.** A connection whose first bytes are not the FIS1
/// magic is treated as a plaintext probe: `GET /metrics HTTP/1.x` (e.g.
/// curl) gets a Prometheus text-format page over HTTP, the bare line
/// `METRICS` gets the raw page — transport counters, admission/shed
/// counts, request latency quantiles, per-backend cache counters, stage
/// latency summaries, and the fleet's `get_stats` view (see
/// `metrics.hpp`). `GET /dump_trace` (or the bare line `DUMP_TRACE`)
/// answers the current span tape as Chrome trace-event JSON
/// (`obs::chrome_trace_json()`), loadable in Perfetto.
///
/// **Live telemetry.** The loop drives a windowed
/// `obs::telemetry_registry` (admission/shed/response counters, open
/// connection and in-flight gauges, the request-latency histogram) by
/// bounding its epoll wait to the next window boundary
/// (`telemetry_window_ms`). A framed client sends `subscribe_stats` to
/// open a standing stream on its connection: the server acks with
/// `watch_ack`, then pushes one `stats_update` frame per elapsed client
/// interval (rounded up to the window), each carrying one completed
/// window — per-window shed counts, goodput, and latency percentiles.
/// This is the closed-loop signal `bench/bench_capacity` steps offered
/// load against. `subscribe_stats` is answered here, not by the fleet:
/// the admission and shed counters it exists to expose live at the front
/// door.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "federation/federated_server.hpp"
#include "metrics.hpp"
#include "socket.hpp"

namespace fisone::net {

/// Front-door configuration.
struct tcp_server_config {
    std::string host = "127.0.0.1";  ///< numeric IPv4 listen address
    std::uint16_t port = 0;          ///< 0 = kernel-assigned (read back via `port()`)
    int backlog = 128;
    /// Accepted connections beyond this are closed immediately (counted
    /// as `connections_refused`).
    std::size_t max_connections = 64;
    /// Global admission bound: job requests (`identify_*`) in flight at
    /// once. At the bound new jobs shed with `error_code::overloaded`.
    /// Keep <= the backing service's `max_pending_jobs` (default 64) so a
    /// forwarded submission can never block the event loop.
    std::size_t max_inflight_requests = 32;
    /// Per-connection response-buffer bound in bytes, counting every
    /// queued byte (shared cache tails included). A connection that fills
    /// it (a slow or stuck reader) is evicted.
    std::size_t max_write_buffer = std::size_t{8} << 20;
    /// Bound on a plaintext (metrics-probe) request line.
    std::size_t max_text_line = 4096;
    /// Telemetry window length in milliseconds: how often the event loop
    /// closes a `obs::telemetry_registry` window (bounding the epoll wait
    /// instead of blocking forever) and services `subscribe_stats`
    /// streams. 0 disables ticking entirely — the loop blocks until I/O,
    /// `subscribe_stats` still acks but never pushes.
    std::uint32_t telemetry_window_ms = 1000;
    /// Closed telemetry windows retained for inspection (ring size).
    std::size_t telemetry_ring_windows = 8;
    /// Slow-request log threshold in seconds (net-level wall time,
    /// admission → last response frame). A completed request at or over
    /// the threshold emits one structured JSON line — with its span
    /// breakdown inline when tracing is enabled — through `slow_log`.
    /// 0 disables the log entirely.
    double slow_request_seconds = 0.0;
    /// Sink for slow-request lines (no trailing newline). Unset = stderr.
    /// Runs on whichever thread completed the request; must not block.
    std::function<void(const std::string&)> slow_log;
};

class tcp_server {
public:
    /// Binds and listens immediately (so `port()` is known before
    /// `run()`), but accepts nothing until `run()`. \p fleet must outlive
    /// the `tcp_server` *and* its in-flight jobs (destroy the fleet after
    /// `run()` has returned).
    /// \throws std::system_error on socket/bind/listen failure,
    ///         std::invalid_argument on a bad host or zero bounds.
    explicit tcp_server(federation::federated_server& fleet, tcp_server_config cfg = {});

    /// Closes the listener and the wakeup fd. `run()` must have returned
    /// (or never been called).
    ~tcp_server();

    tcp_server(const tcp_server&) = delete;
    tcp_server& operator=(const tcp_server&) = delete;

    /// The bound listen port.
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// The event loop: accept, read, dispatch, write, until a `drain()`
    /// completes or `stop()` lands. Call from exactly one thread.
    void run();

    /// Begin graceful drain (idempotent, callable from any thread): stop
    /// accepting, finish admitted requests, flush, close, then `run()`
    /// returns.
    void drain();

    /// Hard stop: close every connection now; `run()` returns without
    /// waiting for in-flight jobs (the fleet's destructor still does).
    void stop();

    /// Point-in-time transport counters + request-latency percentiles.
    [[nodiscard]] tcp_server_stats stats() const;

    /// The plaintext metrics page (exactly what the `/metrics` probe
    /// serves): `stats()` + the fleet's `get_stats` view, per-backend
    /// cache counters and fleet health.
    [[nodiscard]] std::string metrics_text() const;

private:
    struct core;
    struct conn;
    struct loop;

    federation::federated_server& fleet_;
    tcp_server_config cfg_;
    std::shared_ptr<core> core_;
    socket_fd listener_;
    std::uint16_t port_ = 0;
};

}  // namespace fisone::net
