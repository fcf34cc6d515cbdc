#pragma once

/// \file metrics.hpp
/// The front door's observability surface: `tcp_server_stats` (transport
/// counters + net-level request latency percentiles) and the plaintext
/// renderer behind the scrapeable metrics endpoint. The exposition format
/// is Prometheus text format v0.0.4 — `# HELP`/`# TYPE` comments, one
/// `name{labels} value` sample per line — so `curl host:port/metrics`
/// drops straight into any scraper. Latency distributions are published
/// twice: as summary quantiles (p50/p90/p99 read directly off the
/// bounded `obs::latency_histogram` each path keeps) and as real
/// histogram families (`_bucket` over the shared `obs::k_metrics_le_bounds`
/// ladder plus `_sum`/`_count`), so both quantile dashboards and
/// `histogram_quantile()` aggregation work against the same page.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/result_cache.hpp"
#include "federation/fault_tolerance.hpp"
#include "obs/trace.hpp"
#include "service/floor_service.hpp"

namespace fisone::net {

/// Point-in-time transport counters of a `tcp_server`. Totals are
/// monotonic over the server's lifetime; gauges are instantaneous.
struct tcp_server_stats {
    std::size_t connections_accepted = 0;  ///< total accepted (gauge: open)
    std::size_t connections_open = 0;
    std::size_t connections_refused = 0;  ///< beyond max_connections: accept+close
    /// Connections evicted because their write buffer hit the bound — the
    /// slow-reader shed path (bounded buffering, then the connection goes).
    std::size_t connections_closed_slow = 0;
    std::size_t frames_received = 0;   ///< complete request frames off the wire
    std::size_t responses_sent = 0;    ///< response frames fully handed to the kernel
    std::size_t responses_dropped = 0; ///< frames discarded on doomed connections
    /// Server-initiated `push_update` frames buffered to standing `watch`
    /// subscriptions (a subset of responses_sent — pushes answer no
    /// in-flight request).
    std::size_t pushes_sent = 0;
    /// Server-initiated `stats_update` frames buffered to standing
    /// `subscribe_stats` streams (also a subset of responses_sent).
    std::size_t stats_pushes_sent = 0;
    /// Live `subscribe_stats` streams across all connections (gauge).
    std::size_t stats_subscribers = 0;
    /// Typed error_responses for framing or decode failures, and for a
    /// job request refused because its correlation id is already in
    /// flight on its connection (never admitted).
    std::size_t protocol_errors = 0;
    std::size_t requests_admitted = 0; ///< jobs forwarded to the backend
    std::size_t requests_completed = 0;
    std::size_t requests_in_flight = 0;     ///< admitted - completed (gauge)
    std::size_t requests_shed_overload = 0; ///< typed `overloaded` shed replies
    std::size_t requests_shed_draining = 0; ///< typed `draining` shed replies
    std::size_t bytes_received = 0;
    std::size_t bytes_sent = 0;
    bool draining = false;  ///< between `drain()` and loop exit
    /// Net-level request wall latency (admission → last response frame
    /// buffered).
    obs::latency_summary request_latency;
    /// Telemetry windows closed so far (`telemetry_registry::ticks()`);
    /// stays 0 when `telemetry_window_ms` is 0.
    std::uint64_t telemetry_ticks = 0;
    /// Seconds since the server was constructed (scrape hygiene: lets a
    /// dashboard detect restarts and rate-normalise counters).
    double uptime_seconds = 0.0;
};

/// Optional page sections beyond the core net+service counters.
struct metrics_extras {
    /// Per-backend result-cache snapshots (entry k = backend k) — how the
    /// federated front door makes affinity-routing effectiveness visible
    /// per backend, not just as a fleet sum.
    std::vector<api::result_cache_stats> backend_caches;
    /// Per-stage span latency summaries (`obs::stage_stats()`); empty when
    /// tracing has never been enabled.
    std::vector<obs::stage_snapshot> stages;
    /// Fleet-health counters + per-backend breaker states
    /// (`fisone_federation_retries_total`, `fisone_federation_failovers_total`,
    /// `fisone_backend_up`); nullopt renders no federation families.
    std::optional<federation::health_snapshot> federation;
};

/// Render \p net + \p svc + \p extras as one Prometheus text-format page.
/// \p svc is the backend's `get_stats` view (every row of
/// `service::k_service_stat_fields`), so one scrape covers the whole
/// stack: build info, transport, admission, service, cache, per-backend
/// caches, fleet health and per-stage latency.
[[nodiscard]] std::string render_metrics(const tcp_server_stats& net,
                                         const service::service_stats& svc,
                                         const metrics_extras& extras);

}  // namespace fisone::net
