#include "metrics.hpp"

#include <charconv>
#include <cmath>
#include <system_error>
#include <utility>

// Stamped by the build system; fall back to something honest when a TU is
// compiled outside CMake (e.g. a quick manual compile).
#ifndef FISONE_VERSION
#define FISONE_VERSION "dev"
#endif
#ifndef FISONE_BUILD_TYPE
#define FISONE_BUILD_TYPE "unspecified"
#endif

namespace fisone::net {

namespace {

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label(const char* s) {
    std::string out;
    for (const char* p = s; *p != '\0'; ++p) {
        switch (*p) {
            case '\\': out += "\\\\"; break;
            case '"': out += "\\\""; break;
            case '\n': out += "\\n"; break;
            default: out += *p;
        }
    }
    return out;
}

/// Shortest-round-trip number token (Prometheus accepts full doubles).
std::string num(double v) {
    if (std::isnan(v)) return "NaN";
    if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
    char buf[64];
    const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc{} ? std::string(buf, p) : std::string("0");
}

/// Label scopes of one latency distribution: a label set such as
/// `stage="x"` (or empty) and that scope's summary.
using latency_scopes = std::vector<std::pair<std::string, const obs::latency_summary*>>;

class page {
public:
    void family(const char* name, const char* type, const char* help) {
        out_ += "# HELP ";
        out_ += name;
        out_ += ' ';
        out_ += help;
        out_ += "\n# TYPE ";
        out_ += name;
        out_ += ' ';
        out_ += type;
        out_ += '\n';
    }

    void sample(const char* name, double value, const char* labels = nullptr) {
        out_ += name;
        if (labels) {
            out_ += '{';
            out_ += labels;
            out_ += '}';
        }
        out_ += ' ';
        out_ += num(value);
        out_ += '\n';
    }

    void counter(const char* name, const char* help, double value) {
        family(name, "counter", help);
        sample(name, value);
    }

    void gauge(const char* name, const char* help, double value) {
        family(name, "gauge", help);
        sample(name, value);
    }

    /// One latency distribution per label scope, published twice under one help text: the
    /// summary family \p summary (p50/p90/p99, plus `_sum` and `_count`
    /// when \p summary_totals) and the histogram family \p histogram
    /// (`_bucket` over `obs::k_metrics_le_bounds`, the implied
    /// `le="+Inf"` = count, `_sum`, `_count`). A scope whose summary has no
    /// `le` ladder (nothing was summarised) gets no histogram children.
    void latency(const char* summary, const char* histogram, const char* help,
                 const latency_scopes& scopes, bool summary_totals) {
        family(summary, "summary", help);
        for (const auto& [labels, s] : scopes) {
            const std::string prefix = labels.empty() ? labels : labels + ",";
            sample(summary, s->p50, (prefix + "quantile=\"0.5\"").c_str());
            sample(summary, s->p90, (prefix + "quantile=\"0.9\"").c_str());
            sample(summary, s->p99, (prefix + "quantile=\"0.99\"").c_str());
            if (summary_totals) totals(summary, *s, labels);
        }
        const std::string bucket = std::string(histogram) + "_bucket";
        bool declared = false;
        for (const auto& [labels, s] : scopes) {
            if (s->le.empty()) continue;
            if (!declared) family(histogram, "histogram", help);
            declared = true;
            const std::string prefix = labels.empty() ? labels : labels + ",";
            for (std::size_t i = 0; i < s->le.size() && i < obs::k_metrics_le_bounds.size(); ++i) {
                const std::string l = prefix + "le=\"" + num(obs::k_metrics_le_bounds[i]) + "\"";
                sample(bucket.c_str(), static_cast<double>(s->le[i]), l.c_str());
            }
            const std::string inf = prefix + "le=\"+Inf\"";
            sample(bucket.c_str(), static_cast<double>(s->count), inf.c_str());
            totals(histogram, *s, labels);
        }
    }

    [[nodiscard]] std::string take() && { return std::move(out_); }

private:
    void totals(const char* name, const obs::latency_summary& s, const std::string& labels) {
        const char* l = labels.empty() ? nullptr : labels.c_str();
        sample((std::string(name) + "_sum").c_str(), s.sum, l);
        sample((std::string(name) + "_count").c_str(), static_cast<double>(s.count), l);
    }

    std::string out_;
};

}  // namespace

std::string render_metrics(const tcp_server_stats& net, const service::service_stats& svc,
                           const metrics_extras& extras) {
    page p;
    const auto d = [](std::size_t v) { return static_cast<double>(v); };

    // Build / process identity (scrape hygiene: restart detection and
    // "which binary answered this" without shelling into the host).
    p.family("fisone_build_info", "gauge",
             "build metadata; the value is constant 1, the info is in the labels");
    const std::string build_labels = "version=\"" + escape_label(FISONE_VERSION) +
                                     "\",compiler=\"" + escape_label(__VERSION__) +
                                     "\",build_type=\"" + escape_label(FISONE_BUILD_TYPE) +
                                     "\"";
    p.sample("fisone_build_info", 1.0, build_labels.c_str());
    p.gauge("fisone_uptime_seconds", "seconds since the front door was constructed",
            net.uptime_seconds);

    // Transport.
    p.counter("fisone_net_connections_accepted_total", "TCP connections accepted",
              d(net.connections_accepted));
    p.gauge("fisone_net_connections_open", "TCP connections currently open",
            d(net.connections_open));
    p.counter("fisone_net_connections_refused_total",
              "connections refused at the max_connections bound", d(net.connections_refused));
    p.counter("fisone_net_connections_closed_slow_total",
              "connections evicted by write-side shedding (slow readers)",
              d(net.connections_closed_slow));
    p.counter("fisone_net_frames_received_total", "complete request frames received",
              d(net.frames_received));
    p.counter("fisone_net_responses_sent_total", "response frames written to the kernel",
              d(net.responses_sent));
    p.counter("fisone_net_responses_dropped_total",
              "response frames dropped on dead or shed connections",
              d(net.responses_dropped));
    p.counter("fisone_net_pushes_total",
              "server-initiated push_update frames sent to watch subscribers",
              d(net.pushes_sent));
    p.counter("fisone_net_stats_pushes_total",
              "server-initiated stats_update frames sent to subscribe_stats streams",
              d(net.stats_pushes_sent));
    p.gauge("fisone_net_stats_subscribers",
            "live subscribe_stats streams across all connections",
            d(net.stats_subscribers));
    p.counter("fisone_net_telemetry_ticks_total", "telemetry windows closed so far",
              static_cast<double>(net.telemetry_ticks));
    p.counter("fisone_net_protocol_errors_total",
              "typed error responses for framing or decode failures and duplicate live ids",
              d(net.protocol_errors));
    p.counter("fisone_net_bytes_received_total", "bytes read off accepted sockets",
              d(net.bytes_received));
    p.counter("fisone_net_bytes_sent_total", "bytes written to accepted sockets",
              d(net.bytes_sent));

    // Admission.
    p.counter("fisone_net_requests_admitted_total",
              "job requests forwarded to the backend", d(net.requests_admitted));
    p.counter("fisone_net_requests_completed_total",
              "admitted requests that produced their last response",
              d(net.requests_completed));
    p.gauge("fisone_net_requests_in_flight", "admitted requests not yet completed",
            d(net.requests_in_flight));
    p.family("fisone_net_requests_shed_total", "counter",
             "job requests answered with a typed shed error_response");
    p.sample("fisone_net_requests_shed_total", d(net.requests_shed_overload),
             "reason=\"overload\"");
    p.sample("fisone_net_requests_shed_total", d(net.requests_shed_draining),
             "reason=\"draining\"");
    p.gauge("fisone_net_draining", "1 while the server is draining for shutdown",
            net.draining ? 1.0 : 0.0);
    // Summary quantiles plus the same distribution as a real histogram
    // (aggregable across instances with histogram_quantile()).
    p.latency("fisone_net_request_latency_seconds", "fisone_net_request_seconds",
              "request wall latency, admission to last response frame",
              {{"", &net.request_latency}}, false);

    // Backing service (the get_stats view).
    for (const service::stat_field& f : service::k_service_stat_fields) {
        switch (f.kind) {
            case service::stat_kind::counter: p.counter(f.metric, f.help, d(svc.*f.count)); break;
            case service::stat_kind::gauge: p.gauge(f.metric, f.help, d(svc.*f.count)); break;
            case service::stat_kind::latency:
                p.latency(f.metric, f.histogram, f.help, {{"", &(svc.*f.latency)}}, false);
                break;
        }
    }

    // Per-backend result caches: the sums above say whether caching works
    // at all; these say whether affinity routing keeps each backend warm.
    if (!extras.backend_caches.empty()) {
        p.family("fisone_backend_cache_hits_total", "counter",
                 "result-cache hits by backend");
        for (std::size_t k = 0; k < extras.backend_caches.size(); ++k) {
            const std::string l = "backend=\"" + std::to_string(k) + "\"";
            p.sample("fisone_backend_cache_hits_total", d(extras.backend_caches[k].hits),
                     l.c_str());
        }
        p.family("fisone_backend_cache_misses_total", "counter",
                 "result-cache misses by backend");
        for (std::size_t k = 0; k < extras.backend_caches.size(); ++k) {
            const std::string l = "backend=\"" + std::to_string(k) + "\"";
            p.sample("fisone_backend_cache_misses_total", d(extras.backend_caches[k].misses),
                     l.c_str());
        }
        p.family("fisone_backend_cache_evictions_total", "counter",
                 "result-cache LRU evictions by backend");
        for (std::size_t k = 0; k < extras.backend_caches.size(); ++k) {
            const std::string l = "backend=\"" + std::to_string(k) + "\"";
            p.sample("fisone_backend_cache_evictions_total",
                     d(extras.backend_caches[k].evictions), l.c_str());
        }
        p.family("fisone_backend_cache_entries", "gauge",
                 "result-cache resident entries by backend");
        for (std::size_t k = 0; k < extras.backend_caches.size(); ++k) {
            const std::string l = "backend=\"" + std::to_string(k) + "\"";
            p.sample("fisone_backend_cache_entries", d(extras.backend_caches[k].entries),
                     l.c_str());
        }
        p.family("fisone_backend_cache_warm_loaded", "gauge",
                 "entries restored from the persistent spill at startup, by backend");
        for (std::size_t k = 0; k < extras.backend_caches.size(); ++k) {
            const std::string l = "backend=\"" + std::to_string(k) + "\"";
            p.sample("fisone_backend_cache_warm_loaded",
                     d(extras.backend_caches[k].warm_loaded), l.c_str());
        }
    }

    // Fleet health: retry/failover throughput plus each backend's breaker
    // state — `fisone_backend_up == 0` is the page-the-operator signal.
    if (extras.federation) {
        const federation::health_snapshot& fh = *extras.federation;
        p.counter("fisone_federation_retries_total",
                  "requests re-dispatched after a transient failure or timeout",
                  d(fh.retries));
        p.counter("fisone_federation_failovers_total",
                  "retries that moved to a different backend", d(fh.failovers));
        p.family("fisone_federation_requests_failed_total", "counter",
                 "requests answered with a typed fault-tolerance error");
        p.sample("fisone_federation_requests_failed_total", d(fh.backend_unavailable),
                 "code=\"backend_unavailable\"");
        p.sample("fisone_federation_requests_failed_total", d(fh.deadline_exceeded),
                 "code=\"deadline_exceeded\"");
        p.family("fisone_backend_up", "gauge",
                 "1 when the backend's circuit breaker is closed (fully trusted)");
        for (std::size_t k = 0; k < fh.backend_up.size(); ++k) {
            const std::string l = "backend=\"" + std::to_string(k) + "\"";
            p.sample("fisone_backend_up", fh.backend_up[k] ? 1.0 : 0.0, l.c_str());
        }
    }

    // Per-stage span latency (the tracing subsystem's exact percentiles).
    // Absent until tracing has been enabled — a scraper sees the families
    // appear the moment spans start flowing.
    if (!extras.stages.empty()) {
        latency_scopes scopes;
        for (const obs::stage_snapshot& st : extras.stages)
            scopes.emplace_back("stage=\"" + escape_label(st.stage.c_str()) + "\"", &st.latency);
        p.latency("fisone_stage_seconds", "fisone_stage_duration_seconds",
                  "span wall time by pipeline/request stage (requires tracing enabled)", scopes,
                  true);
    }

    return std::move(p).take();
}

}  // namespace fisone::net
