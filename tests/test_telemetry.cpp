// Tests for the live telemetry layer: the bounded log-linear latency
// histogram keeps its documented relative-error contract against the
// exact nearest-rank `util::percentile` under randomized inputs, merging is
// order-independent down to the bucket level, delta_since recovers
// exactly the observations added between snapshots, the cumulative-le
// ladder is monotone and conservative, the windowed registry rolls
// per-window deltas into a fixed ring that evicts oldest-first — and the
// full render_metrics page passes a Prometheus text-format lint (name
// and label grammar, every sample owned by a declared family, bucket
// ladders monotone with +Inf == _count).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"

namespace {

using namespace fisone;
using obs::latency_histogram;

// Observations spanning the magnitudes a serve path actually sees:
// log-uniform between ~1 microsecond and ~10 seconds.
std::vector<double> random_latencies(std::mt19937_64& rng, std::size_t n) {
    std::uniform_real_distribution<double> log_range(std::log(1e-6), std::log(10.0));
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(std::exp(log_range(rng)));
    return out;
}

// --- histogram accuracy ------------------------------------------------------

TEST(LatencyHistogram, PercentilesMatchExactNearestRankWithinDocumentedBound) {
    const double bound = latency_histogram::k_max_relative_error;
    const double percentiles[] = {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0};
    for (std::uint64_t seed : {11u, 222u, 3333u}) {
        std::mt19937_64 rng(seed);
        const std::vector<double> samples = random_latencies(rng, 5000);
        latency_histogram hist;
        double sum = 0.0;
        for (double v : samples) {
            hist.add(v);
            sum += v;
        }
        ASSERT_EQ(hist.count(), samples.size());
        EXPECT_NEAR(hist.sum(), sum, 1e-9 * std::abs(sum));
        EXPECT_DOUBLE_EQ(hist.min(), *std::min_element(samples.begin(), samples.end()));
        EXPECT_DOUBLE_EQ(hist.max(), *std::max_element(samples.begin(), samples.end()));
        for (double p : percentiles) {
            const double want = util::percentile(samples, p);
            const double got = hist.percentile(p);
            EXPECT_LE(std::abs(got - want), bound * want + 1e-12)
                << "seed " << seed << " p" << p << ": exact " << want << ", histogram "
                << got;
        }
    }
}

TEST(LatencyHistogram, ZeroNegativeAndNanLandInTheZeroBucket) {
    latency_histogram h;
    h.add(0.0);
    h.add(-1.5);
    h.add(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.min(), -1.5);  // min/max stay exact even off-scale
    // All three sit in the zero bucket; the reported median is its
    // representative clamped into [min, max], i.e. nonpositive.
    EXPECT_LE(h.percentile(50.0), 0.0);
}

TEST(LatencyHistogram, EmptyPercentileThrowsAndOrZeroDoesNot) {
    latency_histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_THROW(static_cast<void>(h.percentile(50.0)), std::invalid_argument);
    EXPECT_DOUBLE_EQ(h.percentile_or_zero(99.0), 0.0);
    h.add(1.0);
    EXPECT_THROW(static_cast<void>(h.percentile(-1.0)), std::invalid_argument);
    EXPECT_THROW(static_cast<void>(h.percentile(100.5)), std::invalid_argument);
}

// --- merging -----------------------------------------------------------------

TEST(LatencyHistogram, MergeIsOrderIndependentAndEqualsPooledFeed) {
    std::mt19937_64 rng(77);
    constexpr std::size_t k_shards = 6;
    std::vector<latency_histogram> shards(k_shards);
    latency_histogram pooled;
    for (std::size_t s = 0; s < k_shards; ++s) {
        for (double v : random_latencies(rng, 300 + 97 * s)) {
            shards[s].add(v);
            pooled.add(v);
        }
    }
    latency_histogram forward, backward;
    for (std::size_t s = 0; s < k_shards; ++s) forward.merge(shards[s]);
    for (std::size_t s = k_shards; s-- > 0;) backward.merge(shards[s]);

    for (const latency_histogram* m : {&forward, &backward}) {
        EXPECT_EQ(m->count(), pooled.count());
        EXPECT_DOUBLE_EQ(m->min(), pooled.min());
        EXPECT_DOUBLE_EQ(m->max(), pooled.max());
        EXPECT_EQ(m->le_counts(), pooled.le_counts());
        for (double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0})
            EXPECT_DOUBLE_EQ(m->percentile(p), pooled.percentile(p)) << "p" << p;
    }
    // Sums differ only by float addition order.
    EXPECT_NEAR(forward.sum(), pooled.sum(), 1e-9 * std::abs(pooled.sum()));
}

TEST(LatencyHistogram, DeltaSinceRecoversExactlyTheNewObservations) {
    std::mt19937_64 rng(5);
    latency_histogram h;
    for (double v : random_latencies(rng, 400)) h.add(v);
    const latency_histogram snapshot = h;

    const std::vector<double> added = random_latencies(rng, 250);
    double added_sum = 0.0;
    for (double v : added) {
        h.add(v);
        added_sum += v;
    }
    const latency_histogram delta = h.delta_since(snapshot);
    ASSERT_EQ(delta.count(), added.size());
    EXPECT_NEAR(delta.sum(), added_sum, 1e-9 * std::abs(added_sum));
    // Delta percentiles hold the same bound against the added set alone.
    for (double p : {50.0, 90.0, 99.0}) {
        const double want = util::percentile(added, p);
        EXPECT_LE(std::abs(delta.percentile(p) - want),
                  latency_histogram::k_max_relative_error * want + 1e-12)
            << "p" << p;
    }
    // Nothing new since the snapshot: an empty delta.
    EXPECT_TRUE(h.delta_since(h).empty());
}

// --- cumulative-le ladder ----------------------------------------------------

TEST(LatencyHistogram, CumulativeLeIsMonotoneConservativeAndCapped) {
    std::mt19937_64 rng(31);
    const std::vector<double> samples = random_latencies(rng, 2000);
    latency_histogram h;
    for (double v : samples) h.add(v);

    const std::vector<std::uint64_t> le = h.le_counts();
    ASSERT_EQ(le.size(), obs::k_metrics_le_bounds.size());
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < le.size(); ++i) {
        EXPECT_GE(le[i], prev) << "ladder must be monotone at bound " << i;
        EXPECT_LE(le[i], h.count());
        // Conservative: only buckets wholly ≤ the bound are counted, so
        // the ladder never overstates the true cumulative count.
        const double bound = obs::k_metrics_le_bounds[i];
        const auto true_le = static_cast<std::uint64_t>(
            std::count_if(samples.begin(), samples.end(), [&](double v) { return v <= bound; }));
        EXPECT_LE(le[i], true_le) << "bound " << bound;
        prev = le[i];
    }
    EXPECT_EQ(h.cumulative_le(1e9), h.count());
}

// --- windowed registry -------------------------------------------------------

TEST(TelemetryRegistry, WindowsRecordDeltasAndTheRingEvictsOldestFirst) {
    obs::telemetry_registry reg(3);
    double cumulative = 0.0;
    double gauge_value = 0.0;
    latency_histogram lifetime;
    reg.add_counter("requests", [&] { return cumulative; });
    reg.add_gauge("inflight", [&] { return gauge_value; });
    reg.add_histogram("latency", [&] { return lifetime; });
    EXPECT_EQ(reg.capacity(), 3u);
    EXPECT_EQ(reg.ticks(), 0u);
    EXPECT_FALSE(reg.latest().has_value());

    // Five windows: window k adds k observations and k to the counter.
    for (std::uint64_t k = 1; k <= 5; ++k) {
        cumulative += static_cast<double>(k);
        gauge_value = static_cast<double>(10 * k);
        for (std::uint64_t i = 0; i < k; ++i) lifetime.add(0.001 * static_cast<double>(k));
        reg.tick(static_cast<double>(k));
    }
    EXPECT_EQ(reg.ticks(), 5u);

    const std::vector<obs::telemetry_registry::window> recent = reg.recent(10);
    ASSERT_EQ(recent.size(), 3u);  // ring held at capacity, oldest two gone
    for (std::size_t i = 0; i < recent.size(); ++i) {
        const obs::telemetry_registry::window& w = recent[i];
        const auto k = static_cast<double>(i + 3);  // windows 3, 4, 5 survive
        EXPECT_EQ(w.seq, static_cast<std::uint64_t>(k));
        EXPECT_DOUBLE_EQ(w.start_seconds, k - 1.0);
        EXPECT_DOUBLE_EQ(w.duration_seconds, 1.0);
        ASSERT_EQ(w.counters.size(), 1u);
        EXPECT_DOUBLE_EQ(w.counters[0], k);  // the delta, not the cumulative
        ASSERT_EQ(w.gauges.size(), 1u);
        EXPECT_DOUBLE_EQ(w.gauges[0], 10.0 * k);  // instantaneous
        ASSERT_EQ(w.histograms.size(), 1u);
        EXPECT_EQ(w.histograms[0].count(), static_cast<std::uint64_t>(k));  // per-window
    }
    ASSERT_TRUE(reg.latest().has_value());
    EXPECT_EQ(reg.latest()->seq, 5u);
    EXPECT_EQ(reg.recent(2).size(), 2u);
    EXPECT_EQ(reg.recent(2).front().seq, 4u);

    ASSERT_EQ(reg.counter_names(), std::vector<std::string>{"requests"});
    ASSERT_EQ(reg.gauge_names(), std::vector<std::string>{"inflight"});
    ASSERT_EQ(reg.histogram_names(), std::vector<std::string>{"latency"});
}

// --- Prometheus exposition lint ----------------------------------------------

bool valid_metric_name(const std::string& s) {
    if (s.empty()) return false;
    if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_' || s[0] == ':'))
        return false;
    for (char c : s)
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':'))
            return false;
    return true;
}

bool valid_label_name(const std::string& s) {
    if (s.empty()) return false;
    if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) return false;
    for (char c : s)
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) return false;
    return true;
}

struct parsed_sample {
    std::string name;
    std::map<std::string, std::string> labels;
    double value = 0.0;
};

// Parse one exposition sample line; ADD_FAILURE and return nullopt on any
// grammar violation.
std::optional<parsed_sample> parse_sample(const std::string& line) {
    parsed_sample out;
    std::size_t i = line.find_first_of("{ ");
    if (i == std::string::npos) {
        ADD_FAILURE() << "sample line without value: " << line;
        return std::nullopt;
    }
    out.name = line.substr(0, i);
    if (!valid_metric_name(out.name)) {
        ADD_FAILURE() << "bad metric name in: " << line;
        return std::nullopt;
    }
    if (line[i] == '{') {
        const std::size_t close = line.find('}', i);
        if (close == std::string::npos) {
            ADD_FAILURE() << "unterminated label set: " << line;
            return std::nullopt;
        }
        std::size_t pos = i + 1;
        while (pos < close) {
            const std::size_t eq = line.find('=', pos);
            if (eq == std::string::npos || eq > close || line[eq + 1] != '"') {
                ADD_FAILURE() << "bad label pair in: " << line;
                return std::nullopt;
            }
            const std::string key = line.substr(pos, eq - pos);
            if (!valid_label_name(key)) {
                ADD_FAILURE() << "bad label name '" << key << "' in: " << line;
                return std::nullopt;
            }
            const std::size_t vend = line.find('"', eq + 2);
            if (vend == std::string::npos || vend > close) {
                ADD_FAILURE() << "unterminated label value in: " << line;
                return std::nullopt;
            }
            out.labels[key] = line.substr(eq + 2, vend - eq - 2);
            pos = vend + 1;
            if (pos < close && line[pos] == ',') ++pos;
        }
        i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
        ADD_FAILURE() << "no space before value in: " << line;
        return std::nullopt;
    }
    const std::string value_str = line.substr(i + 1);
    std::size_t consumed = 0;
    try {
        out.value = std::stod(value_str, &consumed);
    } catch (const std::exception&) {
        ADD_FAILURE() << "unparseable value in: " << line;
        return std::nullopt;
    }
    if (consumed != value_str.size()) {
        ADD_FAILURE() << "trailing junk after value in: " << line;
        return std::nullopt;
    }
    return out;
}

// A render_metrics page exercising every family: all net counters set,
// real histogram ladders, backend caches, stage summaries + histograms,
// federation health.
std::string full_metrics_page() {
    latency_histogram lat;
    for (int i = 1; i <= 200; ++i) lat.add(0.0001 * i);

    net::tcp_server_stats s;
    s.connections_accepted = 9;
    s.connections_open = 2;
    s.connections_refused = 1;
    s.connections_closed_slow = 1;
    s.frames_received = 40;
    s.responses_sent = 38;
    s.responses_dropped = 1;
    s.pushes_sent = 3;
    s.stats_pushes_sent = 5;
    s.stats_subscribers = 1;
    s.protocol_errors = 2;
    s.requests_admitted = 30;
    s.requests_completed = 28;
    s.requests_in_flight = 2;
    s.requests_shed_overload = 4;
    s.requests_shed_draining = 1;
    s.bytes_received = 123456;
    s.bytes_sent = 654321;
    s.request_latency = obs::summarize(lat);
    s.telemetry_ticks = 12;
    s.uptime_seconds = 3.5;

    service::service_stats svc;
    svc.jobs_submitted = 20;
    svc.jobs_queued = 3;
    svc.jobs_running = 2;
    svc.jobs_done = 18;
    svc.jobs_cancelled = 4;
    svc.buildings_done = 25;
    svc.buildings_ok = 24;
    svc.buildings_failed = 1;
    svc.buildings_cancelled = 5;
    svc.latency = obs::summarize(lat);
    svc.cache_hits = 7;
    svc.cache_misses = 13;
    svc.cache_evictions = 6;
    svc.ingest_appends = 8;
    svc.ingest_dirty_buildings = 11;
    svc.watch_subscribers = 9;

    net::metrics_extras extras;
    api::result_cache_stats cache;
    cache.hits = 4;
    cache.misses = 6;
    cache.entries = 5;
    cache.evictions = 1;
    extras.backend_caches = {cache, cache};
    extras.stages = {{"api.identify", obs::summarize(lat)}};
    federation::health_snapshot health;
    health.retries = 2;
    health.failovers = 1;
    health.backend_up = {true, false};
    extras.federation = health;
    return net::render_metrics(s, svc, extras);
}

TEST(MetricsLint, FullPagePassesPrometheusTextFormatLint) {
    const std::string page = full_metrics_page();
    std::map<std::string, std::string> declared_type;  // family -> type
    std::vector<parsed_sample> samples;
    std::set<std::string> seen_lines;  // duplicate (name + labels) detector

    std::istringstream in(page);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream meta(line.substr(7));
            std::string name, type;
            meta >> name >> type;
            EXPECT_TRUE(valid_metric_name(name)) << line;
            EXPECT_TRUE(type == "counter" || type == "gauge" || type == "summary" ||
                        type == "histogram" || type == "untyped")
                << line;
            EXPECT_EQ(declared_type.count(name), 0u) << "family declared twice: " << name;
            declared_type[name] = type;
            continue;
        }
        if (line.rfind("# HELP ", 0) == 0 || line[0] == '#') continue;
        std::optional<parsed_sample> s = parse_sample(line);
        if (!s) continue;
        const std::string identity = line.substr(0, line.rfind(' '));
        EXPECT_TRUE(seen_lines.insert(identity).second) << "duplicate sample: " << identity;
        samples.push_back(std::move(*s));
    }
    ASSERT_GT(samples.size(), 30u);
    ASSERT_GT(declared_type.size(), 10u);

    // Every sample resolves to a declared family — either its own name,
    // or a _bucket/_sum/_count child of a histogram/summary family.
    std::set<std::string> families_with_samples;
    for (const parsed_sample& s : samples) {
        EXPECT_EQ(s.name.rfind("fisone_", 0), 0u) << "unprefixed metric: " << s.name;
        std::string family = s.name;
        auto declared = declared_type.find(family);
        if (declared == declared_type.end()) {
            for (const char* suffix : {"_bucket", "_sum", "_count"}) {
                const std::string suf(suffix);
                if (family.size() > suf.size() &&
                    family.compare(family.size() - suf.size(), suf.size(), suf) == 0) {
                    const std::string base = family.substr(0, family.size() - suf.size());
                    auto it = declared_type.find(base);
                    if (it != declared_type.end() &&
                        (it->second == "histogram" || it->second == "summary")) {
                        if (suf == "_bucket" && it->second != "histogram") continue;
                        family = base;
                        declared = it;
                        break;
                    }
                }
            }
        }
        ASSERT_NE(declared, declared_type.end()) << "sample without # TYPE: " << s.name;
        families_with_samples.insert(family);
        if (s.labels.count("quantile")) {
            EXPECT_EQ(declared->second, "summary") << s.name;
        }
        if (s.labels.count("le")) {
            EXPECT_EQ(declared->second, "histogram") << s.name;
            EXPECT_NE(s.name.find("_bucket"), std::string::npos) << s.name;
        }
    }
    for (const auto& [family, type] : declared_type)
        EXPECT_TRUE(families_with_samples.count(family))
            << "declared family has no samples: " << family << " (" << type << ")";

    // Histogram contract: per family + non-le label-set, the bucket ladder
    // is monotone in le, ends at +Inf, and +Inf equals the _count sample.
    std::map<std::string, std::vector<std::pair<double, double>>> ladders;
    std::map<std::string, double> counts;
    for (const parsed_sample& s : samples) {
        auto other_labels = [&] {
            std::string key;
            for (const auto& [k, v] : s.labels)
                if (k != "le") key += k + "=" + v + ",";
            return key;
        };
        if (auto it = s.labels.find("le"); it != s.labels.end()) {
            const std::string base = s.name.substr(0, s.name.size() - 7);  // strip _bucket
            const double le = it->second == "+Inf" ? std::numeric_limits<double>::infinity()
                                                   : std::stod(it->second);
            ladders[base + "|" + other_labels()].emplace_back(le, s.value);
        } else if (s.name.size() > 6 &&
                   s.name.compare(s.name.size() - 6, 6, "_count") == 0 &&
                   declared_type.count(s.name.substr(0, s.name.size() - 6)) &&
                   declared_type.at(s.name.substr(0, s.name.size() - 6)) == "histogram") {
            counts[s.name.substr(0, s.name.size() - 6) + "|" + other_labels()] = s.value;
        }
    }
    ASSERT_FALSE(ladders.empty());
    for (const auto& [key, ladder] : ladders) {
        double prev_le = -std::numeric_limits<double>::infinity();
        double prev_v = -1.0;
        for (const auto& [le, v] : ladder) {
            EXPECT_GT(le, prev_le) << key << ": le bounds must ascend in exposition order";
            EXPECT_GE(v, prev_v) << key << ": bucket ladder must be monotone";
            prev_le = le;
            prev_v = v;
        }
        ASSERT_TRUE(std::isinf(ladder.back().first)) << key << ": missing +Inf bucket";
        ASSERT_TRUE(counts.count(key)) << key << ": histogram without _count";
        EXPECT_DOUBLE_EQ(ladder.back().second, counts.at(key))
            << key << ": +Inf bucket must equal _count";
    }
    // The new histogram families are actually on the page.
    EXPECT_TRUE(declared_type.count("fisone_net_request_seconds"));
    EXPECT_TRUE(declared_type.count("fisone_service_building_seconds"));
    EXPECT_TRUE(declared_type.count("fisone_stage_duration_seconds"));
}

// The full page's bytes, pinned: a refactor of the renderer or of the stats
// structs must keep every family, help text, label and value where it is.
// The build-info sample is left out: its labels carry the compiler version
// and build type.
TEST(MetricsLint, FullPageBytesArePinned) {
    std::istringstream in(full_metrics_page());
    util::fnv1a64 h;
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        if (line.rfind("fisone_build_info{", 0) == 0) continue;
        for (const char c : line) h.byte(static_cast<std::uint8_t>(c));
        h.byte('\n');
        ++lines;
    }
    EXPECT_EQ(lines, 216u);
    EXPECT_EQ(h.digest(), 0x5e3c17d3f83cc23aULL);
}

}  // namespace
