#pragma once

/// \file telemetry.hpp
/// Live telemetry for long-running servers: a bounded log-linear latency
/// histogram and a windowed time-series registry.
///
/// Exact percentiles (`util::percentile` over a sample vector) store every
/// observation — the right trade for a bench or test that records
/// thousands of values and then reports, the wrong one for a serve loop
/// fed millions of requests. `latency_histogram` is for those high-rate
/// paths: fixed memory (~26 KB), O(1) add, mergeable in any order, and
/// percentiles within a documented relative-error bound.
///
/// Error bound: values bucket log-linearly — `frexp` splits v into
/// m·2^e with m ∈ [0.5, 1), and each octave divides into
/// `k_sub_buckets` = 64 equal mantissa slices. A bucket's width over its
/// lower edge is at most 1/64, and percentiles report the bucket midpoint
/// (clamped into the observed [min, max]), so any reported percentile is
/// within **1/128 ≈ 0.79 %** of the exact nearest-rank value
/// (`k_max_relative_error`). Count, sum, min, and max are tracked exactly.
///
/// `telemetry_registry` turns lifetime-cumulative instruments into a
/// queryable time series: callers register counters (cumulative,
/// windows record deltas), gauges (windows record the sampled value), and
/// histograms (windows record `delta_since` the previous tick), then drive
/// `tick()` about once per window; the last N windows sit in a fixed ring,
/// queryable newest-last. This is what `subscribe_stats` streams and what
/// the capacity bench closes its loop on.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace fisone::obs {

/// The canonical `le` ladder (seconds) every Prometheus histogram family
/// is exposed against — one shared ladder so families stay comparable and
/// the exposition size stays fixed. `le="+Inf"` is implied (the family's
/// `_count`).
inline constexpr std::array<double, 14> k_metrics_le_bounds = {
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1,    0.25,  0.5,    1.0,   2.5,  5.0,   10.0};

/// Bounded log-linear (HdrHistogram-style) latency histogram in seconds.
/// Not thread-safe; callers snapshot/merge under their own locks.
class latency_histogram {
public:
    /// Mantissa slices per octave. 64 slices bound bucket width at 1/64
    /// of the bucket's lower edge.
    static constexpr std::size_t k_sub_buckets = 64;
    /// Exponent range covered without clamping: 2^-30 ≈ 0.93 ns up to
    /// 2^21 ≈ 24 days. Values outside clamp to the edge buckets (their
    /// count/sum/min/max stay exact; only the percentile position clamps).
    static constexpr int k_min_exponent = -30;
    static constexpr int k_max_exponent = 21;
    /// Worst-case relative error of any reported percentile against the
    /// exact nearest-rank value, for in-range positive observations:
    /// half a bucket width over the bucket's lower edge = 1/(2·64).
    static constexpr double k_max_relative_error = 1.0 / (2.0 * k_sub_buckets);
    /// Bucket 0 holds zero/negative/NaN observations; the rest are
    /// (exponent, mantissa-slice) pairs.
    static constexpr std::size_t k_num_buckets =
        1 + static_cast<std::size_t>(k_max_exponent - k_min_exponent + 1) * k_sub_buckets;

    /// Record one observation (seconds). Zero, negative, and NaN land in
    /// the dedicated zero bucket; ±∞ clamps to the edge buckets.
    void add(double v) noexcept;

    /// Fold \p other into this histogram. Bucket counts add, so merging is
    /// exactly order-insensitive: any merge tree over the same
    /// observations yields identical buckets — and thus identical
    /// percentiles — as one histogram fed the pooled data.
    void merge(const latency_histogram& other) noexcept;

    /// The observations recorded since \p earlier, assuming \p earlier is
    /// a previous snapshot of this histogram (bucket-wise saturating
    /// subtraction; a non-prefix argument yields a valid but meaningless
    /// histogram). Min/max of the delta are reconstructed from the first
    /// and last non-empty delta buckets, so they carry the bucket error
    /// bound rather than being exact.
    [[nodiscard]] latency_histogram delta_since(const latency_histogram& earlier) const noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    /// Exact sum of recorded observations.
    [[nodiscard]] double sum() const noexcept { return sum_; }
    /// Exact smallest / largest observation (0 when empty).
    [[nodiscard]] double min() const noexcept { return min_; }
    [[nodiscard]] double max() const noexcept { return max_; }

    /// Nearest-rank percentile (the `util::percentile_sorted` rank rule:
    /// rank = ceil(p/100 · count), p = 0 yields the minimum), reported as
    /// the owning bucket's midpoint clamped into [min, max] — within
    /// `k_max_relative_error` of the exact value.
    /// \throws std::invalid_argument when empty or \p p outside [0, 100].
    [[nodiscard]] double percentile(double p) const;

    /// `percentile(p)`, but 0.0 on an empty histogram.
    [[nodiscard]] double percentile_or_zero(double p) const {
        return count_ == 0 ? 0.0 : percentile(p);
    }

    /// Observations known to be ≤ \p bound: the summed counts of every
    /// bucket whose upper edge is ≤ \p bound (conservative for a bucket
    /// straddling the bound). Monotone non-decreasing in \p bound — the
    /// shape a Prometheus `_bucket`/`le` ladder needs.
    [[nodiscard]] std::uint64_t cumulative_le(double bound) const noexcept;

    /// `cumulative_le` evaluated over `k_metrics_le_bounds` — the vector a
    /// Prometheus `_bucket` exposition renders directly.
    [[nodiscard]] std::vector<std::uint64_t> le_counts() const;

private:
    static std::size_t bucket_index(double v) noexcept;
    static double bucket_midpoint(std::size_t index) noexcept;
    static double bucket_upper_edge(std::size_t index) noexcept;

    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::array<std::uint64_t, k_num_buckets> buckets_{};
};

/// What every served latency distribution publishes: nearest-rank
/// p50/p90/p99 (0 when empty; within
/// `latency_histogram::k_max_relative_error`), the exact count and sum, and
/// the cumulative counts over `k_metrics_le_bounds` (the Prometheus
/// `_bucket` ladder). Field order is the `get_stats` wire order. An empty
/// `le` means nothing was summarised.
struct latency_summary {
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<std::uint64_t> le;
};

/// \p h as a `latency_summary` (its `le` always holds one count per bound).
[[nodiscard]] latency_summary summarize(const latency_histogram& h);

/// Windowed time-series registry: registered instruments are sampled at
/// every `tick()` into a fixed ring of per-window snapshots. Register
/// everything before the first tick (late registrations join from the
/// next tick; earlier windows simply lack the new column). Thread-safe.
class telemetry_registry {
public:
    using value_fn = std::function<double()>;
    using histogram_fn = std::function<latency_histogram()>;

    /// \p ring_windows is the fixed number of retained windows (≥ 1).
    /// \p epoch_seconds is the construction instant on the caller's clock
    /// (the same clock later fed to `tick()`): the first window's
    /// start/duration measure from it, so a first window carrying deltas
    /// also carries a real duration.
    explicit telemetry_registry(std::size_t ring_windows = 8, double epoch_seconds = 0.0);

    /// Register a cumulative counter; each window records the delta since
    /// the previous tick (the first window: since registration).
    void add_counter(std::string name, value_fn sample);
    /// Register a gauge; each window records the value sampled at its tick.
    void add_gauge(std::string name, value_fn sample);
    /// Register a lifetime-cumulative histogram; each window records
    /// `delta_since` the previous tick's snapshot.
    void add_histogram(std::string name, histogram_fn snapshot);

    /// One completed window. Vectors are parallel to the name accessors.
    struct window {
        std::uint64_t seq = 0;           ///< 1-based tick number
        double start_seconds = 0.0;      ///< previous tick's timestamp
        double duration_seconds = 0.0;   ///< actual elapsed, not nominal
        std::vector<double> counters;    ///< per-window deltas
        std::vector<double> gauges;      ///< instantaneous samples
        std::vector<latency_histogram> histograms;  ///< per-window deltas
    };

    /// Close the current window at \p now_seconds and push it into the
    /// ring (evicting the oldest once full).
    void tick(double now_seconds);

    /// The newest ≤ \p n windows, oldest first. Empty before the first tick.
    [[nodiscard]] std::vector<window> recent(std::size_t n) const;
    /// The newest window, if any tick has happened.
    [[nodiscard]] std::optional<window> latest() const;

    [[nodiscard]] std::vector<std::string> counter_names() const;
    [[nodiscard]] std::vector<std::string> gauge_names() const;
    [[nodiscard]] std::vector<std::string> histogram_names() const;
    /// Ring capacity in windows.
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    /// Ticks so far (== the newest window's seq).
    [[nodiscard]] std::uint64_t ticks() const;

private:
    struct counter_slot {
        std::string name;
        value_fn sample;
        double prev = 0.0;  ///< cumulative value at the previous tick
    };
    struct gauge_slot {
        std::string name;
        value_fn sample;
    };
    struct histogram_slot {
        std::string name;
        histogram_fn snapshot;
        latency_histogram prev;  ///< snapshot at the previous tick
    };

    mutable std::mutex m_;
    std::size_t capacity_;
    std::vector<counter_slot> counters_;
    std::vector<gauge_slot> gauges_;
    std::vector<histogram_slot> histograms_;
    std::vector<window> ring_;   ///< ring_[ (first_ + i) % capacity_ ]
    std::size_t first_ = 0;
    std::size_t size_ = 0;
    std::uint64_t seq_ = 0;
    double prev_time_ = 0.0;  ///< previous tick (or the construction epoch)
};

}  // namespace fisone::obs
