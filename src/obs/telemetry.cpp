#include "telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace fisone::obs {

// --- latency_histogram -------------------------------------------------------

std::size_t latency_histogram::bucket_index(double v) noexcept {
    if (!(v > 0.0)) return 0;  // zero, negative, NaN
    if (std::isinf(v)) return k_num_buckets - 1;
    int e = 0;
    double m = std::frexp(v, &e);  // v = m · 2^e, m ∈ [0.5, 1)
    std::size_t sub = 0;
    if (e < k_min_exponent) {
        e = k_min_exponent;  // underflow clamps to the smallest bucket
    } else if (e > k_max_exponent) {
        e = k_max_exponent;  // overflow clamps to the largest bucket
        sub = k_sub_buckets - 1;
    } else {
        sub = static_cast<std::size_t>((m - 0.5) * 2.0 * static_cast<double>(k_sub_buckets));
        if (sub >= k_sub_buckets) sub = k_sub_buckets - 1;
    }
    return 1 + static_cast<std::size_t>(e - k_min_exponent) * k_sub_buckets + sub;
}

double latency_histogram::bucket_midpoint(std::size_t index) noexcept {
    if (index == 0) return 0.0;
    const std::size_t k = index - 1;
    const int e = k_min_exponent + static_cast<int>(k / k_sub_buckets);
    const auto sub = static_cast<double>(k % k_sub_buckets);
    const double slices = static_cast<double>(k_sub_buckets);
    const double mid = 0.5 + (sub + 0.5) / (2.0 * slices);
    return std::ldexp(mid, e);
}

double latency_histogram::bucket_upper_edge(std::size_t index) noexcept {
    if (index == 0) return 0.0;
    const std::size_t k = index - 1;
    const int e = k_min_exponent + static_cast<int>(k / k_sub_buckets);
    const auto sub = static_cast<double>(k % k_sub_buckets);
    const double slices = static_cast<double>(k_sub_buckets);
    return std::ldexp(0.5 + (sub + 1.0) / (2.0 * slices), e);
}

void latency_histogram::add(double v) noexcept {
    const double recorded = std::isnan(v) ? 0.0 : v;
    if (count_ == 0) {
        min_ = recorded;
        max_ = recorded;
    } else {
        if (recorded < min_) min_ = recorded;
        if (recorded > max_) max_ = recorded;
    }
    ++count_;
    sum_ += recorded;
    ++buckets_[bucket_index(v)];
}

void latency_histogram::merge(const latency_histogram& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        if (other.min_ < min_) min_ = other.min_;
        if (other.max_ > max_) max_ = other.max_;
    }
    count_ += other.count_;
    sum_ += other.sum_;
    for (std::size_t i = 0; i < k_num_buckets; ++i) buckets_[i] += other.buckets_[i];
}

latency_histogram latency_histogram::delta_since(const latency_histogram& earlier) const noexcept {
    latency_histogram d;
    std::size_t lo = k_num_buckets;
    std::size_t hi = 0;
    for (std::size_t i = 0; i < k_num_buckets; ++i) {
        const std::uint64_t a = buckets_[i];
        const std::uint64_t b = earlier.buckets_[i];
        d.buckets_[i] = a > b ? a - b : 0;
        if (d.buckets_[i] > 0) {
            if (i < lo) lo = i;
            hi = i;
        }
        d.count_ += d.buckets_[i];
    }
    d.sum_ = sum_ > earlier.sum_ ? sum_ - earlier.sum_ : 0.0;
    if (d.count_ > 0) {
        // The exact window min/max were not retained; the bucket midpoints
        // carry the documented relative-error bound instead.
        d.min_ = bucket_midpoint(lo);
        d.max_ = bucket_midpoint(hi);
    }
    return d;
}

double latency_histogram::percentile(double p) const {
    if (count_ == 0) throw std::invalid_argument("latency_histogram::percentile: empty");
    if (!(p >= 0.0 && p <= 100.0))
        throw std::invalid_argument("latency_histogram::percentile: p outside [0, 100]");
    if (p == 0.0) return min_;
    const double want = std::ceil(p / 100.0 * static_cast<double>(count_));
    const auto rank = std::min(count_, static_cast<std::uint64_t>(want));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < k_num_buckets; ++i) {
        cum += buckets_[i];
        if (cum >= rank) return std::clamp(bucket_midpoint(i), min_, max_);
    }
    return max_;  // unreachable: cum reaches count_
}

std::uint64_t latency_histogram::cumulative_le(double bound) const noexcept {
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < k_num_buckets; ++i) {
        if (buckets_[i] == 0) continue;
        if (bucket_upper_edge(i) <= bound) cum += buckets_[i];
    }
    return cum;
}

std::vector<std::uint64_t> latency_histogram::le_counts() const {
    std::vector<std::uint64_t> out;
    out.reserve(k_metrics_le_bounds.size());
    for (const double bound : k_metrics_le_bounds) out.push_back(cumulative_le(bound));
    return out;
}

latency_summary summarize(const latency_histogram& h) {
    return {h.percentile_or_zero(50.0), h.percentile_or_zero(90.0),
            h.percentile_or_zero(99.0), h.count(), h.sum(), h.le_counts()};
}

// --- telemetry_registry ------------------------------------------------------

telemetry_registry::telemetry_registry(std::size_t ring_windows, double epoch_seconds)
    : capacity_(ring_windows == 0 ? 1 : ring_windows), prev_time_(epoch_seconds) {
    ring_.resize(capacity_);
}

void telemetry_registry::add_counter(std::string name, value_fn sample) {
    const std::lock_guard<std::mutex> lock(m_);
    counter_slot s;
    s.name = std::move(name);
    s.prev = sample();  // windows measure from registration, not process start
    s.sample = std::move(sample);
    counters_.push_back(std::move(s));
}

void telemetry_registry::add_gauge(std::string name, value_fn sample) {
    const std::lock_guard<std::mutex> lock(m_);
    gauges_.push_back(gauge_slot{std::move(name), std::move(sample)});
}

void telemetry_registry::add_histogram(std::string name, histogram_fn snapshot) {
    const std::lock_guard<std::mutex> lock(m_);
    histogram_slot s;
    s.name = std::move(name);
    s.prev = snapshot();
    s.snapshot = std::move(snapshot);
    histograms_.push_back(std::move(s));
}

void telemetry_registry::tick(double now_seconds) {
    const std::lock_guard<std::mutex> lock(m_);
    window w;
    w.seq = ++seq_;
    w.start_seconds = prev_time_;
    w.duration_seconds = now_seconds - prev_time_;
    if (w.duration_seconds < 0.0) w.duration_seconds = 0.0;
    w.counters.reserve(counters_.size());
    for (counter_slot& c : counters_) {
        const double cur = c.sample();
        w.counters.push_back(cur - c.prev);
        c.prev = cur;
    }
    w.gauges.reserve(gauges_.size());
    for (const gauge_slot& g : gauges_) w.gauges.push_back(g.sample());
    w.histograms.reserve(histograms_.size());
    for (histogram_slot& h : histograms_) {
        latency_histogram cur = h.snapshot();
        w.histograms.push_back(cur.delta_since(h.prev));
        h.prev = std::move(cur);
    }
    prev_time_ = now_seconds;
    if (size_ < capacity_) {
        ring_[(first_ + size_) % capacity_] = std::move(w);
        ++size_;
    } else {
        ring_[first_] = std::move(w);
        first_ = (first_ + 1) % capacity_;
    }
}

std::vector<telemetry_registry::window> telemetry_registry::recent(std::size_t n) const {
    const std::lock_guard<std::mutex> lock(m_);
    const std::size_t take = std::min(n, size_);
    std::vector<window> out;
    out.reserve(take);
    for (std::size_t i = size_ - take; i < size_; ++i)
        out.push_back(ring_[(first_ + i) % capacity_]);
    return out;
}

std::optional<telemetry_registry::window> telemetry_registry::latest() const {
    const std::lock_guard<std::mutex> lock(m_);
    if (size_ == 0) return std::nullopt;
    return ring_[(first_ + size_ - 1) % capacity_];
}

std::vector<std::string> telemetry_registry::counter_names() const {
    const std::lock_guard<std::mutex> lock(m_);
    std::vector<std::string> names;
    names.reserve(counters_.size());
    for (const counter_slot& c : counters_) names.push_back(c.name);
    return names;
}

std::vector<std::string> telemetry_registry::gauge_names() const {
    const std::lock_guard<std::mutex> lock(m_);
    std::vector<std::string> names;
    names.reserve(gauges_.size());
    for (const gauge_slot& g : gauges_) names.push_back(g.name);
    return names;
}

std::vector<std::string> telemetry_registry::histogram_names() const {
    const std::lock_guard<std::mutex> lock(m_);
    std::vector<std::string> names;
    names.reserve(histograms_.size());
    for (const histogram_slot& h : histograms_) names.push_back(h.name);
    return names;
}

std::uint64_t telemetry_registry::ticks() const {
    const std::lock_guard<std::mutex> lock(m_);
    return seq_;
}

}  // namespace fisone::obs
