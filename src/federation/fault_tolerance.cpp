#include "fault_tolerance.hpp"

#include <utility>

namespace fisone::federation {

fleet_health::fleet_health(fault_tolerance_config cfg, std::size_t num_backends)
    : cfg_(cfg), breakers_(num_backends) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

fleet_health::~fleet_health() { stop(); }

void fleet_health::stop() {
    {
        const std::lock_guard<std::mutex> lock(timer_m_);
        stopping_ = true;
    }
    timer_cv_.notify_all();
    if (watchdog_.joinable()) watchdog_.join();
}

std::size_t fleet_health::num_backends() const noexcept { return breakers_.size(); }

// --- circuit breakers -------------------------------------------------------

void fleet_health::on_success(std::size_t backend) {
    const std::lock_guard<std::mutex> lock(m_);
    if (backend >= breakers_.size()) return;
    breaker& b = breakers_[backend];
    b.consecutive_failures = 0;
    b.open_until = clock::time_point{};
    b.probe_inflight = false;
    b.tripped = false;
}

void fleet_health::on_failure(std::size_t backend) {
    const std::lock_guard<std::mutex> lock(m_);
    if (backend >= breakers_.size()) return;
    breaker& b = breakers_[backend];
    ++b.consecutive_failures;
    b.probe_inflight = false;
    if (b.consecutive_failures >= cfg_.breaker_failure_threshold) {
        b.tripped = true;
        b.open_until = clock::now() + cfg_.breaker_cooldown;  // (re)start the cooldown
    }
}

void fleet_health::note_routed(std::size_t backend) {
    const std::lock_guard<std::mutex> lock(m_);
    if (backend >= breakers_.size()) return;
    breaker& b = breakers_[backend];
    // Half-open: cooldown elapsed on a tripped breaker. This routing
    // decision *is* the probe; claim the slot so the mask blocks further
    // traffic until the probe answers.
    if (b.tripped && clock::now() >= b.open_until) b.probe_inflight = true;
}

std::vector<bool> fleet_health::unavailable_mask() const {
    const std::lock_guard<std::mutex> lock(m_);
    const clock::time_point now = clock::now();
    std::vector<bool> mask(breakers_.size(), false);
    for (std::size_t i = 0; i < breakers_.size(); ++i) {
        const breaker& b = breakers_[i];
        if (!b.tripped) continue;
        mask[i] = now < b.open_until || b.probe_inflight;
    }
    return mask;
}

// --- counters ---------------------------------------------------------------

void fleet_health::count_retry() {
    const std::lock_guard<std::mutex> lock(m_);
    ++retries_;
}

void fleet_health::count_failover() {
    const std::lock_guard<std::mutex> lock(m_);
    ++failovers_;
}

void fleet_health::count_deadline_exceeded() {
    const std::lock_guard<std::mutex> lock(m_);
    ++deadline_exceeded_;
}

void fleet_health::count_backend_unavailable() {
    const std::lock_guard<std::mutex> lock(m_);
    ++backend_unavailable_;
}

health_snapshot fleet_health::snapshot() const {
    const std::lock_guard<std::mutex> lock(m_);
    health_snapshot s;
    s.retries = retries_;
    s.failovers = failovers_;
    s.deadline_exceeded = deadline_exceeded_;
    s.backend_unavailable = backend_unavailable_;
    s.backend_up.reserve(breakers_.size());
    for (const breaker& b : breakers_) s.backend_up.push_back(!b.tripped);
    return s;
}

// --- watchdog scheduler -----------------------------------------------------

void fleet_health::schedule(clock::time_point when, std::function<void()> fn) {
    {
        const std::lock_guard<std::mutex> lock(timer_m_);
        if (stopping_) return;
        timers_.push(timer{when, next_seq_++, std::move(fn)});
    }
    timer_cv_.notify_all();
}

void fleet_health::schedule_after(std::chrono::milliseconds delay, std::function<void()> fn) {
    schedule(clock::now() + delay, std::move(fn));
}

std::chrono::milliseconds fleet_health::backoff(std::size_t tries) const {
    std::chrono::milliseconds d = cfg_.backoff_base;
    for (std::size_t t = 1; t < tries && d < cfg_.backoff_cap; ++t) d *= 2;
    return d < cfg_.backoff_cap ? d : cfg_.backoff_cap;
}

void fleet_health::watchdog_loop() {
    std::unique_lock<std::mutex> lock(timer_m_);
    while (true) {
        if (stopping_) return;
        if (timers_.empty()) {
            timer_cv_.wait(lock, [&] { return stopping_ || !timers_.empty(); });
            continue;
        }
        const clock::time_point due = timers_.top().when;
        if (clock::now() < due) {
            // A new earlier timer or stop request interrupts the sleep.
            timer_cv_.wait_until(lock, due);
            continue;
        }
        std::function<void()> fn = std::move(const_cast<timer&>(timers_.top()).fn);
        timers_.pop();
        lock.unlock();  // actions run lock-free: they may reschedule
        fn();
        lock.lock();
    }
}

}  // namespace fisone::federation
