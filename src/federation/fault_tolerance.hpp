#pragma once

/// \file fault_tolerance.hpp
/// `federation::fleet_health` — the shared fault-tolerance brain of a
/// federated fleet: one circuit breaker per backend, the fleet-wide
/// retry/failover counters `/metrics` exports, and a single watchdog
/// thread that runs every deferred action (retry backoffs, per-request
/// deadline timers). Centralising the deferred work on one thread is a
/// correctness rule, not an optimisation: `floor_service` report
/// callbacks must never block or submit jobs, so resubmission can never
/// happen inline from a completion sink — it is always *scheduled* here
/// and executed on the watchdog.
///
/// Breaker per backend, classic three-state:
///  - **closed** — healthy; every transient failure increments a
///    consecutive-failure count, every success resets it.
///  - **open** — the count reached `breaker_failure_threshold`; the
///    backend is unavailable (routing masks it out) until the cooldown
///    elapses. Failures while open restart the cooldown.
///  - **half-open** — cooldown elapsed; exactly one probe request may be
///    routed at the backend (`note_routed` claims the slot). Probe
///    success closes the breaker; probe failure reopens it.
///
/// This header is deliberately include-light (no api/service headers) so
/// `net/metrics.hpp` can consume `health_snapshot` without dragging the
/// whole message model in.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fisone::federation {

/// Retry / deadline / breaker tuning. A federated fleet applies it to
/// every building request; on a fleet with no armed fault plan and no
/// `request_timeout` nothing ever fails transiently, so it never retries.
struct fault_tolerance_config {
    /// Per-request deadline, enforced per attempt: an attempt that has
    /// not answered in time is cancelled, circuit-broken against, and
    /// failed over. 0 = no deadline (failures still retry).
    std::chrono::milliseconds request_timeout{0};
    /// Total tries per request (first attempt + retries) before the
    /// caller gets a typed `backend_unavailable` / `deadline_exceeded`.
    std::size_t max_attempts = 3;
    /// Exponential backoff before retry t is `base << (t-1)`, capped.
    std::chrono::milliseconds backoff_base{2};
    std::chrono::milliseconds backoff_cap{50};
    /// Consecutive transient failures that open a backend's breaker.
    std::size_t breaker_failure_threshold = 3;
    /// How long an open breaker blocks routing before half-opening.
    std::chrono::milliseconds breaker_cooldown{250};
};

/// Point-in-time fleet-health counters, shaped for `/metrics`.
struct health_snapshot {
    std::uint64_t retries = 0;    ///< attempts re-dispatched after a transient failure
    std::uint64_t failovers = 0;  ///< retries that moved to a different backend
    std::uint64_t deadline_exceeded = 0;    ///< requests failed with the typed error
    std::uint64_t backend_unavailable = 0;  ///< requests failed with the typed error
    std::vector<bool> backend_up;  ///< per backend: breaker closed (fully trusted)
};

class fleet_health {
public:
    using clock = std::chrono::steady_clock;

    /// Spawns the watchdog thread immediately.
    fleet_health(fault_tolerance_config cfg, std::size_t num_backends);

    /// Stops the watchdog (see `stop`) if the owner has not already.
    ~fleet_health();

    fleet_health(const fleet_health&) = delete;
    fleet_health& operator=(const fleet_health&) = delete;

    [[nodiscard]] const fault_tolerance_config& config() const noexcept { return cfg_; }
    [[nodiscard]] std::size_t num_backends() const noexcept;

    // --- circuit breakers ---------------------------------------------------

    /// A (non-transient-completed or succeeded) answer from \p backend:
    /// reset its failure streak, close its breaker.
    void on_success(std::size_t backend);

    /// A transient failure / timeout / crash from \p backend: bump the
    /// streak, open the breaker at the threshold (restarting the cooldown
    /// if already open).
    void on_failure(std::size_t backend);

    /// Routing is about to send a request to \p backend. Claims the
    /// half-open probe slot when the breaker is half-open, so only one
    /// probe flies per cooldown.
    void note_routed(std::size_t backend);

    /// Per backend: true when routing must avoid it right now (breaker
    /// open, or half-open with the probe already in flight).
    [[nodiscard]] std::vector<bool> unavailable_mask() const;

    // --- counters -----------------------------------------------------------

    void count_retry();
    void count_failover();
    void count_deadline_exceeded();
    void count_backend_unavailable();

    [[nodiscard]] health_snapshot snapshot() const;

    // --- watchdog scheduler -------------------------------------------------

    /// Run \p fn on the watchdog thread at \p when (immediately if past).
    /// `fn` runs outside all fleet_health locks and may call back into
    /// this object freely.
    void schedule(clock::time_point when, std::function<void()> fn);

    /// Convenience: `schedule(now + delay, fn)`.
    void schedule_after(std::chrono::milliseconds delay, std::function<void()> fn);

    /// Backoff before retry number \p tries (1-based): exponential from
    /// `backoff_base`, capped at `backoff_cap`.
    [[nodiscard]] std::chrono::milliseconds backoff(std::size_t tries) const;

    /// Stop the watchdog and join it: an action already running finishes,
    /// pending ones are dropped, and later `schedule` calls are ignored.
    /// Idempotent. Scheduled actions may hold (through a session) the last
    /// reference to this object, and the watchdog cannot join itself, so
    /// the owner calls this from its own thread before it lets go of its
    /// reference. Must not be called from a scheduled action.
    void stop();

private:
    struct breaker {
        std::size_t consecutive_failures = 0;
        clock::time_point open_until{};  ///< epoch = never opened / closed again
        bool probe_inflight = false;     ///< half-open probe claimed
        bool tripped = false;            ///< threshold reached, not yet re-closed
    };

    struct timer {
        clock::time_point when;
        std::uint64_t seq;  ///< tie-break so equal deadlines stay FIFO
        std::function<void()> fn;
    };
    struct timer_later {
        bool operator()(const timer& a, const timer& b) const {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    void watchdog_loop();

    fault_tolerance_config cfg_;

    mutable std::mutex m_;
    std::vector<breaker> breakers_;
    std::uint64_t retries_ = 0;
    std::uint64_t failovers_ = 0;
    std::uint64_t deadline_exceeded_ = 0;
    std::uint64_t backend_unavailable_ = 0;

    std::mutex timer_m_;
    std::condition_variable timer_cv_;
    std::priority_queue<timer, std::vector<timer>, timer_later> timers_;
    std::uint64_t next_seq_ = 0;
    bool stopping_ = false;
    std::thread watchdog_;
};

}  // namespace fisone::federation
