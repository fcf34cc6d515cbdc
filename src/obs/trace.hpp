#pragma once

/// \file trace.hpp
/// Request tracing: timestamped spans in per-thread lock-free ring buffers.
///
/// One request produces one parent-linked span tree that crosses every layer
/// of the stack — `net::tcp_server` stamps a root context at admission, the
/// api/federation sessions and the floor service's worker threads adopt it via
/// `context_guard`, and every instrumented stage wraps itself in a
/// `scoped_span`. Span records land in a ring buffer owned by the emitting
/// thread (no cross-thread writes, no locks on the hot path); the rings are
/// only ever read by `snapshot()`, which quiesces writers first, so the whole
/// scheme is data-race-free under TSan without atomics on the record payload.
///
/// Tracing is a runtime switch. Disabled (the default) each span site costs
/// exactly one relaxed atomic load and a predictable branch, and no output
/// byte of the system changes. Enabled, spans cost two atomic flips plus a
/// clock read each — `bench/bench_trace_overhead.cpp` holds the end-to-end
/// cost under 5% of buildings/sec and proves NDJSON stays byte-identical.
///
/// Exports: Chrome trace-event JSON (load in Perfetto / chrome://tracing) via
/// `chrome_trace_json()`, raw records via `snapshot()` / `spans_for_trace()`,
/// and per-stage latency percentiles via `stage_stats()` (fed from a
/// bounded `obs::latency_histogram` per stage — the serve loop emits spans
/// forever, so exact sample hoarding is not an option here — rendered by
/// `net::render_metrics` as the `fisone_stage_seconds` families).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry.hpp"

namespace fisone::obs {

/// Version tag written as the first key of every Chrome-trace dump, so a
/// consumer can detect layout changes before parsing `traceEvents`.
inline constexpr const char* k_trace_format_version = "fisone-trace/v1";

/// A position in a trace: which request (`trace_id`) and which span within it
/// (`span_id`, the parent for anything emitted under this context). The zero
/// context means "not tracing this work".
struct trace_context {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;

    [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
};

/// One finished span as recorded in a ring. `name` points at a string
/// literal supplied to the span site — never freed, never owned.
struct span_record {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;  ///< 0 for root spans
    const char* name = nullptr;
    std::uint64_t start_ns = 0;  ///< steady-clock nanoseconds
    std::uint64_t dur_ns = 0;
    std::uint32_t tid = 0;  ///< ring registration index (stable per thread)
};

/// Aggregate recorder health: how much has been captured and how much the
/// rings have overwritten (oldest-first) since the last `reset()`.
struct trace_stats {
    std::size_t recorded = 0;  ///< spans currently resident in rings
    std::size_t dropped = 0;   ///< spans overwritten by ring wrap
    std::size_t threads = 0;   ///< rings registered (threads that emitted)
};

/// Per-stage latency summary, one per distinct span name observed while
/// tracing was enabled.
struct stage_snapshot {
    std::string stage;
    latency_summary latency;
};

namespace detail {
/// The master switch. Span sites read it relaxed (the one-branch contract);
/// flips and the writer-side recheck are seq_cst so `snapshot()` can quiesce.
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Is tracing currently on? Relaxed load — this is the disabled-path cost.
[[nodiscard]] inline bool tracing_enabled() noexcept {
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flip tracing on or off. Turning it off also quiesces in-flight writers,
/// so records never tear; already-recorded spans stay readable.
void set_tracing_enabled(bool on) noexcept;

/// Capacity (in spans) of rings created after this call; existing rings are
/// retired (their records dropped). Default 16384 per thread.
void set_ring_capacity(std::size_t capacity);

/// Drop every recorded span, retire all rings, and clear stage statistics.
/// The enabled flag is left as-is.
void reset();

/// Fresh ids. Monotonic process-wide counters, never zero.
[[nodiscard]] std::uint64_t new_trace_id() noexcept;
[[nodiscard]] std::uint64_t new_span_id() noexcept;

/// Steady-clock nanoseconds (the timebase of every span record).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// The calling thread's current trace position ({0,0} when none).
[[nodiscard]] trace_context current_context() noexcept;

/// Install \p ctx as the calling thread's context for the guard's lifetime —
/// how a worker thread adopts the context captured at submit time. Restores
/// the previous context on destruction. Installing an inactive context is a
/// cheap no-op, so call sites need no branch of their own.
class context_guard {
public:
    explicit context_guard(trace_context ctx) noexcept;
    ~context_guard();
    context_guard(const context_guard&) = delete;
    context_guard& operator=(const context_guard&) = delete;

private:
    trace_context prev_{};
    bool installed_ = false;
};

/// Record a finished span with explicit ids — for spans whose lifetime spans
/// threads (queue wait) or whose id was pre-allocated (a request's root span,
/// minted at admission so children can link to it before it finishes).
/// No-op while tracing is disabled.
void emit_span(const char* name, std::uint64_t trace_id, std::uint64_t span_id,
               std::uint64_t parent_id, std::uint64_t start_ns,
               std::uint64_t end_ns);

/// Convenience: record a finished child of \p parent; returns the new span's
/// id (0 if tracing is disabled or \p parent is inactive).
std::uint64_t emit_child_span(const char* name, trace_context parent,
                              std::uint64_t start_ns, std::uint64_t end_ns);

/// RAII span site: times a scope and records it as a child of the thread's
/// current context (becoming that context itself while alive, so nested
/// scopes link to it). With tracing disabled, construction is one relaxed
/// load + branch and destruction one predictable branch — nothing else.
/// \p name must be a string literal (stored by pointer).
class scoped_span {
public:
    explicit scoped_span(const char* name) noexcept {
        if (!tracing_enabled()) return;  // the one branch when disabled
        begin(name);
    }
    ~scoped_span() {
        if (name_ != nullptr) end();
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

    /// The context this span established ({0,0} when inactive) — what a
    /// caller forwards when handing work to another thread mid-span.
    [[nodiscard]] trace_context context() const noexcept { return mine_; }

private:
    void begin(const char* name) noexcept;
    void end() noexcept;

    const char* name_ = nullptr;  ///< nullptr ⇒ inactive (tracing was off)
    trace_context prev_{};
    trace_context mine_{};
    std::uint64_t start_ns_ = 0;
};

/// Copy out every span currently resident, oldest-start first. Quiesces
/// writers for the duration (tracing pauses, then resumes if it was on).
[[nodiscard]] std::vector<span_record> snapshot();

/// `snapshot()` filtered to one trace, sorted by start time.
[[nodiscard]] std::vector<span_record> spans_for_trace(std::uint64_t trace_id);

/// Recorder health counters.
[[nodiscard]] trace_stats stats();

/// Chrome trace-event JSON of everything resident — open in Perfetto
/// (https://ui.perfetto.dev) or chrome://tracing. First key is
/// `k_trace_format_version`; events are "X" (complete) with microsecond
/// timestamps, `tid` = emitting ring, ids in `args` as hex strings.
[[nodiscard]] std::string chrome_trace_json();
void dump_chrome_trace(std::ostream& os);

/// p50/p90/p99 per span name since the last `reset()`/`reset_stages()`,
/// sorted by stage name. Unlike the rings these never overwrite: every span
/// observed while enabled lands in that stage's bounded histogram, so the
/// summary covers the full history at fixed memory.
[[nodiscard]] std::vector<stage_snapshot> stage_stats();

/// Clear stage statistics only (rings untouched).
void reset_stages();

}  // namespace fisone::obs
