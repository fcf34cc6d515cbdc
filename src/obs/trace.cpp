#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

namespace fisone::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// One thread's span tape. The owning thread is the only writer; `snapshot()`
/// reads it only after quiescing (see `push` / `quiesce_locked` below), so
/// the slot array needs no per-record synchronisation.
struct span_ring {
    explicit span_ring(std::size_t capacity, std::uint32_t tid_)
        : slots(capacity), tid(tid_) {}

    std::vector<span_record> slots;
    /// Total spans ever pushed; `head % slots.size()` is the next write slot.
    std::atomic<std::uint64_t> head{0};
    /// True while the owner is inside `push` — the quiesce handshake flag.
    std::atomic<bool> writing{false};
    std::uint32_t tid = 0;
};

struct registry {
    std::mutex m;
    std::vector<std::shared_ptr<span_ring>> rings;  ///< one per emitting thread
    std::size_t capacity = 16384;
    std::uint32_t next_tid = 1;
    /// Bumped by `reset()` / `set_ring_capacity()`; threads holding a ring
    /// from an older generation lazily re-register.
    std::atomic<std::uint64_t> generation{1};

    /// Serialises snapshot/dump against each other and against flips of the
    /// enabled switch, so two dumpers never fight over the quiesce protocol.
    std::mutex dump_m;

    std::mutex stage_m;
    std::map<std::string, latency_histogram> stages;  ///< name → bounded histogram
};

registry& reg() {
    static registry r;
    return r;
}

struct tls_slot {
    std::shared_ptr<span_ring> ring;
    std::uint64_t generation = 0;
};
thread_local tls_slot t_slot;
thread_local trace_context t_ctx;

std::atomic<std::uint64_t> g_next_trace{1};
std::atomic<std::uint64_t> g_next_span{1};

span_ring& ring_for_thread() {
    registry& r = reg();
    const std::uint64_t gen = r.generation.load(std::memory_order_acquire);
    if (t_slot.ring == nullptr || t_slot.generation != gen) {
        std::lock_guard<std::mutex> lock(r.m);
        t_slot.ring = std::make_shared<span_ring>(
            std::max<std::size_t>(r.capacity, 1), r.next_tid++);
        t_slot.generation = r.generation.load(std::memory_order_relaxed);
        r.rings.push_back(t_slot.ring);
    }
    return *t_slot.ring;
}

/// Writer side of the quiesce handshake. `writing := true` happens-before
/// the seq_cst re-check of the enabled flag: either this push completes
/// before a dumper observes `writing == false`, or the dumper's
/// `enabled := false` is visible here and the push aborts — never both
/// touching the slots at once.
void push(span_ring& ring, const span_record& rec) {
    ring.writing.store(true, std::memory_order_seq_cst);
    if (!detail::g_enabled.load(std::memory_order_seq_cst)) {
        ring.writing.store(false, std::memory_order_release);
        return;
    }
    const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
    ring.slots[static_cast<std::size_t>(h % ring.slots.size())] = rec;
    ring.head.store(h + 1, std::memory_order_release);
    ring.writing.store(false, std::memory_order_release);
}

void accumulate_stage(const char* name, std::uint64_t dur_ns) {
    registry& r = reg();
    std::lock_guard<std::mutex> lock(r.stage_m);
    r.stages[name].add(static_cast<double>(dur_ns) * 1e-9);
}

void record(const char* name, std::uint64_t trace_id, std::uint64_t span_id,
            std::uint64_t parent_id, std::uint64_t start_ns,
            std::uint64_t end_ns) {
    span_ring& ring = ring_for_thread();
    span_record rec;
    rec.trace_id = trace_id;
    rec.span_id = span_id;
    rec.parent_id = parent_id;
    rec.name = name;
    rec.start_ns = start_ns;
    rec.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
    rec.tid = ring.tid;
    push(ring, rec);
    accumulate_stage(name, rec.dur_ns);
}

/// Stop writers and wait out any push already past its enabled check.
/// Caller holds `dump_m`; returns whether tracing was on (to restore).
bool quiesce_locked() {
    const bool was = detail::g_enabled.exchange(false, std::memory_order_seq_cst);
    registry& r = reg();
    std::lock_guard<std::mutex> lock(r.m);
    for (const auto& ring : r.rings) {
        while (ring->writing.load(std::memory_order_acquire)) {
            std::this_thread::yield();
        }
    }
    return was;
}

/// Resident records of one quiesced ring, oldest first.
void drain_ring(const span_ring& ring, std::vector<span_record>& out) {
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t cap = ring.slots.size();
    const std::uint64_t first = head > cap ? head - cap : 0;
    for (std::uint64_t i = first; i < head; ++i) {
        out.push_back(ring.slots[static_cast<std::size_t>(i % cap)]);
    }
}

/// Records + counters under a single quiesce, so a dump's `otherData`
/// matches its `traceEvents` exactly.
std::vector<span_record> collect_locked(trace_stats& st) {
    registry& r = reg();
    const bool was = quiesce_locked();
    std::vector<span_record> out;
    {
        std::lock_guard<std::mutex> lock(r.m);
        st.threads = r.rings.size();
        for (const auto& ring : r.rings) {
            const std::uint64_t head = ring->head.load(std::memory_order_acquire);
            const std::uint64_t cap = ring->slots.size();
            st.recorded += static_cast<std::size_t>(std::min(head, cap));
            st.dropped += static_cast<std::size_t>(head > cap ? head - cap : 0);
            drain_ring(*ring, out);
        }
    }
    if (was) detail::g_enabled.store(true, std::memory_order_seq_cst);
    std::sort(out.begin(), out.end(),
              [](const span_record& a, const span_record& b) {
                  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                  return a.span_id < b.span_id;
              });
    return out;
}

}  // namespace

void set_tracing_enabled(bool on) noexcept {
    registry& r = reg();
    std::lock_guard<std::mutex> dump_lock(r.dump_m);
    if (on) {
        detail::g_enabled.store(true, std::memory_order_seq_cst);
    } else {
        quiesce_locked();
    }
}

void set_ring_capacity(std::size_t capacity) {
    registry& r = reg();
    std::lock_guard<std::mutex> dump_lock(r.dump_m);
    const bool was = quiesce_locked();
    {
        std::lock_guard<std::mutex> lock(r.m);
        r.capacity = std::max<std::size_t>(capacity, 1);
        r.rings.clear();
        r.generation.fetch_add(1, std::memory_order_acq_rel);
    }
    if (was) detail::g_enabled.store(true, std::memory_order_seq_cst);
}

void reset() {
    registry& r = reg();
    std::lock_guard<std::mutex> dump_lock(r.dump_m);
    const bool was = quiesce_locked();
    {
        std::lock_guard<std::mutex> lock(r.m);
        r.rings.clear();
        r.generation.fetch_add(1, std::memory_order_acq_rel);
    }
    {
        std::lock_guard<std::mutex> lock(r.stage_m);
        r.stages.clear();
    }
    if (was) detail::g_enabled.store(true, std::memory_order_seq_cst);
}

std::uint64_t new_trace_id() noexcept {
    return g_next_trace.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t new_span_id() noexcept {
    return g_next_span.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

trace_context current_context() noexcept { return t_ctx; }

context_guard::context_guard(trace_context ctx) noexcept {
    if (!ctx.active()) return;
    prev_ = t_ctx;
    t_ctx = ctx;
    installed_ = true;
}

context_guard::~context_guard() {
    if (installed_) t_ctx = prev_;
}

void emit_span(const char* name, std::uint64_t trace_id, std::uint64_t span_id,
               std::uint64_t parent_id, std::uint64_t start_ns,
               std::uint64_t end_ns) {
    if (!tracing_enabled() || trace_id == 0) return;
    record(name, trace_id, span_id, parent_id, start_ns, end_ns);
}

std::uint64_t emit_child_span(const char* name, trace_context parent,
                              std::uint64_t start_ns, std::uint64_t end_ns) {
    if (!tracing_enabled() || !parent.active()) return 0;
    const std::uint64_t id = new_span_id();
    record(name, parent.trace_id, id, parent.span_id, start_ns, end_ns);
    return id;
}

void scoped_span::begin(const char* name) noexcept {
    name_ = name;
    prev_ = t_ctx;
    // A span opened with no surrounding context roots a fresh trace — that is
    // what happens at the outermost instrumented layer of any entry point.
    mine_.trace_id = prev_.active() ? prev_.trace_id : new_trace_id();
    mine_.span_id = new_span_id();
    t_ctx = mine_;
    start_ns_ = now_ns();
}

void scoped_span::end() noexcept {
    const std::uint64_t stop = now_ns();
    t_ctx = prev_;
    record(name_, mine_.trace_id, mine_.span_id, prev_.span_id, start_ns_,
           stop);
}

std::vector<span_record> snapshot() {
    registry& r = reg();
    std::lock_guard<std::mutex> dump_lock(r.dump_m);
    trace_stats st;
    return collect_locked(st);
}

std::vector<span_record> spans_for_trace(std::uint64_t trace_id) {
    std::vector<span_record> all = snapshot();
    std::vector<span_record> out;
    for (const span_record& rec : all) {
        if (rec.trace_id == trace_id) out.push_back(rec);
    }
    return out;
}

trace_stats stats() {
    registry& r = reg();
    std::lock_guard<std::mutex> dump_lock(r.dump_m);
    trace_stats s;
    collect_locked(s);
    return s;
}

void dump_chrome_trace(std::ostream& os) {
    registry& r = reg();
    trace_stats st;
    std::vector<span_record> spans;
    {
        std::lock_guard<std::mutex> dump_lock(r.dump_m);
        spans = collect_locked(st);
    }
    os << "{\"traceFormatVersion\":\"" << k_trace_format_version << "\",";
    os << "\"displayTimeUnit\":\"ms\",";
    os << "\"otherData\":{\"recorded\":" << st.recorded
       << ",\"dropped\":" << st.dropped << ",\"threads\":" << st.threads
       << "},";
    os << "\"traceEvents\":[";
    char buf[32];
    bool first = true;
    for (const span_record& rec : spans) {
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\"" << (rec.name != nullptr ? rec.name : "?")
           << "\",\"cat\":\"fisone\",\"ph\":\"X\",\"ts\":";
        // Chrome-trace timestamps are microseconds; keep ns resolution with
        // three decimals. snprintf, not ostream state, so callers' stream
        // formatting never leaks into the dump.
        std::snprintf(buf, sizeof buf, "%llu.%03llu",
                      static_cast<unsigned long long>(rec.start_ns / 1000),
                      static_cast<unsigned long long>(rec.start_ns % 1000));
        os << buf << ",\"dur\":";
        std::snprintf(buf, sizeof buf, "%llu.%03llu",
                      static_cast<unsigned long long>(rec.dur_ns / 1000),
                      static_cast<unsigned long long>(rec.dur_ns % 1000));
        os << buf << ",\"pid\":1,\"tid\":" << rec.tid << ",\"args\":{";
        std::snprintf(buf, sizeof buf, "0x%llx",
                      static_cast<unsigned long long>(rec.trace_id));
        os << "\"trace\":\"" << buf << "\",";
        std::snprintf(buf, sizeof buf, "0x%llx",
                      static_cast<unsigned long long>(rec.span_id));
        os << "\"span\":\"" << buf << "\",";
        std::snprintf(buf, sizeof buf, "0x%llx",
                      static_cast<unsigned long long>(rec.parent_id));
        os << "\"parent\":\"" << buf << "\"}}";
    }
    os << "]}";
}

std::string chrome_trace_json() {
    std::ostringstream os;
    dump_chrome_trace(os);
    return os.str();
}

std::vector<stage_snapshot> stage_stats() {
    registry& r = reg();
    std::lock_guard<std::mutex> lock(r.stage_m);
    std::vector<stage_snapshot> out;
    out.reserve(r.stages.size());
    for (const auto& [name, hist] : r.stages) out.push_back({name, summarize(hist)});
    return out;
}

void reset_stages() {
    registry& r = reg();
    std::lock_guard<std::mutex> lock(r.stage_m);
    r.stages.clear();
}

}  // namespace fisone::obs
