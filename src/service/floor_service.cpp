#include "floor_service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/trace.hpp"
#include "runtime/task_executor.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace fisone::service {

shard_ref make_shard_ref(const data::corpus_store& store, std::size_t shard_index) {
    const data::shard_entry& entry = store.manifest().shards.at(shard_index);
    return shard_ref{store.shard_path(shard_index), entry.first_index, entry.num_buildings};
}

/// Shared synchronisation hub. Jobs hold it by shared_ptr so a handle that
/// outlives the service can still be queried safely.
struct floor_service::state {
    mutable std::mutex m;
    std::condition_variable cv;  ///< pause gate, backpressure slots, completions
    bool paused = false;

    std::size_t pending = 0;  ///< submitted, not yet finished
    std::size_t jobs_submitted = 0;
    std::size_t jobs_running = 0;
    std::size_t jobs_done = 0;
    std::size_t jobs_cancelled = 0;
    std::size_t buildings_ok = 0;
    std::size_t buildings_failed = 0;
    std::size_t buildings_cancelled = 0;
    /// Seconds per building that actually ran, kept mergeable so a
    /// federated front-end can pool latencies across backends. A bounded
    /// histogram, not an exact accumulator: the serve loop feeds this once
    /// per building for the life of the process.
    obs::latency_histogram latencies;

    /// Serialises `on_report` calls without blocking `stats()`. Lock order
    /// where both are held: `report_m` before `m`.
    std::mutex report_m;
    std::function<void(const runtime::building_report&)> on_report;

    /// Lifetime count of building executions, the clock `fault_plan`'s
    /// fail-Nth / fail-first schedules tick against.
    std::atomic<std::size_t> fault_executions{0};
};

namespace {

/// Cooperative injected hang: sleep \p ms in 1 ms slices so a cancel (and
/// thus a federation deadline, which cancels the hung attempt) interrupts
/// it. Returns false when cancellation cut the sleep short.
bool fault_sleep(const std::atomic<bool>& cancel_requested, std::uint32_t ms) {
    for (std::uint32_t waited = 0; waited < ms; ++waited) {
        if (cancel_requested.load()) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return !cancel_requested.load();
}

/// The injected-failure report for execution \p n, if the plan fails it.
std::optional<runtime::building_report> injected_failure(
    const fault_plan& faults, std::size_t n, const runtime::task_executor& executor,
    const std::string& name, std::size_t corpus_index) {
    const bool fail = (faults.fail_first != 0 && n <= faults.fail_first) ||
                      (faults.fail_every != 0 && n % faults.fail_every == 0);
    if (!fail) return std::nullopt;
    return executor.skipped(name, corpus_index,
                            std::string(k_transient_error_prefix) +
                                "injected failure (execution #" + std::to_string(n) + ")");
}

}  // namespace

struct floor_service::job::impl {
    std::shared_ptr<floor_service::state> svc;  // qualified: job::state() shadows the type
    std::atomic<bool> cancel_requested{false};
    job_state st = job_state::queued;  ///< guarded by svc->m
    /// True once a building was actually skipped by cancellation — the
    /// final state is decided by this, not by `cancel_requested`, so a
    /// cancel that lands after the last building still yields `done`.
    bool any_skipped = false;  ///< guarded by svc->m
    std::vector<runtime::building_report> reports;  ///< worker-only until finished
    /// Per-job completion callback; fires after the service-wide one.
    floor_service::report_callback on_report;
};

/// Finish one building of a job: record it, update counters, and fire the
/// service callback — in completion order across all workers.
void floor_service::record_report(job::impl& im, state& st, runtime::building_report&& report,
                                  report_kind kind) {
    // Times the whole completion path: counters + the serialised callback
    // chain (NDJSON export, API response emit, net write buffering).
    obs::scoped_span span("service.report");
    const std::lock_guard<std::mutex> report_lock(st.report_m);
    im.reports.push_back(std::move(report));
    const runtime::building_report& stored = im.reports.back();
    {
        const std::lock_guard<std::mutex> lock(st.m);
        switch (kind) {
            case report_kind::ran:
                if (stored.ok)
                    ++st.buildings_ok;
                else
                    ++st.buildings_failed;
                st.latencies.add(stored.seconds);
                break;
            case report_kind::skipped_cancelled:
                ++st.buildings_cancelled;
                im.any_skipped = true;
                break;
            case report_kind::skipped_failed:
                ++st.buildings_failed;
                break;
        }
    }
    if (st.on_report) st.on_report(stored);
    if (im.on_report) im.on_report(stored);
}

floor_service::floor_service(service_config cfg)
    : cfg_(std::move(cfg)),
      workers_(util::resolve_num_threads(cfg_.num_threads)),
      executor_(cfg_.pipeline, cfg_.seed, /*single_thread_kernels=*/workers_ > 1) {
    if (cfg_.max_pending_jobs == 0)
        throw std::invalid_argument("floor_service: max_pending_jobs must be >= 1");
    // Validate the pipeline template eagerly, as batch_runner does.
    runtime::validate_pipeline(cfg_.pipeline);
    state_ = std::make_shared<state>();
    state_->on_report = cfg_.on_report;
    // thread_pool(n) spawns n−1 workers (the caller participates only in
    // parallel_for, which the service never calls on this pool), so n =
    // workers_ + 1 yields exactly `workers_` dedicated job threads and
    // `submit` never degenerates to inline execution.
    pool_ = std::make_unique<util::thread_pool>(workers_ + 1);
}

floor_service::~floor_service() {
    resume();
    wait_all();
}

// --- job handle -------------------------------------------------------------

job_state floor_service::job::state() const {
    if (!impl_) throw std::logic_error("floor_service::job: empty handle");
    const std::lock_guard<std::mutex> lock(impl_->svc->m);
    return impl_->st;
}

void floor_service::job::wait() const {
    if (!impl_) throw std::logic_error("floor_service::job: empty handle");
    std::unique_lock<std::mutex> lock(impl_->svc->m);
    impl_->svc->cv.wait(lock, [&] {
        return impl_->st == job_state::done || impl_->st == job_state::cancelled;
    });
}

bool floor_service::job::cancel() {
    if (!impl_) throw std::logic_error("floor_service::job: empty handle");
    const std::lock_guard<std::mutex> lock(impl_->svc->m);
    if (impl_->st == job_state::done || impl_->st == job_state::cancelled) return false;
    impl_->cancel_requested.store(true);
    // Wake any worker parked at the pause gate so cancelled jobs drain
    // promptly even while the service is paused.
    impl_->svc->cv.notify_all();
    return true;
}

const std::vector<runtime::building_report>& floor_service::job::reports() const {
    wait();
    return impl_->reports;
}

// --- submission -------------------------------------------------------------

floor_service::job floor_service::enqueue(std::function<void(job::impl&)> body,
                                          std::size_t num_buildings,
                                          report_callback on_report) {
    auto im = std::make_shared<job::impl>();
    im->svc = state_;
    im->on_report = std::move(on_report);
    im->reports.reserve(num_buildings);
    {
        std::unique_lock<std::mutex> lock(state_->m);
        // Backpressure: hold the caller until a pending slot frees.
        state_->cv.wait(lock, [&] { return state_->pending < cfg_.max_pending_jobs; });
        ++state_->pending;
        ++state_->jobs_submitted;
    }
    std::shared_ptr<state> svc = state_;
    // Capture the submitter's trace position so the worker thread can adopt
    // it — this is where a request's trace crosses the thread boundary.
    const obs::trace_context trace_ctx = obs::current_context();
    const std::uint64_t submit_ns = trace_ctx.active() ? obs::now_ns() : 0;
    pool_->submit([im, svc, trace_ctx, submit_ns, body = std::move(body)] {
        {
            std::unique_lock<std::mutex> lock(svc->m);
            // Pause gate. Cancelled jobs pass through to drain immediately.
            svc->cv.wait(lock, [&] {
                return !svc->paused || im->cancel_requested.load();
            });
            im->st = job_state::running;
            ++svc->jobs_running;
        }
        // Submission → pickup, recorded from the worker side because the
        // span only closes once a worker takes the job.
        obs::emit_child_span("service.queue_wait", trace_ctx, submit_ns, obs::now_ns());
        obs::context_guard trace_guard(trace_ctx);
        try {
            obs::scoped_span span("service.execute");
            body(*im);
        } catch (...) {
            // Job bodies fold pipeline errors into reports themselves; the
            // only way here is a throwing on_report callback. Swallow it so
            // the state transition below always runs — a callback bug must
            // never wedge wait_all() or the destructor.
        }
        {
            const std::lock_guard<std::mutex> lock(svc->m);
            im->st = im->any_skipped ? job_state::cancelled : job_state::done;
            --svc->jobs_running;
            if (im->st == job_state::cancelled)
                ++svc->jobs_cancelled;
            else
                ++svc->jobs_done;
            --svc->pending;
        }
        svc->cv.notify_all();
    });
    return job(std::move(im));
}

floor_service::job floor_service::submit(data::building b) {
    return submit(std::move(b), allocate_corpus_index());
}

floor_service::job floor_service::submit(data::building b, std::size_t corpus_index) {
    return submit(std::move(b), corpus_index, nullptr);
}

floor_service::job floor_service::submit(data::building b, std::size_t corpus_index,
                                         report_callback on_report) {
    if (cfg_.faults.crash_on_submit)
        throw backend_crashed("floor_service: injected crash_on_submit");
    {
        const std::lock_guard<std::mutex> lock(state_->m);
        if (corpus_index >= next_index_) next_index_ = corpus_index + 1;
    }
    auto svc = state_;
    return enqueue(
        [b = std::move(b), corpus_index, executor = executor_, svc,
         faults = cfg_.faults](job::impl& im) {
            if (im.cancel_requested.load() ||
                (faults.hang_ms != 0 && !fault_sleep(im.cancel_requested, faults.hang_ms))) {
                record_report(im, *svc, executor.skipped(b.name, corpus_index, "cancelled"),
                              report_kind::skipped_cancelled);
                return;
            }
            if (faults.any()) {
                const std::size_t n = svc->fault_executions.fetch_add(1) + 1;
                if (auto failed = injected_failure(faults, n, executor, b.name, corpus_index)) {
                    record_report(im, *svc, std::move(*failed), report_kind::skipped_failed);
                    return;
                }
            }
            record_report(im, *svc, executor.run(corpus_index, b), report_kind::ran);
        },
        1, std::move(on_report));
}

floor_service::job floor_service::submit(shard_ref ref) {
    return submit(std::move(ref), nullptr);
}

floor_service::job floor_service::submit(shard_ref ref, report_callback on_report) {
    if (cfg_.faults.crash_on_submit)
        throw backend_crashed("floor_service: injected crash_on_submit");
    {
        const std::lock_guard<std::mutex> lock(state_->m);
        const std::size_t end = ref.first_index + ref.num_buildings;
        if (end > next_index_) next_index_ = end;
    }
    auto svc = state_;
    return enqueue(
        [ref = std::move(ref), executor = executor_, svc, faults = cfg_.faults](job::impl& im) {
            std::size_t offset = 0;
            const auto skip_rest = [&](const std::string& reason, report_kind kind) {
                for (; offset < ref.num_buildings; ++offset)
                    record_report(im, *svc,
                                  executor.skipped("", ref.first_index + offset, reason),
                                  kind);
            };
            try {
                data::shard_reader reader(ref.path);
                // Stream: exactly one building of the shard is resident at
                // a time, whatever the shard size.
                while (offset < ref.num_buildings) {
                    if (im.cancel_requested.load()) {
                        skip_rest("cancelled", report_kind::skipped_cancelled);
                        return;
                    }
                    const std::uint32_t stall_ms = faults.hang_ms + faults.slow_read_ms;
                    if (stall_ms != 0 && !fault_sleep(im.cancel_requested, stall_ms)) {
                        skip_rest("cancelled", report_kind::skipped_cancelled);
                        return;
                    }
                    std::optional<data::building> b = reader.next();
                    if (!b) {
                        skip_rest("shard ended early: " + ref.path,
                                  report_kind::skipped_failed);
                        return;
                    }
                    const std::size_t corpus_index = ref.first_index + offset;
                    // Consume the slot before recording: if on_report
                    // throws mid-record, skip_rest must not re-report it.
                    ++offset;
                    if (faults.any()) {
                        const std::size_t n = svc->fault_executions.fetch_add(1) + 1;
                        if (auto failed =
                                injected_failure(faults, n, executor, b->name, corpus_index)) {
                            record_report(im, *svc, std::move(*failed),
                                          report_kind::skipped_failed);
                            continue;
                        }
                    }
                    record_report(im, *svc, executor.run(corpus_index, *b), report_kind::ran);
                }
            } catch (const std::exception& e) {
                skip_rest(e.what(), report_kind::skipped_failed);
            }
        },
        ref.num_buildings, std::move(on_report));
}

std::size_t floor_service::allocate_corpus_index() {
    const std::lock_guard<std::mutex> lock(state_->m);
    return next_index_++;
}

void floor_service::advance_corpus_index(std::size_t end) {
    const std::lock_guard<std::mutex> lock(state_->m);
    if (end > next_index_) next_index_ = end;
}

// --- control & observability ------------------------------------------------

void floor_service::wait_all() {
    std::unique_lock<std::mutex> lock(state_->m);
    if (state_->paused && state_->pending > 0)
        throw std::logic_error("floor_service::wait_all: paused with pending jobs");
    state_->cv.wait(lock, [&] { return state_->pending == 0; });
}

void floor_service::pause() {
    const std::lock_guard<std::mutex> lock(state_->m);
    state_->paused = true;
}

void floor_service::resume() {
    {
        const std::lock_guard<std::mutex> lock(state_->m);
        state_->paused = false;
    }
    state_->cv.notify_all();
}

bool floor_service::paused() const {
    const std::lock_guard<std::mutex> lock(state_->m);
    return state_->paused;
}

std::size_t floor_service::pending_jobs() const {
    const std::lock_guard<std::mutex> lock(state_->m);
    return state_->pending;
}

service_stats floor_service::stats() const {
    service_snapshot snap = snapshot();
    snap.stats.latency = obs::summarize(snap.latencies);
    return std::move(snap.stats);
}

service_snapshot floor_service::snapshot() const {
    service_snapshot out;
    service_stats& s = out.stats;
    const std::lock_guard<std::mutex> lock(state_->m);
    s.jobs_submitted = state_->jobs_submitted;
    s.jobs_running = state_->jobs_running;
    s.jobs_done = state_->jobs_done;
    s.jobs_cancelled = state_->jobs_cancelled;
    s.jobs_queued = state_->jobs_submitted - state_->jobs_running - state_->jobs_done -
                    state_->jobs_cancelled;
    s.buildings_ok = state_->buildings_ok;
    s.buildings_failed = state_->buildings_failed;
    s.buildings_cancelled = state_->buildings_cancelled;
    s.buildings_done =
        state_->buildings_ok + state_->buildings_failed + state_->buildings_cancelled;
    out.latencies = state_->latencies;
    return out;
}

}  // namespace fisone::service
