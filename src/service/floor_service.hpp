#pragma once

/// \file floor_service.hpp
/// `fisone::service` — the long-lived asynchronous front-end over the batch
/// runtime. Where `runtime::batch_runner::run` blocks on one in-memory
/// corpus, `floor_service` accepts work continuously: callers submit single
/// buildings or on-disk shard references and get back a `job` handle; one
/// persistent `util::thread_pool` executes everything.
///
/// Semantics:
///  - **Determinism.** A building's pipeline seeds derive purely from
///    (service seed, corpus index) via `runtime::task_seed` — the same rule
///    `batch_runner` uses — so serving a sharded corpus produces results
///    bit-identical to one blocking batch over the same input order, at any
///    worker count and any shard size.
///  - **Backpressure.** At most `max_pending_jobs` jobs may be submitted
///    but not yet finished; `submit` blocks until a slot frees. This bounds
///    both queue memory and, for shard jobs, how much of a corpus can ever
///    be resident (each worker streams one building at a time).
///  - **Cancellation.** `job::cancel` is cooperative: a job that has not
///    started is skipped entirely; a running shard job stops between
///    buildings. Skipped buildings get `ok = false, error = "cancelled"`.
///  - **Observability.** `on_report` fires after every finished building in
///    completion order (serialised); `stats()` snapshots queue depth and
///    latency percentiles at any time.
///
/// A paused service (`pause()` / `resume()`) holds queued jobs at the gate
/// while letting the current building finish — drain control for
/// maintenance, and the hook the backpressure/cancellation tests use to
/// make scheduling deterministic.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/fis_one.hpp"
#include "data/corpus_store.hpp"
#include "data/rf_sample.hpp"
#include "fault_plan.hpp"
#include "obs/telemetry.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/task_executor.hpp"

namespace fisone::service {

/// A shard of an on-disk corpus, addressed for submission. `first_index`
/// anchors the shard's buildings in the corpus order that seeds derive
/// from; use `make_shard_ref` to build one from an open store.
struct shard_ref {
    std::string path;               ///< shard file path (shard_reader format)
    std::size_t first_index = 0;    ///< corpus index of the shard's first building
    std::size_t num_buildings = 0;  ///< buildings the shard is expected to hold
};

/// Shard \p shard_index of \p store as a submittable reference.
[[nodiscard]] shard_ref make_shard_ref(const data::corpus_store& store, std::size_t shard_index);

/// Lifecycle of a job. `cancelled` means at least one building was skipped
/// by cancellation; buildings finished before the cancel stay valid.
enum class job_state { queued, running, done, cancelled };

/// Service configuration.
struct service_config {
    /// Template pipeline config; per-building copies get `task_seed`-derived
    /// seeds, exactly as in `runtime::batch_config`.
    core::fis_one_config pipeline{};
    std::uint64_t seed = 7;  ///< campaign seed, root of all building seeds
    /// Concurrent jobs (dedicated pool workers). 0 = the CPUs this thread
    /// may run on (`util::resolve_num_threads`).
    std::size_t num_threads = 0;
    /// Backpressure bound: maximum jobs submitted but not yet finished.
    /// `submit` blocks while the bound is reached. Must be ≥ 1.
    std::size_t max_pending_jobs = 64;
    /// Invoked after every finished building (ok, failed or cancelled), in
    /// completion order. Calls are serialised by a service mutex; the
    /// callback must not block or submit new jobs (deadlock) — hand results
    /// off (e.g. `ndjson_exporter::write`) and return. A callback that
    /// throws abandons the remaining reports of the current job (they are
    /// neither recorded nor delivered) but never wedges the service.
    std::function<void(const runtime::building_report&)> on_report;
    /// Deterministic fault injection (tests and chaos drills only; the
    /// default plan is healthy). Injected failures report errors prefixed
    /// with `k_transient_error_prefix`; `crash_on_submit` makes `submit`
    /// throw `backend_crashed` instead of accepting work.
    fault_plan faults{};
};

/// Point-in-time service counters, plus the per-building pipeline wall
/// times of every finished building so far.
struct service_stats {
    std::size_t jobs_submitted = 0;
    std::size_t jobs_queued = 0;     ///< submitted, not yet picked up by a worker
    std::size_t jobs_running = 0;
    std::size_t jobs_done = 0;       ///< finished without any cancelled building
    std::size_t jobs_cancelled = 0;  ///< finished with ≥ 1 building skipped
    std::size_t buildings_done = 0;  ///< ok + failed + cancelled
    std::size_t buildings_ok = 0;
    std::size_t buildings_failed = 0;     ///< pipeline threw (excludes cancelled)
    std::size_t buildings_cancelled = 0;  ///< skipped by job cancellation
    obs::latency_summary latency;  ///< seconds per building
    /// Result-cache counters. The bare service runs every submission and
    /// leaves these 0; `api::server` serves repeat submissions from its
    /// `api::result_cache` and fills them in its `get_stats` response.
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::size_t cache_evictions = 0;  ///< LRU entries pushed out by capacity
    /// Live-ingestion counters. The bare service (and each backend) leaves
    /// these 0; the federated front-end — owner of the stores, the append
    /// path, and the watch registry — fills them in its merged stats.
    std::size_t ingest_appends = 0;          ///< durable append batches
    std::size_t ingest_dirty_buildings = 0;  ///< buildings re-run after appends
    std::size_t watch_subscribers = 0;       ///< live watch subscriptions (gauge)
};

/// How a `service_stats` entry is exposed on `/metrics`.
enum class stat_kind { counter, gauge, latency };

/// One `service_stats` entry: where it lives and how `/metrics` names it.
struct stat_field {
    stat_kind kind;
    /// Counter or gauge family; the summary family on the latency row.
    const char* metric;
    const char* help;
    std::size_t service_stats::* count = nullptr;             ///< counter and gauge rows
    obs::latency_summary service_stats::* latency = nullptr;  ///< the latency row
    const char* histogram = nullptr;  ///< the latency row's histogram family
};

/// Every `service_stats` entry once, in `get_stats` wire order, which is
/// also `/metrics` page order. The codec, the fleet merge and the renderer
/// all iterate this table: a new counter is a struct field plus one row
/// here (and a `k_schema_version` bump, since it changes the wire).
inline constexpr stat_field k_service_stat_fields[] = {
    {stat_kind::counter, "fisone_service_jobs_submitted_total",
     "jobs submitted to the floor service", &service_stats::jobs_submitted},
    {stat_kind::gauge, "fisone_service_jobs_queued", "jobs submitted but not yet picked up",
     &service_stats::jobs_queued},
    {stat_kind::gauge, "fisone_service_jobs_running", "jobs currently executing",
     &service_stats::jobs_running},
    {stat_kind::counter, "fisone_service_jobs_done_total", "jobs finished without cancellation",
     &service_stats::jobs_done},
    {stat_kind::counter, "fisone_service_jobs_cancelled_total",
     "jobs with at least one skipped building", &service_stats::jobs_cancelled},
    {stat_kind::counter, "fisone_service_buildings_done_total",
     "buildings finished (ok+failed+cancelled)", &service_stats::buildings_done},
    {stat_kind::counter, "fisone_service_buildings_ok_total", "buildings finished successfully",
     &service_stats::buildings_ok},
    {stat_kind::counter, "fisone_service_buildings_failed_total",
     "buildings whose pipeline threw", &service_stats::buildings_failed},
    {stat_kind::counter, "fisone_service_buildings_cancelled_total",
     "buildings skipped by cancellation", &service_stats::buildings_cancelled},
    {stat_kind::latency, "fisone_service_building_latency_seconds",
     "per-building pipeline wall time", nullptr, &service_stats::latency,
     "fisone_service_building_seconds"},
    {stat_kind::counter, "fisone_cache_hits_total", "result-cache hits",
     &service_stats::cache_hits},
    {stat_kind::counter, "fisone_cache_misses_total", "result-cache misses",
     &service_stats::cache_misses},
    {stat_kind::counter, "fisone_cache_evictions_total", "result-cache LRU evictions",
     &service_stats::cache_evictions},
    {stat_kind::counter, "fisone_ingest_appends_total",
     "scan-batch appends to mounted stores (written then renamed, not fsynced)",
     &service_stats::ingest_appends},
    {stat_kind::counter, "fisone_ingest_dirty_buildings_total",
     "buildings re-run because an append changed their content hash",
     &service_stats::ingest_dirty_buildings},
    {stat_kind::gauge, "fisone_watch_subscribers",
     "live watch subscriptions across all connections", &service_stats::watch_subscribers},
};

/// A service's counters together with the histogram behind their latency
/// summary (left empty in `stats`): what a fleet merge pools, since
/// percentiles themselves cannot be combined.
struct service_snapshot {
    service_stats stats;
    obs::latency_histogram latencies;
};

class floor_service {
public:
    /// Handle to one submitted job. Cheap to copy; all copies share state.
    /// A default-constructed handle is empty (`valid() == false`) and every
    /// other member throws `std::logic_error` on it.
    class job {
    public:
        job() = default;

        [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }
        [[nodiscard]] job_state state() const;

        /// Block until the job leaves the queue *and* finishes running.
        void wait() const;

        /// Request cancellation. Returns true when the request landed
        /// before the job finished (its remaining buildings will be
        /// skipped); false when the job was already complete.
        bool cancel();

        /// Reports of the job's buildings in the job's own input order
        /// (one for a building submit, `num_buildings` for a shard).
        /// Blocks until the job finishes.
        [[nodiscard]] const std::vector<runtime::building_report>& reports() const;

    private:
        friend class floor_service;
        struct impl;
        explicit job(std::shared_ptr<impl> state) : impl_(std::move(state)) {}
        std::shared_ptr<impl> impl_;
    };

    /// Spins up the worker pool immediately.
    /// \throws std::invalid_argument on a zero `max_pending_jobs`.
    explicit floor_service(service_config cfg);

    /// Resumes if paused, then waits for every submitted job to finish.
    ~floor_service();

    floor_service(const floor_service&) = delete;
    floor_service& operator=(const floor_service&) = delete;

    /// Per-job completion callback: fires after each of the job's finished
    /// buildings (ok, failed or cancelled), right after the service-wide
    /// `on_report`, serialised with it, and under the same constraints
    /// (must not block or submit jobs). This is how a front-end — e.g.
    /// `api::server` — routes completion-order results back to the caller
    /// that owns the job, which the global callback cannot do.
    using report_callback = std::function<void(const runtime::building_report&)>;

    /// Submit one building; its corpus index (and thus seed) is the next
    /// unused index, so submitting a corpus building-by-building reproduces
    /// the batch over that corpus. Blocks while the service is at
    /// `max_pending_jobs`.
    job submit(data::building b);

    /// Submit one building at an explicit corpus index.
    job submit(data::building b, std::size_t corpus_index);

    /// Submit one building at an explicit corpus index with a per-job
    /// completion callback.
    job submit(data::building b, std::size_t corpus_index, report_callback on_report);

    /// Submit a shard by reference: a worker streams its buildings straight
    /// from disk, one at a time — the shard is never resident as a whole.
    /// Building i of the shard runs at corpus index `first_index + i`.
    job submit(shard_ref ref);

    /// Shard submission with a per-job completion callback (fires once per
    /// building of the shard).
    job submit(shard_ref ref, report_callback on_report);

    /// Claim the next unused corpus index without submitting anything —
    /// the index (and thus seed) a subsequent auto-index submission would
    /// get. Front-ends use it to know a task's identity (for result-cache
    /// keys) before deciding whether the service needs to run it at all.
    [[nodiscard]] std::size_t allocate_corpus_index();

    /// Ensure auto-assigned indices start at or after \p end — what an
    /// explicit-index submission does implicitly. Front-ends call it when
    /// they satisfy an explicit-index submission *without* submitting
    /// (e.g. a result-cache hit), keeping index assignment identical to a
    /// cache-off run.
    void advance_corpus_index(std::size_t end);

    /// Block until every job submitted so far has finished. Throws
    /// `std::logic_error` when called on a paused service with pending
    /// jobs (it would never return).
    void wait_all();

    /// Hold queued jobs at the gate (running buildings finish normally).
    void pause();

    /// Release the gate.
    void resume();

    /// True between `pause()` and `resume()`. Federation routing reads it:
    /// load-aware policies must not hand new work to a backend that is
    /// holding its queue at the gate.
    [[nodiscard]] bool paused() const;

    /// Bounded-queue occupancy: jobs submitted but not yet finished — the
    /// quantity `max_pending_jobs` bounds, and the load signal the
    /// federation layer's least-queue-depth policy routes on. One lock,
    /// no percentile work (unlike a full `stats()` snapshot).
    [[nodiscard]] std::size_t pending_jobs() const;

    /// `snapshot()` with its latency histogram summarised.
    [[nodiscard]] service_stats stats() const;

    /// The counters and the per-building latency histogram, taken under
    /// one lock. Bounded on purpose: a long-running serve loop feeds the
    /// histogram once per building forever, so hoarding exact samples
    /// would grow without limit; percentiles carry
    /// `obs::latency_histogram::k_max_relative_error`.
    [[nodiscard]] service_snapshot snapshot() const;
    [[nodiscard]] const service_config& config() const noexcept { return cfg_; }

    /// Concurrent jobs the pool can run (resolved `num_threads`).
    [[nodiscard]] std::size_t num_workers() const noexcept { return workers_; }

private:
    struct state;

    /// How a building's report came to exist, for the stats counters.
    enum class report_kind { ran, skipped_cancelled, skipped_failed };
    static void record_report(job::impl& im, state& st, runtime::building_report&& report,
                              report_kind kind);

    job enqueue(std::function<void(job::impl&)> body, std::size_t num_buildings,
                report_callback on_report);

    service_config cfg_;
    std::size_t workers_ = 1;
    /// Every job runs its buildings through a copy of this one executor,
    /// so a multi-threaded kernel pool is created once per service.
    runtime::task_executor executor_;
    std::size_t next_index_ = 0;  // guarded by the state mutex
    std::shared_ptr<state> state_;
    std::unique_ptr<util::thread_pool> pool_;
};

}  // namespace fisone::service
