#pragma once

/// \file ingest_manager.hpp
/// The live-ingestion engine behind the federated front-end's
/// `append_scans` verb. One worker thread serialises every append (two
/// appends to one store must never race on the manifest version), and for
/// each batch:
///
///   1. **Append** — `ingest::append_scans` lands the delta shard and
///      versions the manifest forward atomically, written then renamed,
///      not fsynced (`ingest.append` span). The store owner's `service::fault_plan::crash_on_append`
///      is armed here: the process `std::abort()`s at the configured
///      checkpoint, exactly as kill -9 mid-append would.
///   2. **Dirty detection** — each building the batch names is read back
///      from the store's effective (delta-applied) view on its own and
///      `data::content_hash`ed against its pre-append hash; only buildings
///      whose bits changed (or that are new) are dirty. No other building
///      can have changed: base shards are immutable and a delta record
///      changes only the building it names. Every read honors the owner's
///      `slow_read_ms`.
///   3. **Ack** — the caller's `append_response` fires now: the append is
///      committed (written then renamed, not fsynced) and the dirty count
///      known, while the re-runs follow
///      asynchronously (barrier: `flush`).
///   4. **Re-serve** (`ingest.reindex` span) — each dirty building is
///      resubmitted, pinned at its unchanged global corpus index and with
///      the hash step 2 computed, through the owning server's internal
///      session, so the re-runs ride the same retry/failover/deadline
///      machinery as client work and leave the backend result caches warm
///      with the post-append bits. Clean buildings are untouched — they
///      keep serving from cache.
///   5. **Push** — every completed re-run is handed to the publish hook
///      (the federation `watch_registry`), which fans it out to standing
///      `watch` subscriptions.
///
/// Index identity: a base building keeps the global index it mounted at; a
/// record whose name no base building holds becomes a new building at the
/// store's local tail (`base_offset + local effective index`), which for
/// the last-mounted store is the tail of the merged namespace. Appending
/// new buildings to a store that is *not* last gives them indices the next
/// store's base already occupies — deterministic (seeds derive from index,
/// and sharing one is harmless to per-building results) but a single
/// NDJSON export mixing both will refuse the duplicate index; mount the
/// growing store last.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/corpus_store.hpp"
#include "data/rf_sample.hpp"
#include "runtime/batch_runner.hpp"
#include "service/fault_plan.hpp"

namespace fisone::ingest {

/// One appendable store, as the manager sees it: where it lives, what its
/// corpus is called (the `append_scans` routing key), where its buildings
/// start in the global corpus order, and the fault plan of the backend
/// that owns it (store k → backend k mod fleet size).
struct store_binding {
    std::string dir;
    std::string corpus_name;
    std::size_t base_offset = 0;
    service::fault_plan faults{};
};

/// What an append's ack callback receives. `error` empty = success (the
/// append is committed: written then renamed, not fsynced); non-empty =
/// nothing changed on disk.
struct append_ack {
    std::uint64_t version = 0;
    std::uint64_t accepted = 0;
    std::uint64_t dirty = 0;
    std::string error;
    /// Building names the batch carried, deduplicated, in first-appearance
    /// order (empty on error).
    std::vector<std::string> touched;
};

class ingest_manager {
public:
    /// Resubmit one dirty building: a pinned identification at global
    /// index \p index under correlation id \p corr, with the
    /// `data::content_hash` the dirty check already computed; the eventual
    /// `building_response` (or typed error) must come back through
    /// `on_reindex_result`.
    using reindex_submit = std::function<void(std::uint64_t corr, std::size_t index,
                                              data::building b, std::uint64_t content_hash)>;

    /// Fan one completed re-identification out to subscribers.
    using publish_fn = std::function<void(const std::string& name, std::uint64_t version,
                                          const runtime::building_report& report)>;

    /// Spins up the append worker. \p submit and \p publish are called from
    /// worker / completion threads — they must be thread-safe and must not
    /// call back into this manager (other than `on_reindex_result`).
    ingest_manager(std::vector<store_binding> stores, reindex_submit submit,
                   publish_fn publish);

    /// Drains the queue (enqueued appends still commit), then
    /// waits for every outstanding re-run's completion to arrive. The
    /// submit targets (the fleet) must outlive the manager.
    ~ingest_manager();

    ingest_manager(const ingest_manager&) = delete;
    ingest_manager& operator=(const ingest_manager&) = delete;

    /// Queue one append batch. \p ack fires exactly once, on the worker
    /// thread, after the append commits (or is refused); it must not block
    /// or call back into the manager.
    void enqueue_append(std::string corpus_name, std::vector<data::building> records,
                        std::function<void(const append_ack&)> ack);

    /// Completion of re-run \p corr: \p report is the finished building, or
    /// nullptr when the fleet answered a typed error (retries exhausted) —
    /// nothing is pushed then. Unknown ids are ignored.
    void on_reindex_result(std::uint64_t corr, const runtime::building_report* report);

    /// Block until every queued append has processed and every submitted
    /// re-run has resolved — the ingest half of the `flush` barrier.
    void wait_idle();

    [[nodiscard]] std::uint64_t appends_total() const noexcept {
        return appends_total_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t dirty_total() const noexcept {
        return dirty_total_.load(std::memory_order_relaxed);
    }

private:
    struct op {
        std::string corpus_name;
        std::vector<data::building> records;
        std::function<void(const append_ack&)> ack;
    };

    /// One store as of its last append: the open handle (its block index
    /// carries from append to append) and every building's content hash
    /// over the *effective* (delta-applied) view.
    struct store_state {
        std::optional<data::corpus_store> store;  ///< unset until the first append
        std::unordered_map<std::string, std::uint64_t> hashes;
    };

    struct dirty_item {
        std::string name;
        std::size_t index = 0;
        data::building b;
        std::uint64_t content_hash = 0;  ///< `data::content_hash(b)`
    };

    struct pending_run {
        std::string name;
        std::uint64_t version = 0;
    };

    void worker_loop();
    void process(op& item);

    /// Open \p binding's store and hash every building of its effective
    /// view: the baseline the first append is diffed against.
    static void snapshot(const store_binding& binding, store_state& ss);

    /// Re-read each of \p touched from the advanced store, collecting the
    /// ones whose hash changed (or that are new) in global index order.
    static std::vector<dirty_item> reindex(const store_binding& binding, store_state& ss,
                                           const std::vector<std::string>& touched);

    std::vector<store_binding> stores_;
    std::vector<store_state> states_;  ///< worker-thread-only after construction
    reindex_submit submit_;
    publish_fn publish_;

    std::mutex mutex_;
    std::condition_variable cv_;       ///< wakes the worker
    std::condition_variable idle_cv_;  ///< wakes wait_idle / completion waiters
    std::deque<op> queue_;
    std::unordered_map<std::uint64_t, pending_run> pending_;
    std::uint64_t next_corr_ = 1;
    /// Pushes in flight: resolved correlation ids whose publish call hasn't
    /// returned. Idleness (flush) waits for these too — a subscriber's push
    /// must be buffered by the time flush answers.
    std::size_t publishing_ = 0;
    bool busy_ = false;
    bool stop_ = false;

    std::atomic<std::uint64_t> appends_total_{0};
    std::atomic<std::uint64_t> dirty_total_{0};

    std::thread worker_;
};

}  // namespace fisone::ingest
