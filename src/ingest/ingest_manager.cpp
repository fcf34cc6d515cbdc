#include "ingest_manager.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "append.hpp"
#include "obs/trace.hpp"

namespace fisone::ingest {

ingest_manager::ingest_manager(std::vector<store_binding> stores, reindex_submit submit,
                               publish_fn publish)
    : stores_(std::move(stores)),
      states_(stores_.size()),
      submit_(std::move(submit)),
      publish_(std::move(publish)) {
    worker_ = std::thread([this] { worker_loop(); });
}

ingest_manager::~ingest_manager() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();  // drains the queue first
    // Outstanding re-runs were already submitted; their completions are
    // guaranteed (one response per submission, success or typed error), and
    // the fleet outlives this manager by construction — wait them out so no
    // completion callback ever touches a dead manager.
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return pending_.empty() && publishing_ == 0; });
}

void ingest_manager::enqueue_append(std::string corpus_name,
                                    std::vector<data::building> records,
                                    std::function<void(const append_ack&)> ack) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stop_) return;  // tearing down: the connection is going away too
        queue_.push_back(op{std::move(corpus_name), std::move(records), std::move(ack)});
    }
    cv_.notify_one();
}

void ingest_manager::on_reindex_result(std::uint64_t corr,
                                       const runtime::building_report* report) {
    std::string name;
    std::uint64_t version = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = pending_.find(corr);
        if (it == pending_.end()) return;  // stale / unknown: already resolved
        name = std::move(it->second.name);
        version = it->second.version;
        pending_.erase(it);
        // Erasing resolves the correlation id (a racing duplicate response
        // finds nothing), but idleness must not be observable until the
        // push is delivered: `flush` promises subscribers their updates are
        // buffered by the time it answers.
        ++publishing_;
    }
    if (report != nullptr && publish_) publish_(name, version, *report);
    // Notify under the lock: once `publishing_` can read 0, the destructor
    // may return and free `idle_cv_`, so it must not be touched after the
    // lock is released.
    const std::lock_guard<std::mutex> lock(mutex_);
    --publishing_;
    idle_cv_.notify_all();
}

void ingest_manager::wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] {
        return queue_.empty() && !busy_ && pending_.empty() && publishing_ == 0;
    });
}

void ingest_manager::worker_loop() {
    for (;;) {
        op item;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stop requested and nothing left
            item = std::move(queue_.front());
            queue_.pop_front();
            busy_ = true;
        }
        process(item);
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            busy_ = false;
        }
        idle_cv_.notify_all();
    }
}

namespace {

/// Sleep for the store owner's `slow_read_ms` drill, once per building read.
void slow_read(const store_binding& binding) {
    if (binding.faults.slow_read_ms != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(binding.faults.slow_read_ms));
}

}  // namespace

void ingest_manager::snapshot(const store_binding& binding, store_state& ss) {
    data::corpus_store store = data::corpus_store::open(binding.dir);
    std::unordered_map<std::string, std::uint64_t> hashes;
    for (std::size_t i = 0;; ++i) {
        const std::optional<data::building> b = store.read_effective(i);
        if (!b) break;
        slow_read(binding);
        // A name several base blocks share is the first one's, as in a read
        // by name.
        hashes.try_emplace(b->name, data::content_hash(*b));
    }
    ss.store = std::move(store);
    ss.hashes = std::move(hashes);
}

std::vector<ingest_manager::dirty_item> ingest_manager::reindex(
    const store_binding& binding, store_state& ss, const std::vector<std::string>& touched) {
    ss.store = ss.store->reopen();
    std::vector<dirty_item> dirty;
    for (const std::string& name : touched) {
        std::optional<data::located_building> found = ss.store->read_effective(name);
        if (!found)
            throw std::runtime_error("ingest: appended building \"" + name +
                                     "\" is missing from the store at " + binding.dir);
        slow_read(binding);
        const std::uint64_t hash = data::content_hash(found->b);
        const auto [it, fresh] = ss.hashes.try_emplace(name, hash);
        if (!fresh && it->second == hash) continue;
        it->second = hash;
        dirty.push_back(
            dirty_item{name, binding.base_offset + found->index, std::move(found->b), hash});
    }
    // Re-runs go out in corpus order, whatever order the batch named them.
    std::sort(dirty.begin(), dirty.end(),
              [](const dirty_item& a, const dirty_item& b) { return a.index < b.index; });
    return dirty;
}

void ingest_manager::process(op& item) {
    const store_binding* binding = nullptr;
    store_state* ss = nullptr;
    for (std::size_t i = 0; i < stores_.size(); ++i) {
        if (stores_[i].corpus_name == item.corpus_name) {
            binding = &stores_[i];
            ss = &states_[i];
            break;
        }
    }
    if (binding == nullptr) {
        if (item.ack)
            item.ack(append_ack{0, 0, 0,
                                "no mounted store serves corpus \"" + item.corpus_name + "\"",
                                {}});
        return;
    }
    try {
        // The pre-append baseline: hashes of the effective view as it
        // stands, so only this batch's actual changes count as dirty.
        // Built once per store (deltas already on disk at mount are part
        // of the baseline — a warm restart does not re-run them); each
        // append then updates the hashes of the names it carried.
        if (!ss->store) snapshot(*binding, *ss);

        append_hooks hooks;
        if (binding->faults.crash_on_append != 0) {
            const std::uint32_t step = binding->faults.crash_on_append;
            // std::abort, not an exception: the drill is kill -9 mid-append,
            // and nothing may get the chance to clean up.
            hooks.checkpoint = [step](int s) {
                if (static_cast<std::uint32_t>(s) == step) std::abort();
            };
        }
        const append_outcome outcome = append_scans(binding->dir, item.records, hooks);
        appends_total_.fetch_add(1, std::memory_order_relaxed);

        obs::scoped_span span("ingest.reindex");
        std::vector<dirty_item> dirty = reindex(*binding, *ss, outcome.touched);
        dirty_total_.fetch_add(dirty.size(), std::memory_order_relaxed);

        // Ack now: durable on disk, dirty set known. The re-runs below are
        // asynchronous — `flush` is the barrier that waits for them.
        if (item.ack)
            item.ack(append_ack{outcome.version, outcome.accepted, dirty.size(), "",
                                outcome.touched});

        for (dirty_item& d : dirty) {
            std::uint64_t corr = 0;
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                corr = next_corr_++;
                pending_.emplace(corr, pending_run{d.name, outcome.version});
            }
            try {
                submit_(corr, d.index, std::move(d.b), d.content_hash);
            } catch (...) {
                // Submission never left the front-end; nothing will answer.
                const std::lock_guard<std::mutex> lock(mutex_);
                pending_.erase(corr);
            }
        }
    } catch (const std::exception& e) {
        if (item.ack) item.ack(append_ack{0, 0, 0, e.what(), {}});
    }
}

}  // namespace fisone::ingest
