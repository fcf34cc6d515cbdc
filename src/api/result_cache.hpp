#pragma once

/// \file result_cache.hpp
/// Content-addressed LRU cache over finished building reports. The key is
/// (canonical building content hash, effective-config fingerprint):
///  - `data::content_hash` digests the building exactly as the pipeline
///    consumes it;
///  - `core::config_fingerprint` digests every result-relevant config
///    field *including the task-derived seeds* (and excluding
///    `num_threads`, which never changes results).
/// Because the fingerprint covers the derived seed, a hit guarantees the
/// cached report is bit-identical to what the pipeline would produce for
/// this submission — resubmitting a corpus at the same indices skips the
/// pipeline entirely while responses stay byte-identical to cache-off
/// runs (only the non-deterministic `seconds` field differs, as between
/// any two runs).
///
/// Only `ok` reports are worth caching; the server enforces that policy,
/// the cache itself stores whatever it is given. Thread-safe; eviction is
/// strict LRU on lookup-or-insert recency.
///
/// **Shared entries.** Each entry is immutable and shared: the report's
/// head (the report without its result) plus `tail`, the encoded bytes of
/// its result (`encode_result_tail`), built once when the entry is made.
/// The result is kept only as those bytes, not a second time in typed
/// form. `lookup` hands out the entry itself, so a hit copies no report and
/// encodes only its per-answer head (`encode_building_head`); holders may
/// keep an entry alive after it is evicted or replaced.
///
/// **Persistent spill.** With a `cache_spill_config`, every insert is also
/// written to disk as one file per entry — named by the key
/// (`<content_hash>-<config_fingerprint>.rc`, both as 16-hex-digit fields)
/// and holding the entry as an encoded `building_response` frame. Writes
/// go to a `.tmp` sibling first and land via `rename`, so a crash of the
/// process at any instant leaves either the complete old file, the
/// complete new file, or a sweepable temp — never a torn entry. Nothing is
/// fsynced, so a power loss may drop recent entries (the
/// `util::durable_write` item in ROADMAP.md); a lost entry only costs a
/// recompute. On construction the cache warm-loads from the directory,
/// but each instance restores **only its affinity shard**
/// (`content_hash % shard_count == shard_index`, the same arithmetic
/// content-hash-affinity routing uses) — the "least data
/// necessary" rule of distributed-checkpoint loading: a restarted fleet
/// member never reads its peers' entries. The key is parsed from the
/// filename, so shard filtering never opens out-of-shard files at all.
/// A warm-loaded entry's tail is sliced from its file's frame, not
/// re-encoded. Corrupt files are deleted on load; leftover `.tmp` files
/// are swept.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "runtime/batch_runner.hpp"

namespace fisone::api {

/// Content address of one pipeline execution.
struct cache_key {
    std::uint64_t content_hash = 0;        ///< `data::content_hash` of the building
    std::uint64_t config_fingerprint = 0;  ///< `core::config_fingerprint` of the effective config

    friend bool operator==(const cache_key&, const cache_key&) noexcept = default;
};

/// One immutable cache entry, shared by the cache and every answer served
/// from it.
struct cached_report {
    /// The report with an empty `result`: the name, ok, error and seed an
    /// answer's head copies, and the index and seconds of the run that
    /// made the entry.
    runtime::building_report head;
    /// `encode_result_tail(result)`: the bytes every `building_result`
    /// frame of this report ends with, and the only copy of its result.
    std::string tail;
};

/// Point-in-time cache counters.
struct result_cache_stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t entries = 0;
    std::size_t evictions = 0;
    std::size_t warm_loaded = 0;  ///< entries restored from disk at construction
};

/// Where (and which shard of) a persistent spill lives. An empty `dir`
/// disables persistence entirely — the cache is purely in-memory.
struct cache_spill_config {
    std::string dir;  ///< spill directory, shared by the whole fleet; created on demand
    std::size_t shard_count = 1;  ///< fleet size the affinity filter divides by
    std::size_t shard_index = 0;  ///< this instance's shard (< shard_count)

    [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

class result_cache {
public:
    /// \throws std::invalid_argument on zero capacity, a zero
    /// `shard_count`, or a `shard_index` out of range. With spill enabled,
    /// creates the directory and warm-loads this instance's shard.
    explicit result_cache(std::size_t capacity, cache_spill_config spill = {});

    /// The entry cached under \p key, refreshed to most-recently-used; or
    /// null. Counts one hit or miss.
    [[nodiscard]] std::shared_ptr<const cached_report> lookup(const cache_key& key);

    /// Insert (or replace) the entry for \p report under \p key, encoding
    /// its tail once (the entry keeps no typed copy of the result) and
    /// evicting the least recently used entry when full.
    /// Does not count a hit or miss. With spill enabled the entry is
    /// written to disk (write-then-rename: never torn, not fsynced)
    /// *before* it becomes visible in memory; a spill I/O failure is
    /// swallowed — persistence degrades, serving never does. Disk entries
    /// are not evicted with their in-memory twins: the spill is the warm-
    /// restart superset, bounded by the corpus, not by `capacity`.
    /// \returns the entry just made, so a caller can answer from it as a
    ///          hit would.
    std::shared_ptr<const cached_report> insert(const cache_key& key,
                                                const runtime::building_report& report);

    [[nodiscard]] result_cache_stats stats() const;
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] const cache_spill_config& spill() const noexcept { return spill_; }

    /// Drop every in-memory entry (counters and disk spill survive).
    void clear();

private:
    void warm_load();
    struct key_hash {
        std::size_t operator()(const cache_key& k) const noexcept {
            // The halves are already avalanched FNV digests; xor with an
            // odd-multiplier spread keeps (a,b) and (b,a) distinct.
            return static_cast<std::size_t>(k.content_hash * 0x9e3779b97f4a7c15ULL ^
                                            k.config_fingerprint);
        }
    };

    using lru_list = std::list<std::pair<cache_key, std::shared_ptr<const cached_report>>>;

    std::size_t capacity_;
    cache_spill_config spill_;
    mutable std::mutex m_;
    lru_list entries_;  ///< front = most recently used
    std::unordered_map<cache_key, lru_list::iterator, key_hash> index_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
    std::size_t evictions_ = 0;
    std::size_t warm_loaded_ = 0;
};

}  // namespace fisone::api
