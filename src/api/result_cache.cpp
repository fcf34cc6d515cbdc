#include "result_cache.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "codec.hpp"
#include "message.hpp"

namespace fisone::api {

namespace fs = std::filesystem;

namespace {

/// Spill filename for \p key: both halves as fixed-width hex, parseable
/// back without opening the file (shard filtering reads names only).
std::string spill_name(const cache_key& key) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%016llx-%016llx.rc",
                  static_cast<unsigned long long>(key.content_hash),
                  static_cast<unsigned long long>(key.config_fingerprint));
    return buf;
}

/// Parse a spill filename back into its key; nullopt for anything that is
/// not exactly `<16 hex>-<16 hex>.rc`.
std::optional<cache_key> parse_spill_name(const std::string& name) {
    if (name.size() != 16 + 1 + 16 + 3 || name[16] != '-' || name.substr(33) != ".rc")
        return std::nullopt;
    const auto parse_hex = [](std::string_view hex, std::uint64_t& out) {
        out = 0;
        for (const char c : hex) {
            std::uint64_t digit = 0;
            if (c >= '0' && c <= '9')
                digit = static_cast<std::uint64_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<std::uint64_t>(c - 'a') + 10;
            else
                return false;
            out = out << 4 | digit;
        }
        return true;
    };
    cache_key key;
    if (!parse_hex(std::string_view(name).substr(0, 16), key.content_hash) ||
        !parse_hex(std::string_view(name).substr(17, 16), key.config_fingerprint))
        return std::nullopt;
    return key;
}

/// Write \p head then \p tail to `dir/name` via a write-then-rename: the
/// file either exists complete or not at all, never torn. Nothing is
/// fsynced, so the rename may not survive a power loss (the
/// `util::durable_write` item in ROADMAP.md). Returns false on any I/O
/// failure (the caller degrades to memory-only).
bool atomic_spill_write(const fs::path& dir, const std::string& name, std::string_view head,
                        std::string_view tail, std::size_t shard_index) {
    // The counter keeps concurrent writers within this process off each
    // other's temp files; the shard index separates fleet members sharing
    // the directory (each key is written only by its affinity owner, so
    // cross-process races on the *final* name do not happen).
    static std::atomic<std::uint64_t> counter{0};
    const fs::path tmp = dir / (name + "." + std::to_string(shard_index) + "-" +
                                std::to_string(counter.fetch_add(1)) + ".tmp");
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) return false;
        out.write(head.data(), static_cast<std::streamsize>(head.size()));
        out.write(tail.data(), static_cast<std::streamsize>(tail.size()));
        out.flush();
        if (!out) {
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, dir / name, ec);
    if (ec) fs::remove(tmp, ec);
    return !ec;
}

}  // namespace

result_cache::result_cache(std::size_t capacity, cache_spill_config spill)
    : capacity_(capacity), spill_(std::move(spill)) {
    if (capacity == 0) throw std::invalid_argument("result_cache: capacity must be >= 1");
    if (spill_.shard_count == 0)
        throw std::invalid_argument("result_cache: spill shard_count must be >= 1");
    if (spill_.shard_index >= spill_.shard_count)
        throw std::invalid_argument("result_cache: spill shard_index out of range");
    if (spill_.enabled()) warm_load();
}

/// Restore this instance's affinity shard from the spill directory: sweep
/// leftover temps, skip out-of-shard names without opening them, decode
/// in-shard entries (deleting any corrupt file), stop at capacity.
void result_cache::warm_load() {
    const fs::path dir(spill_.dir);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) return;  // persistence degrades, construction never fails on I/O
    for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec)) continue;
        const std::string name = entry.path().filename().string();
        if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
            fs::remove(entry.path(), ec);  // torn write from a crashed run
            continue;
        }
        const std::optional<cache_key> key = parse_spill_name(name);
        if (!key) continue;  // foreign file; leave it alone
        if (key->content_hash % spill_.shard_count != spill_.shard_index)
            continue;  // a peer's shard — least data necessary
        if (entries_.size() >= capacity_) continue;

        std::string bytes;
        {
            std::ifstream in(entry.path(), std::ios::binary);
            if (!in) continue;
            bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
        }
        std::size_t consumed = 0;
        decode_result<response> decoded = decode_response(bytes, &consumed);
        auto* hit = decoded.value ? std::get_if<building_response>(&*decoded.value) : nullptr;
        if (!hit || consumed != bytes.size()) {
            fs::remove(entry.path(), ec);  // corrupt or truncated: drop it
            continue;
        }
        // The frame already holds the tail's bytes: slice, don't re-encode.
        auto cached = std::make_shared<cached_report>();
        cached->tail = bytes.substr(building_head_size(hit->report));
        cached->head = std::move(hit->report);
        cached->head.result = {};
        entries_.emplace_front(*key, std::move(cached));
        index_.emplace(*key, entries_.begin());
        ++warm_loaded_;
    }
}

std::shared_ptr<const cached_report> result_cache::lookup(const cache_key& key) {
    const std::lock_guard<std::mutex> lock(m_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    entries_.splice(entries_.begin(), entries_, it->second);  // refresh recency
    return it->second->second;
}

std::shared_ptr<const cached_report> result_cache::insert(const cache_key& key,
                                                          const runtime::building_report& report) {
    auto entry = std::make_shared<cached_report>();
    entry->head = runtime::building_report{.index = report.index,
                                           .name = report.name,
                                           .ok = report.ok,
                                           .error = report.error,
                                           .seed = report.seed,
                                           .seconds = report.seconds,
                                           .result = {}};
    entry->tail = encode_result_tail(report.result);
    if (spill_.enabled()) {
        // On disk before visible: the file lands (renamed whole, not
        // fsynced) before the entry can be served. Serialized as the
        // building_response frame a warm load replays.
        atomic_spill_write(fs::path(spill_.dir), spill_name(key),
                           encode_building_head(0, entry->head, entry->tail.size()),
                           entry->tail, spill_.shard_index);
    }
    const std::lock_guard<std::mutex> lock(m_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = entry;
        entries_.splice(entries_.begin(), entries_, it->second);
        return entry;
    }
    if (entries_.size() >= capacity_) {
        index_.erase(entries_.back().first);
        entries_.pop_back();
        ++evictions_;
    }
    entries_.emplace_front(key, entry);
    index_.emplace(key, entries_.begin());
    return entry;
}

result_cache_stats result_cache::stats() const {
    const std::lock_guard<std::mutex> lock(m_);
    result_cache_stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.entries = entries_.size();
    s.evictions = evictions_;
    s.warm_loaded = warm_loaded_;
    return s;
}

void result_cache::clear() {
    const std::lock_guard<std::mutex> lock(m_);
    entries_.clear();
    index_.clear();
}

}  // namespace fisone::api
