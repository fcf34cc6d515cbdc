#pragma once

/// \file resident_directory.hpp
/// Name → (global corpus index, content hash) over the mounted stores: how
/// `federated_server` resolves `identify_resident` requests. That pair is
/// all a warm read needs — the fleet routes on the hash and the backend's
/// result cache keys on it — so a cached read reads no building, and the
/// directory keeps none.
///
/// The first resolve of a name reads that one building through the stores'
/// per-building reads of the effective view, hashes it once and hands it to
/// the caller. After that a building is read again only through `read`,
/// when a run needs it (a cache miss, or a `fresh` request: one store read
/// beside a pipeline run); each read refreshes the name's entry. Appends
/// land through the ingest manager's own store handle, so the front-end
/// reports each successful one through `on_append`: the touched names
/// leave the directory and the store's handle is reopened on the next
/// read, which resolves the post-append scans and any new names at their
/// tail indices. A `read` that follows an append racing its name's resolve
/// returns the post-append building and hash. Entries of untouched names
/// stay. Thread-safe: every call is serialised under one lock, and a read
/// is one building, so it stalls concurrent calls only briefly.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/corpus_store.hpp"
#include "store_registry.hpp"

namespace fisone::federation {

class resident_directory {
public:
    /// A resolution: the name's entry, and its building when the call read
    /// it.
    struct hit {
        std::size_t global_index = 0;
        std::uint64_t content_hash = 0;          ///< of the building as last read
        std::shared_ptr<const data::building> b;  ///< null: the entry was known
    };

    /// Takes a handle on every store \p reg has mounted.
    explicit resident_directory(const store_registry& reg);

    /// Resolve \p name to its entry, reading the building only when the
    /// name has none. Stores are searched in mount order; nullopt when no
    /// store holds the name.
    std::optional<hit> resolve(const std::string& name);

    /// Read \p name's building for a run and refresh its entry with the
    /// hash of what was read.
    std::optional<hit> read(const std::string& name);

    /// An append (written then renamed, not fsynced) to the store serving
    /// \p corpus_name carried \p touched: only those buildings (and new
    /// names) changed.
    void on_append(const std::string& corpus_name, const std::vector<std::string>& touched);

private:
    struct entry {
        std::size_t global_index = 0;
        std::uint64_t content_hash = 0;
    };

    std::optional<hit> read_locked(const std::string& name);

    std::mutex m_;
    std::vector<data::corpus_store> stores_;  ///< one handle per mounted store
    std::vector<std::size_t> offsets_;        ///< global index of each store's first building
    std::vector<bool> appended_;  ///< an append landed since the handle was opened
    std::unordered_map<std::string, entry> entries_;
};

}  // namespace fisone::federation
