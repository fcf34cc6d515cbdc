#pragma once

/// \file corpus_store.hpp
/// Sharded on-disk corpus storage — the "corpora larger than memory" leg of
/// the ROADMAP north star. A store is a directory holding a `manifest.csv`
/// plus shard files, each shard a concatenation of `dataset_io` building
/// blocks:
///
///   manifest.csv:
///     # fisone-corpus v1
///     corpus,<name>
///     version,<n>                        (omitted while 0 — a write-once store)
///     shard,<filename>,<first_index>,<num_buildings>
///     ... one `shard` row per shard, in corpus order ...
///     delta,<filename>,<num_records>
///     ... one `delta` row per append batch, in append order ...
///
///   shard-NNNN.csv / delta-NNNN.csv:
///     # fisone-shard v1
///     # fisone-building v1
///     ... building rows (dataset_io format) ...
///     end
///     ... more (building block, `end`) pairs ...
///
/// `shard_reader` streams buildings one at a time, so a campaign over a
/// store never holds more than one building per worker in memory.
/// `write_corpus_store` splits deterministically: shard s holds the
/// buildings [s·shard_size, min(N, (s+1)·shard_size)) in input order, so a
/// store round-trips to the exact input corpus for every shard size.
///
/// **Live ingestion.** Base shards are immutable; appended scans land in
/// *delta* shards (same block format) listed by `delta` rows, and `version`
/// counts the appends. A delta record is "new scans for the named building":
/// `apply_delta_record` folds its samples onto the base building (the
/// one-label protocol stays the base's); a record whose name matches no
/// base building introduces a new building at the end of the corpus, in
/// first-appearance order. `for_each_building_effective` streams that merged
/// view — the corpus a cold rebuild must reproduce byte-for-byte. The
/// manifest only ever moves forward atomically (write `manifest.csv.tmp`,
/// rename over `manifest.csv` — see `ingest::append_scans`); `open` sweeps
/// a leftover `.tmp` from an interrupted append instead of failing the
/// mount.
///
/// **Per-building reads.** `read_effective` returns one building of the
/// effective view — by local index or by name — without streaming the
/// rest: its base block plus the delta records that name it, folded in
/// append order, or, past the base, a new building's records. The result
/// equals, field for field, what `for_each_building_effective` yields at
/// that index. The first read builds a block index once: one pass over
/// every shard and delta file that records each block's byte offset and
/// name, without parsing any building. After that a read seeks to its
/// blocks and parses only them, so its cost depends on the building's size
/// and its record count, not on the store's. `reopen` follows appends: it
/// re-reads the manifest and carries the index over, so base shards
/// (immutable) are never rescanned and each new delta file is scanned once.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rf_sample.hpp"

namespace fisone::data {

/// One shard's manifest row. `filename` is relative to the store directory.
struct shard_entry {
    std::string filename;
    std::size_t first_index = 0;    ///< corpus index of the shard's first building
    std::size_t num_buildings = 0;

    bool operator==(const shard_entry&) const = default;
};

/// One delta shard's manifest row: the scan records of one append batch.
/// `filename` is relative to the store directory.
struct delta_entry {
    std::string filename;
    std::size_t num_records = 0;

    bool operator==(const delta_entry&) const = default;
};

/// Parsed `manifest.csv`.
struct corpus_manifest {
    std::string corpus_name;
    std::vector<shard_entry> shards;
    /// Append count: 0 for a write-once store, bumped by one per durable
    /// append. The version a client saw identifies exactly which deltas
    /// its results covered.
    std::uint64_t version = 0;
    /// Applied after the base shards, in append order.
    std::vector<delta_entry> deltas;

    /// Total buildings across all *base* shards (delta records may add
    /// more — stream `for_each_building_effective` to count the merged
    /// view).
    [[nodiscard]] std::size_t total_buildings() const noexcept;

    /// Consistency check: shard rows must tile [0, total) contiguously in
    /// order, have non-empty filenames, and never list the same shard file
    /// twice (a repeated file would mount duplicate building ids under two
    /// index ranges; the error names the offending shard file). Delta rows
    /// must be non-empty, uniquely named (against shards too), and their
    /// count must match `version` — a manifest claiming more appends than
    /// it lists (or vice versa) is torn.
    /// \throws std::invalid_argument on the first violation.
    void validate() const;
};

/// Serialise \p m. \throws std::ios_base::failure on write error,
/// std::invalid_argument when the manifest fails `validate`.
void save_manifest(const corpus_manifest& m, std::ostream& out);

/// Parse and validate a manifest.
/// \throws std::invalid_argument on malformed content.
[[nodiscard]] corpus_manifest load_manifest(std::istream& in);

/// Append-only writer for one shard file. Not thread-safe; one writer per
/// shard.
class shard_writer {
public:
    /// Opens \p path for writing and emits the shard header.
    /// \throws std::ios_base::failure when the file cannot be created.
    explicit shard_writer(const std::string& path);

    /// Writers flush on destruction; errors there are swallowed — call
    /// `close()` to observe them.
    ~shard_writer();

    shard_writer(const shard_writer&) = delete;
    shard_writer& operator=(const shard_writer&) = delete;

    /// Serialise one building block. \throws std::ios_base::failure on
    /// write error, std::logic_error after `close()`.
    void append(const building& b);

    /// Buildings appended so far.
    [[nodiscard]] std::size_t count() const noexcept { return count_; }

    /// Flush and close; \throws std::ios_base::failure if the stream went
    /// bad. Idempotent.
    void close();

private:
    std::ofstream out_;
    std::size_t count_ = 0;
    bool closed_ = false;
};

/// Streaming reader over one shard file: yields buildings one at a time and
/// never holds more than the current building (plus one text block) in
/// memory. Not thread-safe; one reader per thread.
class shard_reader {
public:
    /// Opens \p path and checks the shard header.
    /// \throws std::ios_base::failure when the file cannot be opened,
    ///         std::invalid_argument on a bad header.
    explicit shard_reader(const std::string& path);

    /// Next building, or nullopt at end of shard.
    /// \throws std::invalid_argument on a malformed or truncated block.
    [[nodiscard]] std::optional<building> next();

    /// Buildings yielded so far.
    [[nodiscard]] std::size_t position() const noexcept { return position_; }

private:
    std::string path_;  // for error messages
    std::ifstream in_;
    std::size_t position_ = 0;
};

/// Fold one delta record's scans onto the building they belong to: samples
/// append in record order, floor/MAC counts grow to cover the new scans,
/// and the base's one-label protocol (`labeled_sample` / `labeled_floor`)
/// is untouched — the label is already known, new crowdsourced scans never
/// carry one. \throws std::invalid_argument when the names differ.
void apply_delta_record(building& base, const building& record);

/// `<dir>/manifest.csv` and the temporary an atomic manifest replacement
/// goes through (`<dir>/manifest.csv.tmp`) — shared by the store reader
/// (which sweeps a leftover temp) and `ingest::append_scans` (which writes
/// through it).
[[nodiscard]] std::string manifest_path(const std::string& dir);
[[nodiscard]] std::string manifest_temp_path(const std::string& dir);

/// Shard \p c into `ceil(N / shard_size)` files under directory \p dir
/// (created if absent) and write `manifest.csv`. Deterministic: shard
/// boundaries depend only on (N, shard_size), building order is preserved.
/// Returns the manifest that was written.
/// \throws std::invalid_argument when shard_size is 0 or the corpus is
///         empty; std::ios_base::failure on I/O errors.
corpus_manifest write_corpus_store(const corpus& c, const std::string& dir,
                                   std::size_t shard_size);

/// One building of the effective view with its local effective index.
struct located_building {
    std::size_t index = 0;
    building b;
};

/// A store opened for reading: the manifest plus path resolution. Shard
/// contents are *not* loaded — use `open_shard` / `for_each_building` to
/// stream them, or `read_effective` to read one building. Copies share the
/// block index; every method is safe to call from several threads.
class corpus_store {
public:
    /// Read `<dir>/manifest.csv`. A leftover `manifest.csv.tmp` from an
    /// interrupted append is swept (deleted) first — the rename never
    /// happened, so the temp is invisible by contract and must not fail
    /// the mount. \throws std::ios_base::failure when the manifest cannot
    /// be opened, std::invalid_argument when malformed.
    static corpus_store open(const std::string& dir);

    [[nodiscard]] const corpus_manifest& manifest() const noexcept { return manifest_; }
    [[nodiscard]] const std::string& directory() const noexcept { return dir_; }
    [[nodiscard]] std::size_t num_shards() const noexcept { return manifest_.shards.size(); }

    /// Absolute-ish path of shard \p shard_index (directory-joined).
    /// \throws std::out_of_range on a bad index.
    [[nodiscard]] std::string shard_path(std::size_t shard_index) const;

    /// Fresh streaming reader over shard \p shard_index.
    [[nodiscard]] shard_reader open_shard(std::size_t shard_index) const;

    /// Stream every *base* building in corpus order as (corpus_index,
    /// building), one at a time — the whole corpus is never resident.
    /// Deltas are NOT applied; this is the write-once snapshot view.
    void for_each_building(const std::function<void(std::size_t, building&&)>& fn) const;

    /// Stream the *effective* corpus — base shards with every delta record
    /// applied in append order, then new buildings (names no base shard
    /// holds) at the tail in first-appearance order. This is the view a
    /// cold rebuild over the concatenated (base + delta) corpus sees. The
    /// delta records (not the base) are resident while streaming: append
    /// batches are small next to the corpus they patch.
    void for_each_building_effective(
        const std::function<void(std::size_t, building&&)>& fn) const;

    /// Materialise the whole store (tests / small corpora only).
    [[nodiscard]] corpus load_all() const;

    /// Materialise the effective (delta-applied) corpus.
    [[nodiscard]] corpus load_all_effective() const;

    /// The building at local effective index \p index, equal to what
    /// `for_each_building_effective` yields there; nullopt past the end of
    /// the effective view. The first read of a handle (or of its copies)
    /// builds the block index. \throws std::invalid_argument on a malformed
    /// or truncated block, or a shard holding a different block count than
    /// its manifest row; std::ios_base::failure when a file cannot be opened.
    [[nodiscard]] std::optional<building> read_effective(std::size_t index) const;

    /// The building named \p name with its local effective index; nullopt
    /// when no block carries the name. A name held by several base blocks
    /// resolves to the first — the one its delta records fold onto.
    /// Throws as the index overload.
    [[nodiscard]] std::optional<located_building> read_effective(const std::string& name) const;

    /// The store as its manifest stands on disk now. When this handle's
    /// block index is built and the base shard rows are unchanged, the
    /// index carries over and only delta rows it has not seen are scanned;
    /// otherwise the new handle builds its own on first read. Throws as
    /// `open`.
    [[nodiscard]] corpus_store reopen() const;

private:
    struct block_index;
    struct index_slot;

    corpus_store() = default;

    /// The block index, built on first use. Never null.
    [[nodiscard]] std::shared_ptr<const block_index> index() const;

    /// The effective building at local index \p index, which \p ix holds.
    [[nodiscard]] building read_at(const block_index& ix, std::size_t index) const;

    std::string dir_;
    corpus_manifest manifest_;
    std::shared_ptr<index_slot> slot_;
};

}  // namespace fisone::data
