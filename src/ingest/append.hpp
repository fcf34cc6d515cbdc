#pragma once

/// \file append.hpp
/// `ingest::append_scans` — the append primitive of the live ingestion
/// path (written then renamed, not fsynced). One call lands one batch of crowdsourced scan records in
/// an existing `data::corpus_store` directory and versions its manifest
/// forward atomically:
///
///   1. sweep delta files no manifest row references (debris of a crash
///      that died between steps 2 and 4 of an earlier append);
///   2. write the batch to a fresh delta shard `delta-NNNN.csv`
///      (NNNN = the new manifest version, zero-padded) and flush it;
///   3. write the advanced manifest — `version` bumped by one, a `delta`
///      row appended — to `manifest.csv.tmp` and flush it;
///   4. rename the temp over `manifest.csv`.
///
/// The rename in step 4 is the commit point: a crash anywhere before it
/// leaves `manifest.csv` untouched (the old version keeps serving, the
/// orphan delta file and/or `.tmp` are swept on the next mount or append);
/// a crash after it leaves the append fully visible. There is no state in
/// between — the same write-then-rename discipline the result cache's disk
/// spill uses. Nothing is fsynced: "flush" hands the bytes to the OS, so a
/// committed append survives a process crash (kill -9), not a power loss
/// or a kernel crash.
///
/// Crash drills hook the gap between the steps via `append_hooks::
/// checkpoint`: the serving path arms it from `service::fault_plan::
/// crash_on_append` (`std::abort()`, indistinguishable from kill -9), the
/// data-layer tests throw through it and then remount to prove the store
/// never tears.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/rf_sample.hpp"

namespace fisone::ingest {

/// Hooks into the append's write-then-rename sequence (tests and chaos
/// drills only; default-constructed hooks are inert).
struct append_hooks {
    /// Called twice per append when set: `checkpoint(1)` after the delta
    /// shard is written and flushed but before the manifest temp exists, and
    /// `checkpoint(2)` after the temp is written but before the rename.
    /// Aborting (or throwing) at either point simulates a crash mid-append;
    /// the store must remount to the pre-append manifest either way.
    std::function<void(int step)> checkpoint;
};

/// Outcome of one append (written then renamed, not fsynced).
struct append_outcome {
    std::uint64_t version = 0;         ///< manifest version after the append
    std::uint64_t accepted = 0;        ///< records written to the delta shard
    std::vector<std::string> touched;  ///< building names the batch carries, deduplicated,
                                       ///< in first-appearance order
};

/// Append \p records (building blocks carrying new scans,
/// `data::apply_delta_record` semantics) to the store at \p store_dir.
/// Returns only after the advanced manifest has been renamed into place;
/// the files are written then renamed, not fsynced.
/// Serialise calls per store yourself (the ingest manager runs one append
/// worker); concurrent appends to one directory race on the version number.
/// \throws std::invalid_argument when the batch is empty or a record has no
///         name; std::ios_base::failure on I/O errors. On throw the store
///         is unchanged (the old manifest still serves).
append_outcome append_scans(const std::string& store_dir,
                            const std::vector<data::building>& records,
                            const append_hooks& hooks = {});

}  // namespace fisone::ingest
