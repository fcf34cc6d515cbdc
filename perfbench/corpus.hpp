#pragma once

/// \file corpus.hpp
/// The canonical benchmark corpus. Every workload and every ladder rung
/// draws its buildings from here, so their numbers describe the same
/// inputs: 3–7 floors, 40–80 scans per floor, 12 APs per floor.
///
/// Building sizes are a fixed function of the building's position, not of
/// the seed: floors cycle 3..7 and scans per floor follow a golden-ratio
/// sequence over [40, 80], so any prefix of the corpus holds an even spread
/// of sizes. The seed moves AP placement, devices and scan positions only.
/// That keeps the cost per building, and so every timing, comparable from
/// one seed to the next.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/rf_sample.hpp"

namespace perfbench {

inline constexpr std::size_t k_aps_per_floor = 12;

/// One generated building plus the scans held back from it, which the
/// ingest workloads append later (`pool[f]` are further floor-f scans from
/// the same APs and devices).
struct corpus_building {
    fisone::data::building base;
    std::vector<std::vector<fisone::data::rf_sample>> pool;
};

/// Building \p index of the corpus for \p seed, holding back
/// \p pool_per_floor extra scans per floor.
[[nodiscard]] corpus_building make_building(std::uint64_t seed, std::size_t index,
                                            std::size_t pool_per_floor = 0);

/// Buildings [0, count) of the corpus, generated on \p threads threads.
[[nodiscard]] std::vector<corpus_building> make_corpus(std::uint64_t seed, std::size_t count,
                                                       std::size_t pool_per_floor,
                                                       std::size_t threads);

/// The `append_scans` record for the \p step-th append to \p cb: one
/// held-back scan per floor, under the building's name.
[[nodiscard]] fisone::data::building append_record(const corpus_building& cb, std::size_t step);

}  // namespace perfbench
