#pragma once

/// \file bench_common.hpp
/// Shared plumbing for the serving harnesses: the one fleet builder the
/// trace, capacity and TCP load harnesses share, and the number formatting
/// shared by every BENCH_*.json emitter.

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <system_error>

#include "data/rf_sample.hpp"
#include "sim/building_generator.hpp"

namespace fisone::bench {

/// Shortest-round-trip JSON number token for the BENCH_*.json schemas.
/// JSON has no inf/nan tokens, so non-finite values serialise as null.
inline std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc{} ? std::string(buf, p) : std::string("0");
}

/// The synthetic fleet the serving harnesses drive: \p count office
/// buildings named `bench-fleet-<i>`, 3 to 6 floors (`3 + i % 4`), 12 APs
/// per floor, building i seeded `seed + i`.
inline data::corpus make_fleet(std::size_t count, std::size_t samples_per_floor,
                               std::uint64_t seed) {
    data::corpus fleet;
    fleet.name = "bench-fleet";
    fleet.buildings.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        sim::building_spec spec;
        spec.name = "bench-fleet-" + std::to_string(i);
        spec.num_floors = 3 + i % 4;
        spec.samples_per_floor = samples_per_floor;
        spec.aps_per_floor = 12;
        spec.seed = seed + i;
        fleet.buildings.push_back(sim::generate_building(spec).building);
    }
    return fleet;
}

}  // namespace fisone::bench
