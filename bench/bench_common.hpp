#pragma once

/// \file bench_common.hpp
/// Shared plumbing for the harnesses: corpus synthesis from CLI flags for
/// the table/figure harnesses, the one fleet builder the trace, capacity
/// and TCP load harnesses share, mean/std aggregation of pipeline scores
/// over buildings, and the number formatting shared by every BENCH_*.json
/// emitter.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <system_error>
#include <vector>

#include "core/fis_one.hpp"
#include "sim/building_generator.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

namespace fisone::bench {

/// Shortest-round-trip JSON number token for the BENCH_*.json schemas.
/// JSON has no inf/nan tokens, so non-finite values serialise as null.
inline std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc{} ? std::string(buf, p) : std::string("0");
}

/// The two corpora of the paper, synthesised at CLI-selected scale.
struct corpora {
    data::corpus microsoft;
    data::corpus ours;
};

/// Default bench scale: 8 Microsoft-like buildings + the 3 malls, 240
/// scans/floor (abundance matters: average-linkage needs the paper's dense
/// crowdsourcing regime). `--buildings`, `--samples-per-floor`, `--seed`
/// rescale; the paper-scale run is `--buildings 152 --samples-per-floor 1000`.
inline corpora make_corpora(const util::cli_args& args) {
    const auto buildings = static_cast<std::size_t>(args.get_int("buildings", 6));
    const auto samples = static_cast<std::size_t>(args.get_int("samples-per-floor", 240));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    std::cerr << "Synthesising corpora (" << buildings << " buildings + 3 malls, " << samples
              << " scans/floor)...\n";
    return corpora{sim::make_microsoft_corpus(buildings, samples, seed),
                   sim::make_malls_corpus(samples, seed + 1)};
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

/// Aggregated ARI/NMI/edit-distance over a corpus.
struct aggregate {
    util::running_stats ari, nmi, edit;

    void add(double a, double n, double e) {
        ari.add(a);
        nmi.add(n);
        edit.add(e);
    }
};

/// Run the FIS-ONE pipeline with \p configure applied to the default config
/// on every building of \p corpus; aggregates the three metrics.
inline aggregate run_fis_one_over(
    const data::corpus& corpus,
    const std::function<void(core::fis_one_config&, std::uint64_t)>& configure) {
    aggregate agg;
    for (std::size_t bi = 0; bi < corpus.buildings.size(); ++bi) {
        const std::uint64_t bseed = 7919 * (bi + 1);
        core::fis_one_config cfg;
        cfg.gnn.seed = bseed;
        cfg.seed = bseed;
        configure(cfg, bseed);
        const core::fis_one_result r = core::fis_one(cfg).run(corpus.buildings[bi]);
        agg.add(r.ari, r.nmi, r.edit_distance);
        std::cerr << corpus.name << " " << (bi + 1) << "/" << corpus.buildings.size()
                  << " ARI=" << r.ari << "\n";
    }
    return agg;
}

}  // namespace fisone::bench
