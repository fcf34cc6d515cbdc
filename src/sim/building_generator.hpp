#pragma once

/// \file building_generator.hpp
/// Synthetic multi-floor buildings with crowdsourced RF scans — the data
/// substitution for the paper's Microsoft open dataset and the three
/// shopping malls (README § Paper claims lists what the reproduction
/// checks on them). Every building draws AP positions,
/// contributor devices and scan positions from a seeded RNG, runs every
/// AP–scan link through the propagation model, and packages the detected
/// readings as `data::building` with the one-label protocol applied.

#include <cstdint>
#include <string>
#include <vector>

#include "data/rf_sample.hpp"
#include "propagation.hpp"

namespace fisone::sim {

/// How scan positions are drawn.
enum class scan_mode {
    random_positions,  ///< i.i.d. uniform positions (default)
    /// Scans along random-walk trajectories: one contributor walks
    /// `trajectory_length` steps on a floor, scanning at every step with
    /// the same device. Produces the spatially correlated, per-contributor
    /// bursts that real crowdsourcing exhibits.
    trajectories,
};

/// Everything needed to synthesise one building.
struct building_spec {
    std::string name = "synthetic";
    std::size_t num_floors = 5;
    double floor_width_m = 80.0;
    double floor_depth_m = 60.0;
    double floor_height_m = 4.0;
    std::size_t aps_per_floor = 20;
    /// Std-dev of per-AP transmit-power offsets (dB). Real deployments mix
    /// strong ceiling APs with weak ones (printers, hotspots); the weak
    /// tail is what keeps some MACs confined to a single floor (Fig. 1b).
    double ap_power_sigma_db = 6.0;
    std::size_t samples_per_floor = 150;
    std::size_t num_devices = 20;          ///< distinct contributing devices
    double device_offset_sigma_db = 3.0;   ///< per-device RSS bias std-dev
    /// Probability that an audible AP actually appears in a scan's record —
    /// real crowdsourced scans are partial (OS rate limits, short dwell
    /// times), which is the heterogeneity the bipartite model targets.
    double observation_rate = 0.7;
    /// Interior zoning. Real floors are split into wings / fire
    /// compartments whose dividing walls attenuate in-floor links; this is
    /// what makes per-floor signal distributions *multi-modal* (paper §V-B
    /// explicitly blames multi-modality for the centroid-based baselines'
    /// weakness). 1 = open floor plan.
    std::size_t zones_per_floor = 1;
    double zone_wall_db = 9.0;  ///< attenuation added per zone boundary crossed
    bool atrium = false;                   ///< open vertical core (malls)
    double atrium_radius_m = 12.0;
    std::size_t min_observations = 3;      ///< scans detecting fewer APs are redrawn
    std::size_t max_redraw_attempts = 50;
    scan_mode mode = scan_mode::random_positions;
    std::size_t trajectory_length = 10;    ///< scans per walk (trajectories mode)
    double trajectory_step_m = 2.5;        ///< stride between consecutive scans
    propagation_model model{};
    std::uint64_t seed = 1;
};

/// Ground-truth AP record, exposed for diagnostics and simulator tests.
struct ap_info {
    std::uint32_t mac_id = 0;
    position pos{};
    std::int32_t floor = 0;
    double power_offset_db = 0.0;  ///< per-AP deviation from the model's reference power
    std::size_t zone = 0;          ///< wing of the floor the AP sits in
};

/// A generated building together with its AP ground truth.
struct simulated_building {
    data::building building;
    std::vector<ap_info> aps;
};

/// Generate one building. The labeled sample is chosen uniformly among the
/// bottom-floor scans (labeled_floor = 0), matching the paper's protocol.
/// \throws std::invalid_argument on degenerate specs (0 floors/APs/samples).
[[nodiscard]] simulated_building generate_building(const building_spec& spec);

/// Move the single label to a uniformly random sample (used by the §VI
/// arbitrary-floor experiments, Fig. 14). Returns the floor that ended up
/// labeled.
int relabel_random_floor(data::building& b, util::rng& gen);

/// Move the single label to a uniformly random sample *on the given floor*.
/// \throws std::invalid_argument when the floor has no samples.
void relabel_floor(data::building& b, int floor, util::rng& gen);

/// Fig. 1(b) statistic: histogram over MACs of the number of distinct
/// floors (by ground truth of the detecting scans) where each MAC is
/// detected. Index f (1-based via index 0 = "1 floor") counts MACs seen on
/// exactly f+1 floors; MACs never detected are excluded.
[[nodiscard]] std::vector<std::size_t> spillover_histogram(const data::building& b);

/// The paper's Figure 7 floor-count distribution for the "Microsoft-like"
/// corpus: buildings of 3–10 floors with decaying frequency. Returns the
/// floor count for each of \p num_buildings buildings (largest-remainder
/// apportionment so small corpora stay representative).
[[nodiscard]] std::vector<std::size_t> microsoft_floor_counts(std::size_t num_buildings);

/// Synthesise the Microsoft-like corpus: \p num_buildings office-style
/// buildings (no atrium) with Fig.-7 floor counts.
[[nodiscard]] data::corpus make_microsoft_corpus(std::size_t num_buildings,
                                                 std::size_t samples_per_floor,
                                                 std::uint64_t seed);

/// Synthesise the "Ours" corpus: three large malls (5, 5 and 7 floors)
/// with open atria, mirroring the paper's deployment.
[[nodiscard]] data::corpus make_malls_corpus(std::size_t samples_per_floor, std::uint64_t seed);

}  // namespace fisone::sim
