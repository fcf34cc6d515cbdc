/// \file streaming_inference.cpp
/// The motivating use case of the paper's introduction: "identify the
/// floor number of a new RF signal upon its measurement". This example
///   1. builds the floor-identification model from a crowdsourced corpus
///      with a single bottom-floor label (the offline phase), through the
///      `core::floor_predictor` API;
///   2. persists the dataset to a per-process file under the system temp
///      dir, re-loads it (the data round-trip a deployment would use) and
///      removes the file;
///   3. streams *new* scans that were never part of the training graph
///      through RF-GNN's inductive embedding and reports per-scan floor
///      predictions with confidences (the online phase);
///   4. scores online accuracy against the simulator's ground truth.
///
/// Run:  ./streaming_inference [--new-scans N] [--seed S]

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "core/floor_predictor.hpp"
#include "data/dataset_io.hpp"
#include "sim/building_generator.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
    using namespace fisone;
    const util::cli_args args(argc, argv);
    const auto num_new = static_cast<std::size_t>(args.get_int("new-scans", 60));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 33));

    // --- offline: crowdsourced corpus + one label ---
    sim::building_spec spec;
    spec.name = "deployment-site";
    spec.num_floors = 5;
    spec.samples_per_floor = 150;
    spec.seed = seed;
    const data::building b = sim::generate_building(spec).building;

    // Persist + reload (deployments exchange corpora as files). The file is
    // per process, so concurrent runs never read each other's corpus.
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("fisone_deployment_site_" + std::to_string(getpid()) + ".csv");
    data::save_building_file(b, path.string());
    const data::building loaded = data::load_building_file(path.string());
    std::filesystem::remove(path);
    std::cout << "Corpus: " << loaded.samples.size() << " scans / " << loaded.num_macs
              << " APs saved to " << path.string() << ", reloaded and removed.\n";

    core::fis_one_config cfg;
    cfg.gnn.seed = seed;
    cfg.seed = seed;
    core::floor_predictor predictor(cfg);
    const core::fis_one_result offline = predictor.fit(loaded);
    std::cout << "Offline model: ARI=" << offline.ari
              << " edit distance=" << offline.edit_distance << "\n";

    // --- online: stream new scans from the same site ---
    // Regenerating with the same seed reproduces the same AP deployment and
    // device pool; the per-floor surplus scans are fresh measurements that
    // were never nodes of the training graph.
    const std::size_t extra = std::max<std::size_t>(1, num_new / spec.num_floors);
    sim::building_spec stream_spec = spec;
    stream_spec.samples_per_floor += extra;
    const data::building extended = sim::generate_building(stream_spec).building;

    std::size_t streamed = 0, correct = 0;
    double confidence_sum = 0.0;
    for (std::size_t i = 0; i < extended.samples.size(); ++i) {
        if (i % stream_spec.samples_per_floor < spec.samples_per_floor) continue;  // not new
        const data::rf_sample& scan = extended.samples[i];
        const core::floor_prediction p = predictor.predict(scan.observations);
        ++streamed;
        confidence_sum += p.confidence;
        if (p.floor == scan.true_floor) ++correct;
    }

    std::cout << "Online phase: " << streamed << " new scans classified, accuracy = "
              << (streamed ? static_cast<double>(correct) / streamed : 0.0)
              << ", mean confidence = "
              << (streamed ? confidence_sum / static_cast<double>(streamed) : 0.0) << "\n";
    std::cout << "(each prediction = inductive RF-GNN embedding + k-NN vote over the\n"
                 " one-label-indexed corpus; see core/floor_predictor.hpp)\n";
    return EXIT_SUCCESS;
} catch (const std::exception& e) {
    std::cerr << "streaming_inference: " << e.what() << '\n';
    return EXIT_FAILURE;
}
