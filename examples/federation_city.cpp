/// \file federation_city.cpp
/// End-to-end walkthrough of the federation layer — one API front-end over
/// many corpus stores and many floor_service backends:
///
///   1. synthesise a small city and split it across THREE on-disk corpus
///      stores (three collection campaigns, in FIS-ONE's crowdsourced
///      setting);
///   2. mount the stores in a `federation::store_registry` — one namespace,
///      global corpus indices = the concatenated corpus;
///   3. serve every mounted shard through a `federation::federated_server`
///      fronting TWO `api::server` backends (each a floor_service plus its
///      own result cache) over the framed wire path, with `get_stats`
///      merged across the fleet;
///   4. re-export the responses as input-order NDJSON and verify byte
///      identity against a single floor_service run over the whole city —
///      the federation determinism contract (exits non-zero on divergence,
///      so CI can smoke-run this example as a check).
///
/// Run:  ./federation_city [--buildings N] [--samples-per-floor M]
///                         [--stores S] [--backends B] [--shard-size K]
///                         [--threads T] [--seed S] [--dir PATH] [--quiet]

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "data/corpus_store.hpp"
#include "federation/federated_server.hpp"
#include "service/floor_service.hpp"
#include "service/ndjson_export.hpp"
#include "sim/building_generator.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
    using namespace fisone;
    const util::cli_args args(argc, argv);
    const auto num_buildings = static_cast<std::size_t>(args.get_int("buildings", 9));
    const auto samples = static_cast<std::size_t>(args.get_int("samples-per-floor", 30));
    const auto num_stores = static_cast<std::size_t>(args.get_int("stores", 3));
    const auto num_backends = static_cast<std::size_t>(args.get_int("backends", 2));
    const auto shard_size = static_cast<std::size_t>(args.get_int("shard-size", 2));
    const auto threads = static_cast<std::size_t>(args.get_int("threads", 0));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2026));
    const std::string dir = args.get(
        "dir", (std::filesystem::temp_directory_path() / "fisone_federation_city").string());
    const bool quiet = args.has("quiet");

    // --- 1. simulate one city, split across collection campaigns -------------
    data::corpus city;
    city.name = "fed-city";
    city.buildings.reserve(num_buildings);
    for (std::size_t i = 0; i < num_buildings; ++i) {
        sim::building_spec spec;
        spec.name = "city-" + std::to_string(i);
        spec.num_floors = 3 + i % 5;
        spec.samples_per_floor = samples;
        spec.aps_per_floor = 10;
        spec.seed = seed + i;
        city.buildings.push_back(sim::generate_building(spec).building);
    }
    if (num_stores == 0 || num_stores > num_buildings) {
        std::cerr << "federation_city: need 1 <= --stores <= --buildings (got " << num_stores
                  << " stores for " << num_buildings << " buildings)\n";
        return EXIT_FAILURE;
    }
    std::filesystem::remove_all(dir);
    std::vector<std::string> store_dirs;
    {
        const std::size_t base = num_buildings / num_stores;
        std::size_t first = 0;
        for (std::size_t k = 0; k < num_stores; ++k) {
            const std::size_t count = base + (k < num_buildings % num_stores ? 1 : 0);
            data::corpus part;
            part.name = city.name + "-campaign-" + std::to_string(k);
            part.buildings.assign(
                city.buildings.begin() + static_cast<std::ptrdiff_t>(first),
                city.buildings.begin() + static_cast<std::ptrdiff_t>(first + count));
            const std::string store_dir =
                (std::filesystem::path(dir) / ("store-" + std::to_string(k))).string();
            static_cast<void>(data::write_corpus_store(part, store_dir, shard_size));
            store_dirs.push_back(store_dir);
            first += count;
        }
    }
    std::cerr << "Split " << num_buildings << " buildings across " << num_stores
              << " stores under " << dir << "\n";

    // --- 2 + 3. mount the stores, serve through the fleet ---------------------
    federation::federation_config cfg;
    cfg.service.pipeline.gnn.embedding_dim = 16;
    cfg.service.pipeline.gnn.epochs = 3;
    cfg.service.seed = seed;
    cfg.service.num_threads = threads;
    cfg.num_backends = num_backends;
    cfg.policy = federation::routing_policy::content_hash_affinity;
    cfg.store_dirs = store_dirs;
    federation::federated_server srv(cfg);
    std::cerr << "Mounted " << srv.registry().num_stores() << " stores ("
              << srv.registry().total_buildings() << " buildings, "
              << srv.registry().shards().size() << " shards); serving via "
              << srv.num_backends() << " backends ["
              << federation::routing_policy_name(cfg.policy) << "]\n";

    std::stringstream wire_in, wire_out;
    api::client cli(static_cast<std::ostream&>(wire_in));
    for (const federation::mounted_shard& ms : srv.registry().shards())
        static_cast<void>(cli.identify_shard(ms.ref));
    static_cast<void>(cli.flush());
    static_cast<void>(cli.get_stats());
    srv.serve(wire_in, wire_out);
    static_cast<void>(cli.ingest(wire_out));
    if (!cli.errors().empty()) {
        std::cerr << "federation_city: protocol error: " << cli.errors().front().message
                  << "\n";
        return EXIT_FAILURE;
    }

    // --- 4. deterministic NDJSON + byte-identity against a single service ----
    std::ostringstream federated_ndjson;
    service::export_input_order(federated_ndjson, cli.reports());
    if (!quiet) std::cout << federated_ndjson.str();

    std::string single_ndjson;
    {
        const std::string whole_dir = (std::filesystem::path(dir) / "whole").string();
        static_cast<void>(data::write_corpus_store(city, whole_dir, shard_size));
        const data::corpus_store whole = data::corpus_store::open(whole_dir);
        service::service_config scfg = cfg.service;
        service::floor_service svc(scfg);
        std::vector<service::floor_service::job> jobs;
        for (std::size_t s = 0; s < whole.num_shards(); ++s)
            jobs.push_back(svc.submit(service::make_shard_ref(whole, s)));
        svc.wait_all();
        std::vector<runtime::building_report> reports;
        for (const auto& job : jobs)
            for (const auto& report : job.reports()) reports.push_back(report);
        std::ostringstream out;
        service::export_input_order(out, std::move(reports));
        single_ndjson = out.str();
    }
    const bool identical = federated_ndjson.str() == single_ndjson;

    const auto stats = cli.last_stats();
    std::cerr << "Fleet stats (merged over " << srv.num_backends()
              << " backends): " << (stats ? stats->buildings_done : 0) << " done, "
              << (stats ? stats->buildings_ok : 0) << " ok, p50 "
              << (stats ? stats->latency.p50 : 0.0) << "s\n";
    std::cerr << "Federated NDJSON byte-identical to a single-service run: "
              << (identical ? "yes" : "NO") << "\n";
    if (!identical) {
        std::cerr << "federation_city: determinism contract violated\n";
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
} catch (const std::exception& e) {
    std::cerr << "federation_city: " << e.what() << '\n';
    return EXIT_FAILURE;
}
