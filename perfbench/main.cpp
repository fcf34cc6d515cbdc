/// \file main.cpp
/// fisbench — the repository's benchmark. One run measures one workload:
///
///   fisbench --workload cold_campaign|warm_cache|live_ingest --seed N
///            --seconds S --trace 0|1
///
/// `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
/// workload, then the outside-in layer ladder, and prints the per-layer
/// metrics. Either way the last stdout line is one JSON object
/// {correct, attempted, failed, metrics}, and the exit code is non-zero on
/// any correctness mismatch or violated workload invariant. The server is
/// the repository's `serve_tcp`, built beside fisbench and started as a
/// child process.

#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "ladder.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) try {
    using namespace perfbench;
    const fisone::util::cli_args args(argc, argv);
    run_options o;
    o.workload = args.get("workload", "");
    o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    o.seconds = args.get_double("seconds", 10.0);
    const bool trace = args.get_int("trace", 0) != 0;
    if (!known_workload(o.workload)) {
        std::cerr << "fisbench: unknown --workload '" << o.workload
                  << "' (cold_campaign, warm_cache, live_ingest)\n";
        return EXIT_FAILURE;
    }
    if (o.seconds <= 0.0) {
        std::cerr << "fisbench: --seconds must be positive\n";
        return EXIT_FAILURE;
    }
    o.dir = ".bench_build/run-" + std::to_string(getpid());
    std::filesystem::create_directories(o.dir);

    run_report r = run_workload(o);
    if (trace) r = run_ladder(o, r);
    std::filesystem::remove_all(o.dir);
    print_report(std::cout, r);
    return r.correct ? EXIT_SUCCESS : EXIT_FAILURE;
} catch (const std::exception& e) {
    std::cerr << "fisbench: " << e.what() << '\n';
    return EXIT_FAILURE;
}
