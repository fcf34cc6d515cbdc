/// \file bench_paper_claims.cpp
/// The paper-fidelity gate: every claim this reproduction makes about
/// FIS-ONE's Table I and Figs. 1b and 8-14, checked at a fixed scale and a
/// fixed seed set. `k_claims` below is the claim table (README § Paper
/// claims quotes it); `k_variants` is every method it reads, each a method
/// plus a config change.
///
/// A claim compares means over all buildings and seeds of its corpus.
/// Each side is a list of variants; the claim reads the weakest left-hand
/// mean against the strongest right-hand one:
///  - `above`:    min(left) > max(right);
///  - `at_least`: min(left) >= (1 - margin) * max(right).
/// Each claim carries a status per tier. A `holds` claim that fails makes
/// the run exit 1. A `gap` claim is one that failed at that tier's scale
/// when the table was fixed; it prints its measured values ("now passes"
/// when it does) and leaves the exit code alone. Margins come from the
/// paper's wording and are never moved to make a claim pass.
///
/// Corpora: `microsoft` (Fig.-7 office buildings) and `malls` (the three
/// atrium malls) are Table I's two; `all` pools them; `floor_counts` pools
/// them too, its left side reading the worst floor-count group's mean and
/// its right side the pooled mean (Fig. 12); `sparse` is a corpus of
/// thinned scans (observation rate 0.35); `fig1b-mall` is Fig. 1b's
/// 8-floor mall, whose sides name bins of its spillover histogram (the
/// largest MAC count among MACs seen on that many floors).
///
/// Every (variant, corpus, seed, building) score is computed once, as one
/// task on a thread pool with a single-threaded pipeline, and gathered in
/// task order, so stdout does not depend on the core count.
///
/// Run:  ./bench_paper_claims [--tier quick|default]
///  quick    (CI) 2 Microsoft-like buildings + 3 malls, 60 scans/floor
///  default  (by hand) 6 + 3 buildings, 240 scans/floor
/// Both tiers run seeds 4, 5 and 6.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/daegc.hpp"
#include "baselines/mds.hpp"
#include "baselines/metis_partitioner.hpp"
#include "baselines/sdcn.hpp"
#include "core/fis_one.hpp"
#include "service/profiles.hpp"
#include "sim/building_generator.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fisone;
using scores = core::pipeline_scores;
using method = std::function<scores(const data::building&, std::uint64_t seed)>;

constexpr std::uint64_t k_seeds[] = {4, 5, 6};

struct tier {
    std::size_t microsoft_buildings;
    std::size_t samples_per_floor;
};

tier tier_by_name(const std::string& name) {
    if (name == "quick") return {2, 60};
    if (name == "default") return {6, 240};
    throw std::invalid_argument("--tier must be quick or default, not \"" + name + "\"");
}

// ---------------------------------------------------------------- variants

/// FIS-ONE with \p tweak applied to the library defaults (the full profile).
method fis(std::function<void(core::fis_one_config&)> tweak) {
    return [tweak = std::move(tweak)](const data::building& b, std::uint64_t seed) {
        core::fis_one_config cfg;
        tweak(cfg);
        cfg.gnn.seed = seed;
        cfg.seed = seed;
        cfg.num_threads = 1;
        const core::fis_one_result r = core::fis_one(cfg).run(b);
        return scores{r.ari, r.nmi, r.edit_distance};
    };
}

/// A baseline clustering run through FIS-ONE's own indexing (paper §V-A).
method baseline(std::function<std::vector<int>(const data::building&, std::uint64_t)> cluster) {
    return [cluster = std::move(cluster)](const data::building& b, std::uint64_t seed) {
        return core::evaluate_with_indexing(b, cluster(b, seed),
                                            indexing::similarity_kind::adapted_jaccard,
                                            indexing::tsp_solver::exact, seed);
    };
}

template <class Config, auto Cluster>
method deep(std::size_t dim) {
    return baseline([dim](const data::building& b, std::uint64_t seed) {
        Config c;
        c.embedding_dim = dim;
        c.seed = seed;
        return Cluster(b, c);
    });
}

method mds(std::size_t dim) {
    return baseline([dim](const data::building& b, std::uint64_t) {
        baselines::mds_config c;
        c.embedding_dim = dim;
        return baselines::mds_cluster(b, c);
    });
}

/// §VI / Fig. 14: the one label on a random floor. The ambiguous middle
/// floor of an odd building (Case 1) is redrawn, as in the paper.
scores random_floor(const data::building& b, std::uint64_t seed) {
    data::building relabeled = b;
    util::rng gen(seed ^ 0xabcdef);
    for (;;) {
        const int floor = sim::relabel_random_floor(relabeled, gen);
        if (b.num_floors % 2 == 0 || floor != static_cast<int>(b.num_floors / 2)) break;
    }
    return fis([](core::fis_one_config& c) { c.label = core::label_mode::arbitrary_floor; })(
        relabeled, seed);
}

struct variant {
    const char* name;
    method run;
};

using sdcn = baselines::sdcn_config;
using daegc = baselines::daegc_config;

/// Every method a claim reads, in report order. "FIS-ONE", "SDCN", "DAEGC"
/// and "MDS" are at the default d = 32. "FIS-ONE served quick" is read by
/// no claim: it reports the served quick profile beside the full one.
const std::vector<variant> k_variants{
    {"FIS-ONE", fis([](core::fis_one_config&) {})},
    {"SDCN", deep<sdcn, baselines::sdcn_cluster>(32)},
    {"DAEGC", deep<daegc, baselines::daegc_cluster>(32)},
    {"METIS", baseline([](const data::building& b, std::uint64_t seed) {
         baselines::metis_config c;
         c.seed = seed;
         return baselines::metis_cluster(b, c);
     })},
    {"MDS", mds(32)},
    {"FIS-ONE w/o attention",
     fis([](core::fis_one_config& c) { c.gnn.use_attention = false; })},
    {"FIS-ONE k-means",
     fis([](core::fis_one_config& c) { c.clustering = core::clustering_algorithm::kmeans; })},
    {"FIS-ONE Jaccard",
     fis([](core::fis_one_config& c) { c.similarity = indexing::similarity_kind::jaccard; })},
    {"FIS-ONE 2-opt",
     fis([](core::fis_one_config& c) { c.solver = indexing::tsp_solver::two_opt; })},
    {"FIS-ONE random floor", random_floor},
    {"FIS-ONE d=8", fis([](core::fis_one_config& c) { c.gnn.embedding_dim = 8; })},
    {"FIS-ONE d=16", fis([](core::fis_one_config& c) { c.gnn.embedding_dim = 16; })},
    {"FIS-ONE d=64", fis([](core::fis_one_config& c) { c.gnn.embedding_dim = 64; })},
    {"SDCN d=8", deep<sdcn, baselines::sdcn_cluster>(8)},
    {"SDCN d=16", deep<sdcn, baselines::sdcn_cluster>(16)},
    {"SDCN d=64", deep<sdcn, baselines::sdcn_cluster>(64)},
    {"DAEGC d=8", deep<daegc, baselines::daegc_cluster>(8)},
    {"DAEGC d=16", deep<daegc, baselines::daegc_cluster>(16)},
    {"DAEGC d=64", deep<daegc, baselines::daegc_cluster>(64)},
    {"MDS d=8", mds(8)},
    {"MDS d=16", mds(16)},
    {"MDS d=64", mds(64)},
    {"FIS-ONE served quick",
     fis([](core::fis_one_config& c) { c = service::quick_profile(0, 1).pipeline; })},
};

// ------------------------------------------------------------------ claims

enum relation { above, at_least };
enum status { holds, gap };

struct claim {
    const char* id;
    const char* figure;
    const char* corpus;
    const char* metric;  ///< ari | nmi | edit | macs
    std::vector<const char*> left;
    relation rel;
    std::vector<const char*> right;
    double margin;  ///< at_least only
    status at_quick, at_default;  ///< gap: failed at that tier when fixed
};

// Margins: "above" is the paper's "outperforms" and has none. Fig. 9 puts
// 2-opt's cost at about 3% of edit distance and Fig. 14 the random-floor
// label's at about 7%. The paper gives no number for the plateau in d
// (Figs. 10/11), read here as no d below 90% of the best d, nor for
// Fig. 12's even scores across floor counts, read here as no floor count
// below half the pooled mean.
/// FIS-ONE at d = 8, 16, 32 (the default) and 64.
const std::vector<const char*> k_dims{"FIS-ONE d=8", "FIS-ONE d=16", "FIS-ONE", "FIS-ONE d=64"};

const std::vector<claim> k_claims{
    // Table I: FIS-ONE above the deep baselines, and those above METIS/MDS.
    {"T1-fis-microsoft-ari", "Table I", "microsoft", "ari", {"FIS-ONE"}, above, {"SDCN", "DAEGC"}, 0, gap, holds},
    {"T1-fis-microsoft-nmi", "Table I", "microsoft", "nmi", {"FIS-ONE"}, above, {"SDCN", "DAEGC"}, 0, gap, holds},
    {"T1-fis-microsoft-edit", "Table I", "microsoft", "edit", {"FIS-ONE"}, above, {"SDCN", "DAEGC"}, 0, gap, holds},
    {"T1-fis-malls-ari", "Table I", "malls", "ari", {"FIS-ONE"}, above, {"SDCN", "DAEGC"}, 0, holds, holds},
    {"T1-fis-malls-nmi", "Table I", "malls", "nmi", {"FIS-ONE"}, above, {"SDCN", "DAEGC"}, 0, holds, holds},
    {"T1-fis-malls-edit", "Table I", "malls", "edit", {"FIS-ONE"}, above, {"SDCN", "DAEGC"}, 0, holds, gap},
    {"T1-deep-microsoft-ari", "Table I", "microsoft", "ari", {"SDCN", "DAEGC"}, above, {"METIS", "MDS"}, 0, holds, holds},
    {"T1-deep-microsoft-nmi", "Table I", "microsoft", "nmi", {"SDCN", "DAEGC"}, above, {"METIS", "MDS"}, 0, holds, holds},
    {"T1-deep-microsoft-edit", "Table I", "microsoft", "edit", {"SDCN", "DAEGC"}, above, {"METIS", "MDS"}, 0, gap, gap},
    {"T1-deep-malls-ari", "Table I", "malls", "ari", {"SDCN", "DAEGC"}, above, {"METIS", "MDS"}, 0, holds, holds},
    {"T1-deep-malls-nmi", "Table I", "malls", "nmi", {"SDCN", "DAEGC"}, above, {"METIS", "MDS"}, 0, holds, holds},
    {"T1-deep-malls-edit", "Table I", "malls", "edit", {"SDCN", "DAEGC"}, above, {"METIS", "MDS"}, 0, gap, gap},
    // Fig. 8: attention matters; k-means does not beat UPGMA.
    {"F8-attention-microsoft", "Fig. 8a", "microsoft", "ari", {"FIS-ONE"}, above, {"FIS-ONE w/o attention"}, 0, holds, holds},
    {"F8-attention-malls", "Fig. 8b", "malls", "ari", {"FIS-ONE"}, above, {"FIS-ONE w/o attention"}, 0, holds, holds},
    {"F8-upgma-microsoft", "Fig. 8c", "microsoft", "ari", {"FIS-ONE"}, at_least, {"FIS-ONE k-means"}, 0, gap, gap},
    {"F8-upgma-malls", "Fig. 8d", "malls", "ari", {"FIS-ONE"}, at_least, {"FIS-ONE k-means"}, 0, gap, gap},
    // Fig. 9: adapted Jaccard at least plain; 2-opt within ~3% of exact.
    {"F9-jaccard-microsoft", "Fig. 9a", "microsoft", "edit", {"FIS-ONE"}, at_least, {"FIS-ONE Jaccard"}, 0, holds, holds},
    {"F9-jaccard-malls", "Fig. 9b", "malls", "edit", {"FIS-ONE"}, at_least, {"FIS-ONE Jaccard"}, 0, holds, gap},
    {"F9-2opt-microsoft", "Fig. 9c", "microsoft", "edit", {"FIS-ONE 2-opt"}, at_least, {"FIS-ONE"}, 0.03, holds, holds},
    {"F9-2opt-malls", "Fig. 9d", "malls", "edit", {"FIS-ONE 2-opt"}, at_least, {"FIS-ONE"}, 0.03, holds, holds},
    // Figs. 10/11: a plateau in d, and above every baseline at every d.
    {"F10-plateau-microsoft", "Fig. 10", "microsoft", "ari", k_dims, at_least, k_dims, 0.10, gap, holds},
    {"F10-plateau-malls", "Fig. 10", "malls", "ari", k_dims, at_least, k_dims, 0.10, holds, gap},
    {"F10-d8-microsoft", "Fig. 10", "microsoft", "ari", {"FIS-ONE d=8"}, above, {"SDCN d=8", "DAEGC d=8", "MDS d=8", "METIS"}, 0, holds, holds},
    {"F10-d16-microsoft", "Fig. 10", "microsoft", "ari", {"FIS-ONE d=16"}, above, {"SDCN d=16", "DAEGC d=16", "MDS d=16", "METIS"}, 0, holds, holds},
    {"F10-d32-microsoft", "Fig. 10", "microsoft", "ari", {"FIS-ONE"}, above, {"SDCN", "DAEGC", "MDS", "METIS"}, 0, gap, holds},
    {"F10-d64-microsoft", "Fig. 10", "microsoft", "ari", {"FIS-ONE d=64"}, above, {"SDCN d=64", "DAEGC d=64", "MDS d=64", "METIS"}, 0, holds, holds},
    {"F10-d8-malls", "Fig. 10", "malls", "ari", {"FIS-ONE d=8"}, above, {"SDCN d=8", "DAEGC d=8", "MDS d=8", "METIS"}, 0, holds, holds},
    {"F10-d16-malls", "Fig. 10", "malls", "ari", {"FIS-ONE d=16"}, above, {"SDCN d=16", "DAEGC d=16", "MDS d=16", "METIS"}, 0, holds, holds},
    {"F10-d32-malls", "Fig. 10", "malls", "ari", {"FIS-ONE"}, above, {"SDCN", "DAEGC", "MDS", "METIS"}, 0, holds, holds},
    {"F10-d64-malls", "Fig. 10", "malls", "ari", {"FIS-ONE d=64"}, above, {"SDCN d=64", "DAEGC d=64", "MDS d=64", "METIS"}, 0, holds, holds},
    // Fig. 12: no floor count collapses.
    {"F12-floors-ari", "Fig. 12", "floor_counts", "ari", {"FIS-ONE"}, at_least, {"FIS-ONE"}, 0.5, holds, holds},
    {"F12-floors-nmi", "Fig. 12", "floor_counts", "nmi", {"FIS-ONE"}, at_least, {"FIS-ONE"}, 0.5, holds, holds},
    {"F12-floors-edit", "Fig. 12", "floor_counts", "edit", {"FIS-ONE"}, at_least, {"FIS-ONE"}, 0.5, holds, holds},
    // Fig. 14: a random-floor label costs at most ~7% of edit distance.
    {"F14-random-floor", "Fig. 14a", "all", "edit", {"FIS-ONE random floor"}, at_least, {"FIS-ONE"}, 0.07, holds, holds},
    // Fig. 1b: spillover peaks at 1-3 floors, with an atrium tail.
    {"F1b-peak", "Fig. 1b", "fig1b-mall", "macs", {"floors 1-3"}, above, {"floors 4-8"}, 0, holds, holds},
    {"F1b-tail", "Fig. 1b", "fig1b-mall", "macs", {"floors 5-8"}, above, {"0"}, 0, holds, holds},
    // Beyond the paper: the bipartite graph tolerates thinned scans that
    // MDS's filled matrix does not.
    {"R-sparse-scans", "extension", "sparse", "ari", {"FIS-ONE"}, above, {"MDS"}, 0, holds, holds},
};

// ----------------------------------------------------------------- corpora

/// One corpus over every seed: buildings and their pipeline seeds, in
/// (seed, building) order.
struct corpus_runs {
    std::vector<data::building> buildings;
    std::vector<std::uint64_t> seeds;
};

/// Thinned scans: only 35% of the audible APs recorded per scan.
data::corpus make_sparse_corpus(std::size_t count, std::size_t samples, std::uint64_t seed) {
    data::corpus c;
    c.name = "sparse";
    util::rng seeder(seed);
    for (std::size_t i = 0; i < count; ++i) {
        sim::building_spec spec;
        spec.num_floors = 4 + i % 3;
        spec.samples_per_floor = samples;
        spec.aps_per_floor = 16;
        spec.floor_width_m = 60.0;
        spec.floor_depth_m = 40.0;
        spec.model.path_loss_exponent = 3.3;
        spec.observation_rate = 0.35;
        spec.seed = seeder();
        c.buildings.push_back(sim::generate_building(spec).building);
    }
    return c;
}

corpus_runs make_runs(const std::string& name, const tier& t) {
    corpus_runs runs;
    for (const std::uint64_t seed : k_seeds) {
        const data::corpus c =
            name == "microsoft" ? sim::make_microsoft_corpus(t.microsoft_buildings,
                                                             t.samples_per_floor, seed)
            : name == "malls"
                ? sim::make_malls_corpus(t.samples_per_floor, seed + 1)
                : make_sparse_corpus(t.microsoft_buildings + 3, t.samples_per_floor, seed);
        for (std::size_t bi = 0; bi < c.buildings.size(); ++bi) {
            runs.buildings.push_back(c.buildings[bi]);
            runs.seeds.push_back(seed * 7919 + bi);
        }
    }
    return runs;
}

/// Fig. 1b's shop-partitioned 8-floor mall (about 168 MACs): higher
/// in-floor path loss and slab attenuation than the open malls corpus, a
/// wide per-AP power spread, and an atrium. Needs no training.
std::vector<std::size_t> fig1b_histogram() {
    sim::building_spec spec;
    spec.name = "fig1b-mall";
    spec.num_floors = 8;
    spec.aps_per_floor = 21;
    spec.samples_per_floor = 200;
    spec.floor_width_m = 120.0;
    spec.floor_depth_m = 80.0;
    spec.atrium = true;
    spec.atrium_radius_m = 15.0;
    spec.model.path_loss_exponent = 3.7;
    spec.model.floor_attenuation_db = 28.0;
    spec.ap_power_sigma_db = 12.0;
    spec.seed = 88;
    return sim::spillover_histogram(sim::generate_building(spec).building);
}

// -------------------------------------------------------------- evaluation

double pick(const scores& s, const std::string& metric) {
    if (metric == "ari") return s.ari;
    if (metric == "nmi") return s.nmi;
    return s.edit_distance;
}

/// The corpora a claim pools its variants' scores over.
std::vector<std::string> variant_corpora(const claim& c) {
    const std::string corpus = c.corpus;
    if (corpus == "fig1b-mall") return {};
    if (corpus == "all" || corpus == "floor_counts") return {"microsoft", "malls"};
    return {corpus};
}

struct measured {
    std::string label;
    double value;
};

struct results {
    std::map<std::string, corpus_runs> corpora;
    std::map<std::pair<std::string, std::string>, std::vector<scores>> by_variant;
    std::vector<std::size_t> spillover;

    /// One side's value for \p c, labelled for the report.
    measured side(const claim& c, const std::string& name, bool left) const {
        const std::string corpus = c.corpus;
        if (corpus == "fig1b-mall") {
            std::size_t lo = 0, hi = 0;
            if (std::sscanf(name.c_str(), "floors %zu-%zu", &lo, &hi) != 2)
                return {name, std::stod(name)};
            std::size_t most = 0;
            for (std::size_t f = lo; f <= hi && f <= spillover.size(); ++f)
                most = std::max(most, spillover[f - 1]);
            return {name, static_cast<double>(most)};
        }
        const std::vector<std::string> pooled = variant_corpora(c);
        if (corpus != "floor_counts" || !left) return {name, mean(name, pooled, c.metric, 0)};
        measured worst{name, 2.0};  // every metric is at most 1
        for (const std::size_t floors : floor_counts(pooled)) {
            const double m = mean(name, pooled, c.metric, floors);
            if (m < worst.value) worst = {name + " @" + std::to_string(floors) + " floors", m};
        }
        return worst;
    }

    /// Mean of \p metric over the buildings of \p names (those with
    /// \p floors floors when non-zero).
    double mean(const std::string& v, const std::vector<std::string>& names,
                const std::string& metric, std::size_t floors) const {
        util::running_stats st;
        for (const std::string& n : names) {
            const corpus_runs& runs = corpora.at(n);
            const std::vector<scores>& s = by_variant.at({v, n});
            for (std::size_t i = 0; i < s.size(); ++i)
                if (floors == 0 || runs.buildings[i].num_floors == floors)
                    st.add(pick(s[i], metric));
        }
        return st.mean();
    }

    std::vector<std::size_t> floor_counts(const std::vector<std::string>& names) const {
        std::vector<std::size_t> out;
        for (const std::string& n : names)
            for (const data::building& b : corpora.at(n).buildings) out.push_back(b.num_floors);
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        return out;
    }
};

std::string join(const std::vector<measured>& side) {
    std::string out;
    for (const measured& m : side) {
        if (!out.empty()) out += ", ";
        out += m.label + " " + util::table_printer::num(m.value);
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) try {
    const util::cli_args args(argc, argv);
    const std::string tier_name = args.get("tier", "quick");
    const tier t = tier_by_name(tier_name);

    // Every variant on both paper corpora; other corpora run what their
    // claims read.
    std::vector<std::pair<const variant*, std::string>> needed;
    const auto need = [&](const std::string& v, const std::string& corpus) {
        const auto it = std::find_if(k_variants.begin(), k_variants.end(),
                                     [&](const variant& x) { return v == x.name; });
        if (it == k_variants.end()) throw std::logic_error("claim reads unknown variant " + v);
        if (std::find(needed.begin(), needed.end(), std::pair{&*it, corpus}) == needed.end())
            needed.emplace_back(&*it, corpus);
    };
    for (const char* corpus : {"microsoft", "malls"})
        for (const variant& v : k_variants) need(v.name, corpus);
    for (const claim& c : k_claims)
        for (const std::string& corpus : variant_corpora(c))
            for (const auto& side : {c.left, c.right})
                for (const char* v : side) need(v, corpus);

    results res;
    res.spillover = fig1b_histogram();
    for (const auto& [v, corpus] : needed)
        if (!res.corpora.count(corpus)) res.corpora.emplace(corpus, make_runs(corpus, t));

    struct task {
        std::size_t need;  ///< index into `needed`
        std::size_t index;  ///< building run within the corpus
    };
    std::vector<task> tasks;
    for (std::size_t n = 0; n < needed.size(); ++n)
        for (std::size_t i = 0; i < res.corpora.at(needed[n].second).buildings.size(); ++i)
            tasks.push_back({n, i});
    std::vector<scores> out(tasks.size());
    util::thread_pool pool;
    std::cerr << "bench_paper_claims: " << tasks.size() << " runs on " << pool.size()
              << " threads\n";
    const auto start = std::chrono::steady_clock::now();
    pool.parallel_for(0, tasks.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const auto& [v, corpus] = needed[tasks[i].need];
            const corpus_runs& runs = res.corpora.at(corpus);
            out[i] = v->run(runs.buildings[tasks[i].index], runs.seeds[tasks[i].index]);
        }
    });
    std::cerr << "bench_paper_claims: "
              << std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count()
              << " s\n";
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const auto& [v, corpus] = needed[tasks[i].need];
        res.by_variant[{v->name, corpus}].push_back(out[i]);
    }

    std::cout << "Paper claims, tier " << tier_name << ": " << t.microsoft_buildings
              << " Microsoft-like buildings + 3 malls, " << t.samples_per_floor
              << " scans/floor, seeds";
    for (const std::uint64_t seed : k_seeds) std::cout << ' ' << seed;
    std::cout << "\n\n";
    std::cout << "Fig. 1b spillover histogram (MACs by floors detected):";
    for (std::size_t f = 0; f < res.spillover.size(); ++f)
        std::cout << ' ' << (f + 1) << ':' << res.spillover[f];
    std::cout << "\n\n";

    for (const auto& [corpus, runs] : res.corpora) {
        util::table_printer table(corpus + " corpus, mean(std) over " +
                                  std::to_string(runs.buildings.size()) + " building runs");
        table.header({"variant", "ARI", "NMI", "Edit Distance"});
        for (const auto& [v, c] : needed) {
            if (c != corpus) continue;
            util::running_stats st[3];
            for (const scores& s : res.by_variant.at({v->name, c})) {
                st[0].add(s.ari);
                st[1].add(s.nmi);
                st[2].add(s.edit_distance);
            }
            std::vector<std::string> row{v->name};
            for (const util::running_stats& m : st)
                row.push_back(util::table_printer::mean_std(m.mean(), m.stddev()));
            table.row(std::move(row));
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    util::table_printer table("Claims");
    table.header({"id", "figure", "corpus", "metric", "left", "relation", "right", "result"});
    std::size_t failed = 0, gaps = 0, gaps_passing = 0;
    std::string failures;
    for (const claim& c : k_claims) {
        std::vector<measured> left, right;
        for (const char* v : c.left) left.push_back(res.side(c, v, true));
        for (const char* v : c.right) right.push_back(res.side(c, v, false));
        double lo = left.front().value, hi = right.front().value;
        for (const measured& m : left) lo = std::min(lo, m.value);
        for (const measured& m : right) hi = std::max(hi, m.value);
        const bool passes = c.rel == above ? lo > hi : lo >= (1.0 - c.margin) * hi;
        const std::string rel = c.rel == above
                                    ? ">"
                                    : ">= " + util::table_printer::num(1.0 - c.margin, 2) + " x";
        std::string result;
        if ((tier_name == "quick" ? c.at_quick : c.at_default) == gap) {
            ++gaps;
            gaps_passing += passes ? 1 : 0;
            result = passes ? "gap, now passes" : "gap";
        } else {
            result = passes ? "holds" : "FAILS";
            if (!passes) {
                ++failed;
                failures += std::string("  ") + c.id + ": min(" + join(left) + ") " + rel +
                            " max(" + join(right) + ") is false\n";
            }
        }
        table.row({c.id, c.figure, c.corpus, c.metric, join(left), rel, join(right), result});
    }
    table.print(std::cout);
    std::cout << '\n'
              << k_claims.size() << " claims: " << (k_claims.size() - gaps - failed)
              << " hold, " << gaps << " gaps (" << gaps_passing << " now pass), " << failed
              << " fail\n";
    if (failed != 0) {
        std::cerr << "bench_paper_claims: " << failed << " claim(s) failed:\n" << failures;
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
} catch (const std::exception& e) {
    std::cerr << "bench_paper_claims: " << e.what() << '\n';
    return EXIT_FAILURE;
}
