#include "ladder.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <iomanip>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "api/codec.hpp"
#include "api/result_cache.hpp"
#include "api/server.hpp"
#include "cluster/hierarchical.hpp"
#include "core/fis_one.hpp"
#include "data/corpus_store.hpp"
#include "federation/federated_server.hpp"
#include "gnn/rf_gnn.hpp"
#include "graph/bipartite_graph.hpp"
#include "graph/sampling.hpp"
#include "indexing/cluster_indexer.hpp"
#include "indexing/similarity.hpp"
#include "ingest/append.hpp"
#include "linalg/matrix.hpp"
#include "runtime/task_executor.hpp"
#include "service/profiles.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace fisone;

namespace {

/// Buildings every rung runs on: positions 0..9 of the workload's corpus,
/// two of each floor count 3..7 (enough for the two workers of the
/// batch_runner and floor_service rungs to split evenly).
constexpr std::size_t k_subset = 10;
/// Appends in the store and fleet ingest rungs, spread evenly over the
/// buildings the workload itself appends to.
constexpr std::size_t k_ladder_appends = 7;
/// Repetitions of the cheap per-call timings (hash, codec, cache lookup) per
/// building; the cached-read rungs make a tenth as many reads per building.
constexpr int k_reps = 200;

/// Median wall milliseconds of \p reps calls of \p fn.
template <class F>
double median_ms(int reps, F&& fn) {
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        const clock_type::time_point t0 = clock_type::now();
        fn();
        ms.push_back(ms_between(t0, clock_type::now()));
    }
    return median(ms);
}

/// Median over \p items of \p per_item(item).
template <class T, class F>
double median_over(const std::vector<T>& items, F&& per_item) {
    std::vector<double> v;
    for (const T& x : items) v.push_back(per_item(x));
    return median(v);
}

/// The GEMM rung: GFLOP/s of \p op at the shape the training tape issues
/// for a graph of \p rows nodes and embedding size \p d (a hop's dense
/// layer maps the 2d-wide concatenation to d).
double gemm_gflops(const std::string& op, std::size_t rows, std::size_t d) {
    util::rng gen(rows * 131 + d);
    const auto fill = [&](std::size_t r, std::size_t c) {
        linalg::matrix m(r, c);
        for (double& x : m.flat()) x = gen.uniform(-1.0, 1.0);
        return m;
    };
    linalg::matrix a, b, out;
    if (op == "nn") {  // forward: (rows × 2d)·(2d × d)
        a = fill(rows, 2 * d), b = fill(2 * d, d);
    } else if (op == "nt") {  // input gradient: (rows × d)·(2d × d)ᵀ
        a = fill(rows, d), b = fill(2 * d, d);
    } else {  // weight gradient: (rows × 2d)ᵀ·(rows × d)
        a = fill(rows, 2 * d), b = fill(rows, d);
    }
    const auto run = [&] {
        if (op == "nn")
            linalg::matmul_into(out, a, b);
        else if (op == "nt")
            linalg::matmul_nt_into(out, a, b);
        else
            linalg::matmul_tn_into(out, a, b);
    };
    const double flops = 2.0 * static_cast<double>(rows) * static_cast<double>(2 * d) *
                         static_cast<double>(d);
    run();
    // Batches of calls long enough to time well; the median batch counts.
    std::vector<double> gflops;
    for (int batch = 0; batch < 7; ++batch) {
        int calls = 0;
        const clock_type::time_point t0 = clock_type::now();
        double ms = 0.0;
        while (ms < 20.0) {
            run();
            ++calls;
            ms = ms_between(t0, clock_type::now());
        }
        gflops.push_back(flops * calls / (ms * 1e6));
    }
    return median(gflops);
}

/// An in-process loopback session's response channel: frames decoded into
/// a queue the ladder waits on.
class loopback_inbox {
public:
    api::server::frame_sink sink() {
        return [st = state_](std::string_view frame) {
            api::decode_result<api::response> r = api::decode_response(frame);
            if (!r.ok()) return;
            const std::lock_guard<std::mutex> lock(st->m);
            st->q.push_back(*std::move(r.value));
            st->cv.notify_all();
        };
    }

    /// The next response; \throws std::runtime_error after 60 s of silence.
    api::response next() {
        std::unique_lock<std::mutex> lock(state_->m);
        if (!state_->cv.wait_for(lock, std::chrono::seconds(60),
                                 [&] { return !state_->q.empty(); }))
            throw std::runtime_error("loopback session went silent");
        api::response r = std::move(state_->q.front());
        state_->q.pop_front();
        return r;
    }

private:
    struct state {
        std::mutex m;
        std::condition_variable cv;
        std::deque<api::response> q;
    };
    std::shared_ptr<state> state_ = std::make_shared<state>();
};

/// The building report of a response, or a failed check.
const runtime::building_report* report_of(run_report& r, const api::response& resp,
                                          const std::string& rung) {
    if (const auto* b = std::get_if<api::building_response>(&resp); b && b->report.ok)
        return &b->report;
    r.fail_check(rung + ": request not answered with a building result");
    ++r.failed;
    return nullptr;
}

struct ladder {
    const run_options& o;
    const run_report& e2e;
    run_report r;
    bool fresh = false;  ///< the workload's reads bypass the cache (cold)
    std::vector<corpus_building> corpus;
    std::vector<std::size_t> subset;
    /// The ladder's appends: (building, its append number), spread evenly
    /// over the buildings the workload itself appends to.
    std::vector<std::pair<std::size_t, std::size_t>> appends;
    core::fis_one_config pipeline;
    std::string store_dir;
    std::map<std::string, double> m;  ///< every metric, for the tables below

    ladder(const run_options& opts, const run_report& e) : o(opts), e2e(e) {}

    void add(const std::string& name, double value, const std::string& unit) {
        m[name] = value;
        r.add(name, value, unit);
    }
    [[nodiscard]] double e2e_metric(const std::string& name) const {
        for (const run_report::metric& x : e2e.measured)
            if (x.name == name) return x.value;
        return 0.0;
    }
    [[nodiscard]] const data::building& b(std::size_t i) const { return corpus[i].base; }
    [[nodiscard]] core::fis_one_config cfg(std::size_t i) const {
        return runtime::effective_task_config(pipeline, o.seed, i, true);
    }
    [[nodiscard]] data::building append_step(std::size_t k) const {
        return append_record(corpus[appends[k].first], appends[k].second);
    }

    void run();
    void kernels();
    void pipeline_stages();
    void runtimes();
    void data_and_api();
    void store_and_ingest();
    void front_ends();
    void report_tables();
};

void ladder::kernels() {
    std::vector<double> nodes;
    for (const std::size_t i : subset)
        nodes.push_back(
            static_cast<double>(graph::bipartite_graph::from_building(b(i)).num_nodes()));
    const auto rows = static_cast<std::size_t>(median(nodes));
    const std::size_t d = pipeline.gnn.embedding_dim;
    r.lines.push_back("GEMM shapes: rows = " + std::to_string(rows) +
                      " graph nodes (median of the subset), d = " + std::to_string(d));
    for (const char* op : {"nn", "nt", "tn"})
        add(std::string("linalg.matmul_gflops.") + op, gemm_gflops(op, rows, d), "GFLOP/s");
}

void ladder::pipeline_stages() {
    std::vector<double> build, walks, train, epoch, embed, upgma, index;
    for (const std::size_t i : subset) {
        const core::fis_one_config c = cfg(i);
        build.push_back(median_ms(5, [&] { (void)graph::bipartite_graph::from_building(b(i)); }));
        const graph::bipartite_graph g = graph::bipartite_graph::from_building(b(i));
        const graph::neighbor_sampler sampler(g, c.gnn.use_attention);
        walks.push_back(median_ms(3, [&] {
            util::rng gen(c.gnn.seed);
            (void)graph::generate_walk_pairs(g, sampler, c.gnn.walks, gen);
        }));
        gnn::rf_gnn model(g, c.gnn);
        clock_type::time_point t0 = clock_type::now();
        model.train();
        train.push_back(ms_between(t0, clock_type::now()));
        linalg::matrix emb;
        t0 = clock_type::now();
        emb = model.embed_samples();
        embed.push_back(ms_between(t0, clock_type::now()));
        gnn::rf_gnn one_epoch(g, c.gnn);
        t0 = clock_type::now();
        (void)one_epoch.train_epoch();
        epoch.push_back(ms_between(t0, clock_type::now()));

        const std::size_t k = b(i).num_floors;
        std::vector<int> assignment;
        upgma.push_back(median_ms(3, [&] { assignment = cluster::upgma_cluster(emb, k); }));
        index.push_back(median_ms(3, [&] {
            util::rng gen(c.seed);
            const auto profiles = indexing::build_profiles(b(i), assignment, k);
            const linalg::matrix sim = indexing::similarity_matrix(profiles, c.similarity);
            const auto start = static_cast<std::size_t>(assignment[b(i).labeled_sample]);
            (void)indexing::index_from_bottom(sim, start, c.solver, gen);
        }));
    }
    add("graph.build_ms", median(build), "ms");
    add("graph.walk_pairs_ms", median(walks), "ms");
    add("gnn.train_ms", median(train), "ms");
    add("gnn.epoch_ms", median(epoch), "ms");
    add("gnn.embed_ms", median(embed), "ms");
    add("cluster.upgma_ms", median(upgma), "ms");
    add("indexing.index_ms", median(index), "ms");
}

void ladder::runtimes() {
    add("core.pipeline_ms", median_over(subset, [&](std::size_t i) {
            const core::fis_one engine(cfg(i));
            return median_ms(1, [&] { (void)engine.run(b(i)); });
        }),
        "ms");

    std::vector<data::building> buildings;
    for (const std::size_t i : subset) buildings.push_back(b(i));
    runtime::batch_config bc;
    bc.pipeline = pipeline;
    bc.seed = o.seed;
    bc.num_threads = k_pipeline_workers;
    const runtime::batch_runner runner(bc);
    add("runtime.buildings_per_s", runner.run(buildings).buildings_per_second, "1/s");

    service::floor_service svc(service::quick_profile(o.seed, k_pipeline_workers));
    const clock_type::time_point t0 = clock_type::now();
    for (const std::size_t i : subset) (void)svc.submit(b(i), i);
    svc.wait_all();
    add("service.buildings_per_s",
        static_cast<double>(subset.size()) / (ms_between(t0, clock_type::now()) / 1e3), "1/s");
}

void ladder::data_and_api() {
    add("data.content_hash_us", median_over(subset, [&](std::size_t i) {
            return 1e3 * median_ms(k_reps, [&] { (void)data::content_hash(b(i)); });
        }),
        "us");

    std::vector<runtime::building_report> reports;
    for (const std::size_t i : subset)
        reports.push_back(runtime::run_building_task(pipeline, o.seed, i, b(i), true));
    std::vector<double> enc, dec, bytes;
    for (const runtime::building_report& rep : reports) {
        const api::response resp{api::building_response{1, rep}};
        std::string frame;
        enc.push_back(1e3 * median_ms(k_reps, [&] { frame = api::encode(resp); }));
        dec.push_back(1e3 * median_ms(k_reps, [&] { (void)api::decode_response(frame); }));
        bytes.push_back(static_cast<double>(frame.size()));
    }
    add("api.codec_encode_us", median(enc), "us");
    add("api.codec_decode_us", median(dec), "us");
    add("api.response_bytes", mean(bytes), "bytes");

    api::result_cache cache(1024);
    std::vector<api::cache_key> keys;
    for (std::size_t j = 0; j < subset.size(); ++j) {
        keys.push_back(
            {data::content_hash(b(subset[j])), core::config_fingerprint(cfg(subset[j]))});
        cache.insert(keys.back(), reports[j]);
    }
    add("api.cache_lookup_us", median_over(keys, [&](const api::cache_key& k) {
            return 1e3 * median_ms(k_reps, [&] { (void)cache.lookup(k); });
        }),
        "us");
}

void ladder::store_and_ingest() {
    const data::corpus c = as_corpus(corpus);
    std::vector<double> writes;
    for (int rep = 0; rep < 3; ++rep) {
        std::filesystem::remove_all(store_dir);
        writes.push_back(
            median_ms(1, [&] { (void)data::write_corpus_store(c, store_dir, k_shard_size); }));
    }
    add("data.store_write_ms", median(writes), "ms");
    add("data.store_open_ms", median_ms(5, [&] { (void)data::corpus_store::open(store_dir); }),
        "ms");
    // What the ingest manager's dirty detection does per append: stream the
    // effective view and hash every building.
    add("data.effective_scan_ms", median_ms(3, [&] {
            const data::corpus_store store = data::corpus_store::open(store_dir);
            store.for_each_building_effective(
                [](std::size_t, data::building&& bb) { (void)data::content_hash(bb); });
        }),
        "ms");

    const std::string scratch = o.dir + "/ladder-append";
    write_store(c, scratch);
    std::vector<double> append;
    for (std::size_t k = 0; k < k_ladder_appends; ++k) {
        const std::vector<data::building> recs = {append_step(k)};
        append.push_back(median_ms(1, [&] { (void)ingest::append_scans(scratch, recs); }));
    }
    std::filesystem::remove_all(scratch);
    add("ingest.append_scans_ms", median(append), "ms");
}

void ladder::front_ends() {
    // Each front end is timed on cached reads, which isolate its own
    // per-request cost (the hops); cold_campaign also times fresh reads, the
    // request its end-to-end run makes.
    const auto median_reads = [&](int rounds, auto&& request_ms) {
        std::vector<double> ms;
        for (int round = 0; round < rounds; ++round)
            for (const std::size_t i : subset) ms.push_back(request_ms(i));
        return median(ms);
    };
    const int cached_rounds = k_reps / 10;

    // --- api::server loopback -------------------------------------------------
    {
        api::server_config sc;
        sc.service = service::quick_profile(o.seed, k_pipeline_workers);
        api::server srv(sc);
        loopback_inbox inbox;
        api::server::session s = srv.open(inbox.sink());
        std::uint64_t corr = 0;
        const auto identify = [&](std::size_t i, bool no_cache) {
            api::identify_building_request req;
            req.correlation_id = ++corr;
            req.has_index = true;
            req.corpus_index = i;
            req.no_cache = no_cache;
            req.b = b(i);
            const clock_type::time_point t0 = clock_type::now();
            s.handle(api::request{std::move(req)});
            const api::response resp = inbox.next();
            const double ms = ms_between(t0, clock_type::now());
            (void)report_of(r, resp, "api loopback");
            return ms;
        };
        // The first request of each building misses the cache and runs the
        // pipeline.
        m["rung.api_fresh_ms"] = median_reads(1, [&](std::size_t i) { return identify(i, false); });
        const service::service_stats before = srv.stats();
        m["rung.api_ms"] =
            median_reads(cached_rounds, [&](std::size_t i) { return identify(i, false); });
        const service::service_stats after = srv.stats();
        const double lookups = static_cast<double>(after.cache_hits + after.cache_misses -
                                                   before.cache_hits - before.cache_misses);
        // The hit ratio of the workload's own reads: cold's bypass the cache.
        add("api.cache_hit_ratio",
            !fresh && lookups > 0
                ? static_cast<double>(after.cache_hits - before.cache_hits) / lookups
                : 0.0,
            "1");
        s.finish();
    }

    // --- 1-backend federated_server loopback ------------------------------------
    {
        write_store(as_corpus(corpus), store_dir);
        federation::federation_config fc;
        fc.service = service::quick_profile(o.seed, k_pipeline_workers);
        fc.num_backends = 1;
        fc.store_dirs = {store_dir};
        federation::federated_server fleet(fc);
        loopback_inbox inbox;
        federation::federated_server::session s = fleet.open(inbox.sink());
        std::uint64_t corr = 0;
        const auto resident = [&](std::size_t i, bool no_cache) {
            const clock_type::time_point t0 = clock_type::now();
            s.handle(api::request{api::identify_resident_request{++corr, b(i).name, no_cache}});
            const api::response resp = inbox.next();
            const double ms = ms_between(t0, clock_type::now());
            (void)report_of(r, resp, "fleet loopback");
            return ms;
        };
        // Put each building's result in the cache by value, so the first
        // resident read costs the resident load plus a cache hit, and the
        // second a cache hit alone.
        for (const std::size_t i : subset) {
            api::identify_building_request req;
            req.correlation_id = ++corr;
            req.has_index = true;
            req.corpus_index = i;
            req.b = b(i);
            s.handle(api::request{std::move(req)});
            (void)report_of(r, inbox.next(), "fleet loopback");
        }
        add("federation.resident_load_ms", median_over(subset, [&](std::size_t i) {
                const double first = resident(i, false);
                return first - resident(i, false);
            }),
            "ms");
        m["rung.fleet_ms"] =
            median_reads(cached_rounds, [&](std::size_t i) { return resident(i, false); });
        if (fresh)
            m["rung.fleet_fresh_ms"] =
                median_reads(1, [&](std::size_t i) { return resident(i, true); });

        // Ingest through the fleet: watch, append, wait for ack and push.
        for (const auto& [i, step] : appends) {
            if (step > 0) continue;  // already watched
            s.handle(api::request{api::watch_request{++corr, b(i).name, true}});
            (void)inbox.next();
        }
        std::vector<double> rerun, lag;
        for (std::size_t k = 0; k < appends.size(); ++k) {
            api::append_scans_request req;
            req.correlation_id = ++corr;
            req.corpus_name = k_corpus_name;
            req.records = {append_step(k)};
            s.handle(api::request{std::move(req)});
            std::optional<clock_type::time_point> acked, pushed;
            double seconds = 0.0;
            while (!acked || !pushed) {
                const api::response resp = inbox.next();
                if (std::holds_alternative<api::append_response>(resp)) acked = clock_type::now();
                if (const auto* p = std::get_if<api::push_response>(&resp)) {
                    pushed = clock_type::now();
                    seconds = p->report.seconds;
                }
            }
            rerun.push_back(seconds * 1e3);
            lag.push_back(ms_between(*acked, *pushed) - seconds * 1e3);
        }
        const service::service_stats st = fleet.stats();
        add("ingest.dirty_per_append",
            static_cast<double>(st.ingest_dirty_buildings) /
                static_cast<double>(std::max<std::size_t>(1, st.ingest_appends)),
            "1");
        add("ingest.rerun_ms", median(rerun), "ms");
        add("ingest.push_lag_ms", median(lag), "ms");
        s.finish();
    }

    // --- TCP to the server process --------------------------------------------
    {
        write_store(as_corpus(corpus), store_dir);
        server_process srv(store_dir, o.seed);
        net::frame_conn conn("127.0.0.1", srv.port());
        std::uint64_t corr = 0, sheds = 0, errors = 0;
        std::vector<double> queue_wait;
        const auto read = [&](std::size_t i, bool no_cache) {
            const resident_answer a = identify_resident(conn, ++corr, b(i).name, no_cache);
            if (a.error.rfind("overloaded", 0) == 0 || a.error.rfind("draining", 0) == 0)
                ++sheds;
            else if (!a.error.empty())
                ++errors;
            queue_wait.push_back(a.ms - a.report.seconds * 1e3);
            return a.ms;
        };
        for (const std::size_t i : subset) (void)read(i, false);  // residents + cache warm
        queue_wait.clear();
        m["rung.tcp_ms"] =
            median_reads(cached_rounds, [&](std::size_t i) { return read(i, false); });
        if (fresh) {
            queue_wait.clear();  // the workload's own requests only
            m["rung.tcp_fresh_ms"] = median_reads(1, [&](std::size_t i) { return read(i, true); });
        }
        add("service.queue_wait_ms", median(queue_wait), "ms");
        add("net.shed_count", static_cast<double>(sheds), "count");
        add("net.error_count", static_cast<double>(errors), "count");
        if (sheds + errors > 0) r.fail_check("TCP rung: failed requests");
        r.failed += sheds + errors;
    }
    std::filesystem::remove_all(store_dir);

    add("federation.hop_us", 1e3 * (m["rung.fleet_ms"] - m["rung.api_ms"]), "us");
    add("net.hop_us", 1e3 * (m["rung.tcp_ms"] - m["rung.fleet_ms"]), "us");
}

std::string fmt(double v) {
    std::ostringstream s;
    s << std::fixed << std::setprecision(3) << v;
    return s.str();
}

void ladder::report_tables() {
    const double stages = m["graph.build_ms"] + m["gnn.train_ms"] + m["gnn.embed_ms"] +
                          m["cluster.upgma_ms"] + m["indexing.index_ms"];
    const double per_building_runtime = 1e3 * k_pipeline_workers / m["runtime.buildings_per_s"];
    const double per_building_service = 1e3 * k_pipeline_workers / m["service.buildings_per_s"];
    r.lines.push_back("rung ladder (per building or request, ms; hop = rung minus the one below):");
    const auto rung = [&](const std::string& name, double ms, double below) {
        r.lines.push_back("  " + name + ": " + fmt(ms) +
                          (below >= 0 ? "  hop " + fmt(ms - below) : ""));
    };
    rung("2 pipeline stages (sum)", stages, -1);
    rung("3a fis_one::run", m["core.pipeline_ms"], stages);
    rung("3b batch_runner (per building per worker)", per_building_runtime, m["core.pipeline_ms"]);
    rung("3c floor_service (per building per worker)", per_building_service, per_building_runtime);
    rung("4a api::server loopback, first (pipeline) request", m["rung.api_fresh_ms"],
         per_building_service);
    if (fresh) {
        rung("4b federated_server loopback, fresh", m["rung.fleet_fresh_ms"],
             m["rung.api_fresh_ms"]);
        rung("4c TCP, fresh", m["rung.tcp_fresh_ms"], m["rung.fleet_fresh_ms"]);
    }
    rung("4a api::server loopback, cached", m["rung.api_ms"], -1);
    rung("4b federated_server loopback, cached", m["rung.fleet_ms"], m["rung.api_ms"]);
    rung("4c TCP, cached", m["rung.tcp_ms"], m["rung.fleet_ms"]);

    // The rungs time one request at a time with the building already
    // resident; a cold end-to-end request also loads it, and every
    // end-to-end run has more than one connection in flight.
    const double p50 = e2e_metric("latency_p50_ms");
    const double tcp =
        fresh ? m["rung.tcp_fresh_ms"] + m["federation.resident_load_ms"] : m["rung.tcp_ms"];
    r.lines.push_back("tracing overhead: TCP rung " + fmt(tcp) + " ms" +
                      (fresh ? " (fresh, with the resident load)" : "") +
                      " vs end-to-end latency_p50_ms " + fmt(p50) + " ms: " +
                      fmt(p50 > 0 ? 100.0 * (tcp - p50) / p50 : 0.0) +
                      "% (the end-to-end run adds queueing between its connections)");

    // Blocking steps of the workload's measured request, from the rungs.
    std::vector<std::pair<std::string, double>> steps;
    if (fresh) {
        steps = {{"federation.resident_load_ms", m["federation.resident_load_ms"]},
                 {"graph.build_ms", m["graph.build_ms"]},
                 {"gnn.train_ms", m["gnn.train_ms"]},
                 {"gnn.embed_ms", m["gnn.embed_ms"]},
                 {"cluster.upgma_ms", m["cluster.upgma_ms"]},
                 {"indexing.index_ms", m["indexing.index_ms"]},
                 {"api loopback front end (cached read)", m["rung.api_ms"]},
                 {"federation.hop_us/1e3", m["federation.hop_us"] / 1e3},
                 {"net.hop_us/1e3", m["net.hop_us"] / 1e3}};
    } else {
        const double hash = m["data.content_hash_us"] / 1e3;
        const double enc = m["api.codec_encode_us"] / 1e3;
        const double dec = m["api.codec_decode_us"] / 1e3;
        const double lookup = m["api.cache_lookup_us"] / 1e3;
        steps = {{"data.content_hash_us x2 (affinity, cache key)/1e3", 2 * hash},
                 {"api.cache_lookup_us/1e3", lookup},
                 {"api.codec_encode_us/1e3", enc},
                 {"api.codec_decode_us/1e3 (client)", dec},
                 {"rest of the api loopback", m["rung.api_ms"] - hash - lookup - enc - dec},
                 {"federation.hop_us/1e3", m["federation.hop_us"] / 1e3},
                 {"net.hop_us/1e3", m["net.hop_us"] / 1e3}};
    }
    const auto attribute = [&](const std::string& target, double value,
                               const std::vector<std::pair<std::string, double>>& parts) {
        double sum = 0.0;
        r.lines.push_back("attribution of " + target + " = " + fmt(value) + " ms:");
        for (const auto& [name, ms] : parts) {
            r.lines.push_back("  " + name + ": " + fmt(ms));
            sum += ms;
        }
        r.lines.push_back("  unexplained remainder: " + fmt(value - sum) + " ms (" +
                          fmt(value > 0 ? 100.0 * (value - sum) / value : 0.0) + "%)");
    };
    attribute("latency_p50_ms", p50, steps);
    const double append_steps = m["data.effective_scan_ms"] + m["ingest.append_scans_ms"];
    attribute("append_p50_ms", e2e_metric("append_p50_ms"),
              {{"data.effective_scan_ms", m["data.effective_scan_ms"]},
               {"ingest.append_scans_ms", m["ingest.append_scans_ms"]}});
    attribute("freshness_p50_ms", e2e_metric("freshness_p50_ms"),
              {{"append (scan + append_scans)", append_steps},
               {"ingest.rerun_ms", m["ingest.rerun_ms"]},
               {"ingest.push_lag_ms", m["ingest.push_lag_ms"]}});
}

void ladder::run() {
    r.correct = e2e.correct;
    r.attempted = e2e.attempted;
    r.failed = e2e.failed;
    r.lines = e2e.lines;
    r.lines.push_back("--- traced run: layer ladder over buildings 0.." +
                      std::to_string(k_subset - 1) + " of the same corpus ---");
    fresh = o.workload == "cold_campaign";
    corpus = make_corpus(o.seed, store_size(o.workload), k_pool_per_floor, 4);
    for (std::size_t i = 0; i < k_subset; ++i) subset.push_back(i);
    const std::vector<std::size_t> rotation = ingest_rotation(o.workload);
    std::map<std::size_t, std::size_t> appended;
    for (std::size_t k = 0; k < k_ladder_appends; ++k) {
        const std::size_t i = rotation[k * rotation.size() / k_ladder_appends];
        appends.emplace_back(i, appended[i]++);
    }
    pipeline = pipeline_template(o.seed);
    store_dir = o.dir + "/ladder-store";

    kernels();
    pipeline_stages();
    runtimes();
    data_and_api();
    store_and_ingest();
    front_ends();
    report_tables();
    for (const run_report::metric& x : r.metrics) {
        std::ostringstream line;
        line << "  " << x.name << " = " << x.value << ' ' << x.unit;
        r.lines.push_back(line.str());
    }
}

}  // namespace

run_report run_ladder(const run_options& o, const run_report& e2e) {
    ladder l(o, e2e);
    l.run();
    return std::move(l.r);
}

}  // namespace perfbench
