// Tests for src/ingest + the federation watch registry: append-only delta
// durability (including interrupted appends at both checkpoints), dirty
// detection and re-run submission through ingest_manager, and watch
// subscription delivery/pruning. Runs in the TSan CI tier — the manager
// test drives appends from multiple threads against a live responder.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "data/corpus_store.hpp"
#include "federation/watch_registry.hpp"
#include "ingest/append.hpp"
#include "ingest/ingest_manager.hpp"
#include "sim/building_generator.hpp"

namespace {

using namespace fisone;

struct scoped_dir {
    std::string dir;
    explicit scoped_dir(const std::string& stem) {
        dir = "/tmp/" + stem + "-" + std::to_string(::getpid());
        std::filesystem::remove_all(dir);
    }
    ~scoped_dir() {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
};

data::building named_building(const std::string& name, std::uint64_t seed) {
    sim::building_spec spec;
    spec.name = name;
    spec.num_floors = 2;
    spec.samples_per_floor = 6;
    spec.aps_per_floor = 4;
    spec.seed = seed;
    return sim::generate_building(spec).building;
}

std::string make_store(const scoped_dir& s, std::vector<std::string> names) {
    data::corpus c;
    c.name = "city";
    for (std::size_t i = 0; i < names.size(); ++i)
        c.buildings.push_back(named_building(names[i], 100 + i));
    data::write_corpus_store(c, s.dir, 2);
    return s.dir;
}

// ---------- ingest::append_scans ----------

TEST(append_scans, versions_advance_and_touched_names_dedupe) {
    scoped_dir s("fisone-append-basic");
    make_store(s, {"a", "b"});

    const std::vector<data::building> batch1 = {named_building("b", 500),
                                                named_building("d", 501),
                                                named_building("b", 502)};
    const ingest::append_outcome o1 = ingest::append_scans(s.dir, batch1);
    EXPECT_EQ(o1.version, 1u);
    EXPECT_EQ(o1.accepted, 3u);
    ASSERT_EQ(o1.touched.size(), 2u);  // deduped, first-appearance order
    EXPECT_EQ(o1.touched[0], "b");
    EXPECT_EQ(o1.touched[1], "d");

    const ingest::append_outcome o2 =
        ingest::append_scans(s.dir, {named_building("a", 503)});
    EXPECT_EQ(o2.version, 2u);

    const data::corpus_store store = data::corpus_store::open(s.dir);
    EXPECT_EQ(store.manifest().version, 2u);
    ASSERT_EQ(store.manifest().deltas.size(), 2u);
    EXPECT_EQ(store.manifest().deltas[0].num_records, 3u);
    // Effective corpus: a, b (merged) + new d at the tail.
    EXPECT_EQ(store.load_all_effective().buildings.size(), 3u);
}

TEST(append_scans, rejects_empty_batches_and_unnamed_records) {
    scoped_dir s("fisone-append-reject");
    make_store(s, {"a"});
    EXPECT_THROW((void)ingest::append_scans(s.dir, {}), std::invalid_argument);
    data::building nameless = named_building("a", 1);
    nameless.name.clear();
    EXPECT_THROW((void)ingest::append_scans(s.dir, {nameless}), std::invalid_argument);
    // Nothing landed: the store is untouched.
    EXPECT_EQ(data::corpus_store::open(s.dir).manifest().version, 0u);
}

TEST(append_scans, interrupted_after_delta_before_manifest_tmp_recovers) {
    scoped_dir s("fisone-append-crash1");
    make_store(s, {"a"});

    ingest::append_hooks hooks;
    hooks.checkpoint = [](int step) {
        if (step == 1) throw std::runtime_error("injected crash at checkpoint 1");
    };
    EXPECT_THROW((void)ingest::append_scans(s.dir, {named_building("x", 9)}, hooks),
                 std::runtime_error);

    // The delta shard is on disk but invisible: the manifest never moved.
    EXPECT_TRUE(std::filesystem::exists(s.dir + "/delta-0001.csv"));
    EXPECT_EQ(data::corpus_store::open(s.dir).manifest().version, 0u);
    EXPECT_EQ(data::corpus_store::open(s.dir).load_all_effective().buildings.size(), 1u);

    // A retry sweeps the orphan and lands the append exactly once.
    const ingest::append_outcome o = ingest::append_scans(s.dir, {named_building("x", 9)});
    EXPECT_EQ(o.version, 1u);
    const data::corpus_store store = data::corpus_store::open(s.dir);
    ASSERT_EQ(store.manifest().deltas.size(), 1u);
    EXPECT_EQ(store.load_all_effective().buildings.size(), 2u);
}

TEST(append_scans, interrupted_after_tmp_before_rename_recovers) {
    scoped_dir s("fisone-append-crash2");
    make_store(s, {"a"});

    ingest::append_hooks hooks;
    hooks.checkpoint = [](int step) {
        if (step == 2) throw std::runtime_error("injected crash at checkpoint 2");
    };
    EXPECT_THROW((void)ingest::append_scans(s.dir, {named_building("x", 9)}, hooks),
                 std::runtime_error);

    // Both the delta and the manifest temp exist; the committed manifest is
    // still the pre-append one, and a mount sweeps the leftovers.
    EXPECT_TRUE(std::filesystem::exists(data::manifest_temp_path(s.dir)));
    EXPECT_EQ(data::corpus_store::open(s.dir).manifest().version, 0u);
    EXPECT_FALSE(std::filesystem::exists(data::manifest_temp_path(s.dir)));

    const ingest::append_outcome o = ingest::append_scans(s.dir, {named_building("x", 9)});
    EXPECT_EQ(o.version, 1u);
    EXPECT_EQ(data::corpus_store::open(s.dir).load_all_effective().buildings.size(), 2u);
}

// ---------- federation::watch_registry ----------

runtime::building_report make_report(std::size_t index, const std::string& name) {
    runtime::building_report r;
    r.index = index;
    r.name = name;
    r.ok = true;
    return r;
}

TEST(watch_registry, delivers_to_matching_live_subscribers_only) {
    federation::watch_registry reg;
    const auto alive_a = std::make_shared<int>(1);
    const auto alive_b = std::make_shared<int>(2);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got_a;  // (corr, version)
    std::vector<std::uint64_t> got_b;

    reg.subscribe("bldg-1", 1, 50, alive_a, [&](const api::response& r) {
        const auto* p = std::get_if<api::push_response>(&r);
        ASSERT_NE(p, nullptr);
        got_a.emplace_back(p->correlation_id, p->version);
    });
    reg.subscribe("bldg-1", 2, 60, alive_b, [&](const api::response& r) {
        got_b.push_back(std::get<api::push_response>(r).correlation_id);
    });
    reg.subscribe("bldg-2", 1, 51, alive_a, [&](const api::response&) {
        FAIL() << "bldg-2 was never published";
    });
    EXPECT_EQ(reg.live_count(), 3u);

    EXPECT_EQ(reg.publish("bldg-1", 7, make_report(1, "bldg-1")), 2u);
    EXPECT_EQ(reg.publish("bldg-9", 7, make_report(9, "bldg-9")), 0u);
    ASSERT_EQ(got_a.size(), 1u);
    EXPECT_EQ(got_a[0], (std::pair<std::uint64_t, std::uint64_t>{50, 7}));
    ASSERT_EQ(got_b.size(), 1u);
    EXPECT_EQ(got_b[0], 60u);
}

TEST(watch_registry, resubscribe_repoints_and_unsubscribe_removes) {
    federation::watch_registry reg;
    const auto alive = std::make_shared<int>(0);
    int first_hits = 0;
    int second_hits = 0;
    reg.subscribe("b", 1, 10, alive, [&](const api::response&) { ++first_hits; });
    // Same (name, token): the subscription is re-pointed, not duplicated.
    reg.subscribe("b", 1, 11, alive, [&](const api::response&) { ++second_hits; });
    EXPECT_EQ(reg.live_count(), 1u);
    EXPECT_EQ(reg.publish("b", 1, make_report(0, "b")), 1u);
    EXPECT_EQ(first_hits, 0);
    EXPECT_EQ(second_hits, 1);

    EXPECT_TRUE(reg.unsubscribe("b", 1));
    EXPECT_FALSE(reg.unsubscribe("b", 1));  // already gone
    EXPECT_EQ(reg.live_count(), 0u);
    EXPECT_EQ(reg.publish("b", 2, make_report(0, "b")), 0u);
    EXPECT_EQ(second_hits, 1);
}

TEST(watch_registry, expired_subscribers_are_pruned_not_delivered) {
    federation::watch_registry reg;
    auto alive = std::make_shared<int>(0);
    int hits = 0;
    reg.subscribe("b", 1, 10, alive, [&](const api::response&) { ++hits; });
    EXPECT_EQ(reg.live_count(), 1u);
    alive.reset();  // the emitter (connection) died
    EXPECT_EQ(reg.publish("b", 1, make_report(0, "b")), 0u);
    EXPECT_EQ(hits, 0);
    EXPECT_EQ(reg.live_count(), 0u);
}

// ---------- ingest_manager ----------

/// Answers every submitted re-run from its own thread, the way the
/// federated fleet answers the manager's internal session.
class fake_fleet {
public:
    ~fake_fleet() { stop(); }

    ingest::ingest_manager::reindex_submit submit_fn() {
        return [this](std::uint64_t corr, std::size_t index, data::building b, std::uint64_t) {
            {
                const std::lock_guard<std::mutex> lock(m_);
                q_.emplace_back(corr, index, std::move(b));
            }
            cv_.notify_one();
        };
    }

    void attach(ingest::ingest_manager* mgr) {
        mgr_ = mgr;
        t_ = std::thread([this] { run(); });
    }

    void stop() {
        {
            const std::lock_guard<std::mutex> lock(m_);
            stop_ = true;
        }
        cv_.notify_all();
        if (t_.joinable()) t_.join();
    }

    std::vector<std::tuple<std::uint64_t, std::size_t, std::string>> submissions() {
        const std::lock_guard<std::mutex> lock(m_);
        return seen_;
    }

private:
    void run() {
        for (;;) {
            std::tuple<std::uint64_t, std::size_t, data::building> item;
            {
                std::unique_lock<std::mutex> lock(m_);
                cv_.wait(lock, [this] { return stop_ || !q_.empty(); });
                if (q_.empty()) return;
                item = std::move(q_.front());
                q_.pop_front();
                seen_.emplace_back(std::get<0>(item), std::get<1>(item),
                                   std::get<2>(item).name);
            }
            runtime::building_report r =
                make_report(std::get<1>(item), std::get<2>(item).name);
            mgr_->on_reindex_result(std::get<0>(item), &r);
        }
    }

    ingest::ingest_manager* mgr_ = nullptr;
    std::mutex m_;
    std::condition_variable cv_;
    std::deque<std::tuple<std::uint64_t, std::size_t, data::building>> q_;
    std::vector<std::tuple<std::uint64_t, std::size_t, std::string>> seen_;
    bool stop_ = false;
    std::thread t_;
};

TEST(ingest_manager, appends_detect_dirty_and_publish_rerun_results) {
    scoped_dir s("fisone-mgr-basic");
    make_store(s, {"a", "b", "c"});

    std::mutex pub_m;
    std::vector<std::tuple<std::string, std::uint64_t, std::size_t>> published;
    fake_fleet fleet;
    std::vector<ingest::store_binding> bindings(1);
    bindings[0].dir = s.dir;
    bindings[0].corpus_name = "city";
    bindings[0].base_offset = 10;
    {
        ingest::ingest_manager mgr(
            bindings, fleet.submit_fn(),
            [&](const std::string& name, std::uint64_t version,
                const runtime::building_report& r) {
                const std::lock_guard<std::mutex> lock(pub_m);
                published.emplace_back(name, version, r.index);
            });
        fleet.attach(&mgr);

        // Batch 1: touch "b", introduce "d" — both dirty.
        std::promise<ingest::append_ack> p1;
        mgr.enqueue_append("city",
                           {named_building("b", 700), named_building("d", 701)},
                           [&](const ingest::append_ack& a) { p1.set_value(a); });
        const ingest::append_ack a1 = p1.get_future().get();
        EXPECT_TRUE(a1.error.empty()) << a1.error;
        EXPECT_EQ(a1.version, 1u);
        EXPECT_EQ(a1.accepted, 2u);
        EXPECT_EQ(a1.dirty, 2u);

        // Batch 2: touch "b" again — "a", "c", "d" stay clean.
        std::promise<ingest::append_ack> p2;
        mgr.enqueue_append("city", {named_building("b", 702)},
                           [&](const ingest::append_ack& a) { p2.set_value(a); });
        const ingest::append_ack a2 = p2.get_future().get();
        EXPECT_EQ(a2.version, 2u);
        EXPECT_EQ(a2.dirty, 1u);

        // Unknown corpus: a typed failure, nothing submitted.
        std::promise<ingest::append_ack> p3;
        mgr.enqueue_append("nowhere", {named_building("z", 703)},
                           [&](const ingest::append_ack& a) { p3.set_value(a); });
        EXPECT_FALSE(p3.get_future().get().error.empty());

        mgr.wait_idle();
        EXPECT_EQ(mgr.appends_total(), 2u);
        EXPECT_EQ(mgr.dirty_total(), 3u);
    }  // the manager's destructor waits out every pending re-run

    // Re-runs carried global indices: base offset 10, "b" local 1, "d"
    // appended at the local tail (index 3).
    const auto subs = fleet.submissions();
    ASSERT_EQ(subs.size(), 3u);
    EXPECT_EQ(std::get<2>(subs[0]), "b");
    EXPECT_EQ(std::get<1>(subs[0]), 11u);
    EXPECT_EQ(std::get<2>(subs[1]), "d");
    EXPECT_EQ(std::get<1>(subs[1]), 13u);
    EXPECT_EQ(std::get<2>(subs[2]), "b");

    const std::lock_guard<std::mutex> lock(pub_m);
    ASSERT_EQ(published.size(), 3u);
    EXPECT_EQ(published[0],
              (std::tuple<std::string, std::uint64_t, std::size_t>{"b", 1, 11}));
    EXPECT_EQ(published[1],
              (std::tuple<std::string, std::uint64_t, std::size_t>{"d", 1, 13}));
    EXPECT_EQ(published[2],
              (std::tuple<std::string, std::uint64_t, std::size_t>{"b", 2, 11}));
}

TEST(ingest_manager, concurrent_appenders_serialise_without_losing_batches) {
    scoped_dir s("fisone-mgr-concurrent");
    make_store(s, {"a", "b"});

    fake_fleet fleet;
    std::vector<ingest::store_binding> bindings(1);
    bindings[0].dir = s.dir;
    bindings[0].corpus_name = "city";
    std::atomic<std::size_t> pushes{0};
    {
        ingest::ingest_manager mgr(
            bindings, fleet.submit_fn(),
            [&](const std::string&, std::uint64_t, const runtime::building_report&) {
                pushes.fetch_add(1);
            });
        fleet.attach(&mgr);

        constexpr std::size_t k_threads = 4;
        constexpr std::size_t k_appends_each = 3;
        std::atomic<std::size_t> acked{0};
        std::vector<std::thread> writers;
        for (std::size_t t = 0; t < k_threads; ++t) {
            writers.emplace_back([&, t] {
                for (std::size_t k = 0; k < k_appends_each; ++k) {
                    mgr.enqueue_append(
                        "city",
                        {named_building("hot-" + std::to_string(t), 1000 + t * 10 + k)},
                        [&](const ingest::append_ack& a) {
                            if (a.error.empty() && a.dirty >= 1) acked.fetch_add(1);
                        });
                }
            });
        }
        for (std::thread& w : writers) w.join();
        mgr.wait_idle();
        EXPECT_EQ(acked.load(), k_threads * k_appends_each);
        EXPECT_EQ(mgr.appends_total(), k_threads * k_appends_each);
    }

    // Every batch landed durably and in one total order.
    const data::corpus_store store = data::corpus_store::open(s.dir);
    EXPECT_EQ(store.manifest().version, 12u);
    EXPECT_EQ(store.manifest().deltas.size(), 12u);
    // Base 2 + one new "hot-<t>" building per writer thread.
    EXPECT_EQ(store.load_all_effective().buildings.size(), 2u + 4u);
    EXPECT_GE(pushes.load(), 4u);
}

/// (name, global index, content hash) of every building a step re-ran.
using dirty_set = std::set<std::tuple<std::string, std::size_t, std::uint64_t>>;

/// The dirty set an append must produce, by brute force: every building of
/// the effective view after it whose bits differ from the view before it
/// (or that is new), at its global index.
dirty_set diff_of_snapshots(const data::corpus& before, const data::corpus& after,
                            std::size_t base_offset) {
    std::map<std::string, std::uint64_t> old_hashes;
    for (const data::building& b : before.buildings)
        old_hashes.emplace(b.name, data::content_hash(b));
    dirty_set expected;
    for (std::size_t i = 0; i < after.buildings.size(); ++i) {
        const data::building& b = after.buildings[i];
        const std::uint64_t hash = data::content_hash(b);
        const auto it = old_hashes.find(b.name);
        if (it == old_hashes.end() || it->second != hash)
            expected.emplace(b.name, base_offset + i, hash);
    }
    return expected;
}

TEST(ingest_manager, dirty_set_equals_a_diff_of_full_snapshots) {
    constexpr std::size_t k_base_offset = 10;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        scoped_dir s("fisone-mgr-dirty-" + std::to_string(seed));
        std::vector<std::string> names = {"b0", "b1", "b2", "b3", "b4", "b5"};
        make_store(s, names);

        // Re-runs are answered inline; each records what it was asked to run.
        std::mutex m;
        dirty_set submitted;
        ingest::ingest_manager* mgr_ptr = nullptr;
        std::vector<ingest::store_binding> bindings(1);
        bindings[0].dir = s.dir;
        bindings[0].corpus_name = "city";
        bindings[0].base_offset = k_base_offset;
        ingest::ingest_manager mgr(
            bindings,
            [&](std::uint64_t corr, std::size_t index, data::building b,
                std::uint64_t content_hash) {
                EXPECT_EQ(content_hash, data::content_hash(b));  // the one hash, passed on
                {
                    const std::lock_guard<std::mutex> lock(m);
                    submitted.emplace(b.name, index, content_hash);
                }
                const runtime::building_report r = make_report(index, b.name);
                mgr_ptr->on_reindex_result(corr, &r);
            },
            nullptr);
        mgr_ptr = &mgr;

        std::mt19937_64 rng(seed);
        std::size_t fresh_names = 0;
        for (std::size_t step = 0; step < 12; ++step) {
            // One to three records: mostly known names, some new ones, and
            // now and then the previous record's name again in one batch.
            std::vector<data::building> batch;
            const std::size_t records = 1 + rng() % 3;
            for (std::size_t r = 0; r < records; ++r) {
                std::string name;
                const std::uint64_t pick = rng() % 10;
                if (!batch.empty() && pick < 2)
                    name = batch.back().name;
                else if (pick < 4)
                    name = "new-" + std::to_string(fresh_names++);
                else
                    name = names[rng() % names.size()];
                if (std::find(names.begin(), names.end(), name) == names.end())
                    names.push_back(name);
                batch.push_back(named_building(name, 1000 * seed + 10 * step + r));
            }

            const data::corpus before = data::corpus_store::open(s.dir).load_all_effective();
            {
                const std::lock_guard<std::mutex> lock(m);
                submitted.clear();
            }
            std::promise<ingest::append_ack> acked;
            mgr.enqueue_append("city", batch,
                               [&](const ingest::append_ack& a) { acked.set_value(a); });
            const ingest::append_ack ack = acked.get_future().get();
            ASSERT_TRUE(ack.error.empty()) << ack.error;
            mgr.wait_idle();
            const data::corpus after = data::corpus_store::open(s.dir).load_all_effective();

            const dirty_set expected = diff_of_snapshots(before, after, k_base_offset);
            const std::lock_guard<std::mutex> lock(m);
            EXPECT_EQ(submitted, expected) << "seed " << seed << ", step " << step;
            EXPECT_EQ(ack.dirty, expected.size()) << "seed " << seed << ", step " << step;
        }
    }
}

}  // namespace
