// Tests for src/data: model validation, MAC interning, CSV round-trip,
// dense matrix view.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/corpus_store.hpp"
#include "data/dataset_io.hpp"
#include "data/rf_sample.hpp"
#include "sim/building_generator.hpp"

namespace {

using namespace fisone::data;

building small_building() {
    building b;
    b.name = "unit";
    b.num_floors = 2;
    b.num_macs = 3;
    b.samples.push_back({{{0, -40.5}, {1, -60.0}}, 0, 3});
    b.samples.push_back({{{2, -70.0}}, 1, 4});
    b.samples.push_back({{{1, -55.0}, {2, -72.0}}, 1, 3});
    b.labeled_sample = 0;
    b.labeled_floor = 0;
    return b;
}

// ---------- mac_registry ----------

TEST(mac_registry, interning_round_trip) {
    mac_registry reg;
    const auto a = reg.id_of("aa:bb:cc:dd:ee:01");
    const auto b = reg.id_of("aa:bb:cc:dd:ee:02");
    EXPECT_NE(a, b);
    EXPECT_EQ(reg.id_of("aa:bb:cc:dd:ee:01"), a);  // stable
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.name_of(a), "aa:bb:cc:dd:ee:01");
    EXPECT_EQ(reg.find("aa:bb:cc:dd:ee:02"), b);
    EXPECT_EQ(reg.find("unknown"), mac_registry::npos);
    EXPECT_THROW((void)reg.name_of(99), std::out_of_range);
}

// ---------- validation ----------

TEST(building_validate, accepts_consistent_building) {
    EXPECT_NO_THROW(small_building().validate());
}

TEST(building_validate, rejects_inconsistencies) {
    building b = small_building();
    b.num_floors = 1;
    EXPECT_THROW(b.validate(), std::invalid_argument);

    b = small_building();
    b.samples.clear();
    EXPECT_THROW(b.validate(), std::invalid_argument);

    b = small_building();
    b.labeled_sample = 99;
    EXPECT_THROW(b.validate(), std::invalid_argument);

    b = small_building();
    b.labeled_floor = 5;
    EXPECT_THROW(b.validate(), std::invalid_argument);

    b = small_building();
    b.labeled_sample = 1;  // that sample is on floor 1, label says 0
    EXPECT_THROW(b.validate(), std::invalid_argument);

    b = small_building();
    b.samples[0].observations[0].mac_id = 77;
    EXPECT_THROW(b.validate(), std::invalid_argument);

    b = small_building();
    b.samples[0].observations[0].rss_dbm = 10.0;  // positive RSS
    EXPECT_THROW(b.validate(), std::invalid_argument);

    b = small_building();
    b.samples[1].true_floor = 9;
    EXPECT_THROW(b.validate(), std::invalid_argument);

    b = small_building();
    b.samples[1].observations.clear();
    EXPECT_THROW(b.validate(), std::invalid_argument);
}

TEST(building_stats, samples_per_floor) {
    const auto counts = small_building().samples_per_floor();
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 2u);
}

// ---------- serialisation ----------

TEST(dataset_io, stream_round_trip) {
    const building original = small_building();
    std::stringstream ss;
    save_building(original, ss);
    const building loaded = load_building(ss);

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.num_floors, original.num_floors);
    EXPECT_EQ(loaded.num_macs, original.num_macs);
    EXPECT_EQ(loaded.labeled_sample, original.labeled_sample);
    EXPECT_EQ(loaded.labeled_floor, original.labeled_floor);
    ASSERT_EQ(loaded.samples.size(), original.samples.size());
    for (std::size_t i = 0; i < loaded.samples.size(); ++i) {
        EXPECT_EQ(loaded.samples[i].true_floor, original.samples[i].true_floor);
        EXPECT_EQ(loaded.samples[i].device_id, original.samples[i].device_id);
        ASSERT_EQ(loaded.samples[i].observations.size(),
                  original.samples[i].observations.size());
        for (std::size_t j = 0; j < loaded.samples[i].observations.size(); ++j) {
            EXPECT_EQ(loaded.samples[i].observations[j].mac_id,
                      original.samples[i].observations[j].mac_id);
            EXPECT_DOUBLE_EQ(loaded.samples[i].observations[j].rss_dbm,
                             original.samples[i].observations[j].rss_dbm);
        }
    }
}

TEST(dataset_io, file_round_trip) {
    const building original = small_building();
    const std::string path = "/tmp/fisone_test_building.csv";
    save_building_file(original, path);
    const building loaded = load_building_file(path);
    EXPECT_EQ(loaded.samples.size(), original.samples.size());
    std::remove(path.c_str());
    EXPECT_THROW((void)load_building_file("/nonexistent/nope.csv"), std::ios_base::failure);
}

TEST(dataset_io, rejects_malformed_input) {
    std::stringstream bad_magic("not a building\n");
    EXPECT_THROW((void)load_building(bad_magic), std::invalid_argument);

    std::stringstream bad_row("# fisone-building v1\nbogus,1\n");
    EXPECT_THROW((void)load_building(bad_row), std::invalid_argument);

    std::stringstream bad_obs(
        "# fisone-building v1\nname,x\nfloors,2\nmacs,1\nlabeled_sample,0\n"
        "labeled_floor,0\nsample,0,0,0;-40\n");
    EXPECT_THROW((void)load_building(bad_obs), std::invalid_argument);
}

TEST(corpus_manifest, rejects_duplicate_building_ids_naming_the_shard_file) {
    // A shard file listed twice mounts its building ids under two corpus
    // index ranges — before this check the duplicate silently shadowed.
    std::stringstream dup_shard(
        "# fisone-corpus v1\n"
        "corpus,city\n"
        "shard,shard-0000.csv,0,2\n"
        "shard,shard-0000.csv,2,2\n");
    try {
        (void)load_manifest(dup_shard);
        FAIL() << "duplicate shard row must be rejected";
    } catch (const std::invalid_argument& e) {
        // The error must point at the offending shard file.
        EXPECT_NE(std::string(e.what()).find("shard-0000.csv"), std::string::npos) << e.what();
    }

    // Same rule at write time: an in-memory manifest never serialises
    // a duplicate for a future load to trip over.
    corpus_manifest m;
    m.corpus_name = "city";
    m.shards.push_back({"a.csv", 0, 1});
    m.shards.push_back({"a.csv", 1, 1});
    EXPECT_THROW(m.validate(), std::invalid_argument);

    // A second corpus row would silently shadow the first name.
    std::stringstream dup_corpus(
        "# fisone-corpus v1\n"
        "corpus,one\n"
        "corpus,two\n"
        "shard,shard-0000.csv,0,2\n");
    EXPECT_THROW((void)load_manifest(dup_corpus), std::invalid_argument);

    // Distinct files at distinct ranges stay accepted.
    std::stringstream ok(
        "# fisone-corpus v1\n"
        "corpus,city\n"
        "shard,shard-0000.csv,0,2\n"
        "shard,shard-0001.csv,2,2\n");
    EXPECT_EQ(load_manifest(ok).total_buildings(), 4u);
}

TEST(dataset_io, rejects_truncated_header) {
    // File ends mid-header: the magic parsed but no samples ever arrived.
    std::stringstream no_samples("# fisone-building v1\nname,x\nfloors,2\n");
    EXPECT_THROW((void)load_building(no_samples), std::invalid_argument);

    // Truncated magic line itself.
    std::stringstream cut_magic("# fisone-build");
    EXPECT_THROW((void)load_building(cut_magic), std::invalid_argument);

    // Empty stream.
    std::stringstream empty;
    EXPECT_THROW((void)load_building(empty), std::invalid_argument);
}

TEST(dataset_io, rejects_macs_count_mismatch) {
    // Header claims 1 MAC; a sample references mac_id 2.
    std::stringstream mismatch(
        "# fisone-building v1\nname,x\nfloors,2\nmacs,1\nlabeled_sample,0\n"
        "labeled_floor,0\nsample,0,0,0:-40\nsample,1,0,2:-60\n");
    EXPECT_THROW((void)load_building(mismatch), std::invalid_argument);
}

TEST(dataset_io, rejects_out_of_range_labeled_sample) {
    // labeled_sample points past the two samples present.
    std::stringstream bad_label(
        "# fisone-building v1\nname,x\nfloors,2\nmacs,1\nlabeled_sample,7\n"
        "labeled_floor,0\nsample,0,0,0:-40\nsample,1,0,0:-60\n");
    EXPECT_THROW((void)load_building(bad_label), std::invalid_argument);
}

TEST(dataset_io, generated_building_round_trips_exactly) {
    fisone::sim::building_spec spec;
    spec.name = "roundtrip";
    spec.num_floors = 4;
    spec.samples_per_floor = 25;
    spec.aps_per_floor = 8;
    spec.seed = 1234;
    const building original = fisone::sim::generate_building(spec).building;

    std::stringstream ss;
    save_building(original, ss);
    const building loaded = load_building(ss);

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.num_floors, original.num_floors);
    EXPECT_EQ(loaded.num_macs, original.num_macs);
    EXPECT_EQ(loaded.labeled_sample, original.labeled_sample);
    EXPECT_EQ(loaded.labeled_floor, original.labeled_floor);
    ASSERT_EQ(loaded.samples.size(), original.samples.size());
    for (std::size_t i = 0; i < loaded.samples.size(); ++i) {
        EXPECT_EQ(loaded.samples[i].true_floor, original.samples[i].true_floor);
        EXPECT_EQ(loaded.samples[i].device_id, original.samples[i].device_id);
        ASSERT_EQ(loaded.samples[i].observations.size(),
                  original.samples[i].observations.size());
        for (std::size_t j = 0; j < loaded.samples[i].observations.size(); ++j) {
            EXPECT_EQ(loaded.samples[i].observations[j].mac_id,
                      original.samples[i].observations[j].mac_id);
            // RSS values survive the text round-trip bit-exactly: the writer
            // emits shortest-round-trip text (std::to_chars), which is what
            // keeps a sharded corpus bit-identical to its in-memory source.
            EXPECT_EQ(loaded.samples[i].observations[j].rss_dbm,
                      original.samples[i].observations[j].rss_dbm);
        }
    }
}

// ---------- live ingestion: delta shards + manifest versioning ----------

TEST(corpus_manifest, version_and_delta_rows_round_trip) {
    corpus_manifest m;
    m.corpus_name = "city";
    m.shards.push_back({"shard-0000.csv", 0, 2});
    m.shards.push_back({"shard-0001.csv", 2, 1});
    m.version = 2;
    m.deltas.push_back({"delta-0001.csv", 1});
    m.deltas.push_back({"delta-0002.csv", 3});

    std::stringstream ss;
    save_manifest(m, ss);
    const corpus_manifest loaded = load_manifest(ss);
    EXPECT_EQ(loaded.corpus_name, "city");
    EXPECT_EQ(loaded.version, 2u);
    ASSERT_EQ(loaded.deltas.size(), 2u);
    EXPECT_EQ(loaded.deltas[0].filename, "delta-0001.csv");
    EXPECT_EQ(loaded.deltas[0].num_records, 1u);
    EXPECT_EQ(loaded.deltas[1].filename, "delta-0002.csv");
    EXPECT_EQ(loaded.deltas[1].num_records, 3u);
    EXPECT_EQ(loaded.total_buildings(), 3u);
}

TEST(corpus_manifest, write_once_store_keeps_version_zero_format) {
    // A version-0 manifest serialises without a version row — byte-stable
    // with pre-ingestion stores, so old fixtures keep loading.
    corpus_manifest m;
    m.corpus_name = "city";
    m.shards.push_back({"shard-0000.csv", 0, 2});
    std::stringstream ss;
    save_manifest(m, ss);
    EXPECT_EQ(ss.str().find("version"), std::string::npos) << ss.str();
    EXPECT_EQ(load_manifest(ss).version, 0u);
}

TEST(corpus_manifest, rejects_torn_version_delta_disagreement) {
    corpus_manifest m;
    m.corpus_name = "city";
    m.shards.push_back({"shard-0000.csv", 0, 2});

    // Version claims more appends than the delta rows list — torn.
    m.version = 2;
    m.deltas.push_back({"delta-0001.csv", 1});
    EXPECT_THROW(m.validate(), std::invalid_argument);

    // Delta rows without the version bump — equally torn.
    m.version = 0;
    EXPECT_THROW(m.validate(), std::invalid_argument);

    // An empty delta batch can never have been appended.
    m.version = 2;
    m.deltas.push_back({"delta-0002.csv", 0});
    EXPECT_THROW(m.validate(), std::invalid_argument);

    // A delta file colliding with a shard file would serve double content.
    m.deltas[1] = {"shard-0000.csv", 1};
    EXPECT_THROW(m.validate(), std::invalid_argument);

    // And the consistent shape passes.
    m.deltas[1] = {"delta-0002.csv", 1};
    EXPECT_NO_THROW(m.validate());
}

TEST(apply_delta_record, folds_scans_and_keeps_the_label_protocol) {
    building base = small_building();
    building record;
    record.name = "unit";
    record.num_floors = 3;  // the new scans reach a floor the base never saw
    record.num_macs = 4;
    record.samples.push_back({{{3, -48.0}}, 2, 9});
    record.samples.push_back({{{0, -51.0}}, 0, 9});
    record.labeled_sample = 0;  // a record's label must NOT replace the base's
    record.labeled_floor = 2;

    apply_delta_record(base, record);
    EXPECT_EQ(base.num_floors, 3u);
    EXPECT_EQ(base.num_macs, 4u);
    ASSERT_EQ(base.samples.size(), 5u);
    EXPECT_EQ(base.samples[3].true_floor, 2u);
    EXPECT_EQ(base.samples[4].observations[0].mac_id, 0u);
    EXPECT_EQ(base.labeled_sample, 0u);  // untouched
    EXPECT_EQ(base.labeled_floor, 0u);

    building stranger = small_building();
    stranger.name = "other";
    EXPECT_THROW(apply_delta_record(base, stranger), std::invalid_argument);
}

TEST(apply_delta_record, changes_the_content_hash) {
    // Dirty detection rides content_hash: folding new scans in must move it.
    building base = small_building();
    const std::uint64_t before = content_hash(base);
    building record;
    record.name = base.name;
    record.num_floors = base.num_floors;
    record.num_macs = base.num_macs;
    record.samples.push_back({{{1, -44.0}}, 1, 9});
    apply_delta_record(base, record);
    EXPECT_NE(content_hash(base), before);
}

namespace fs_test {

/// Tiny on-disk store fixture under /tmp, removed on destruction.
struct scoped_store {
    std::string dir;
    explicit scoped_store(const std::string& stem) {
        dir = "/tmp/" + stem + "-" + std::to_string(::getpid());
        std::filesystem::remove_all(dir);
    }
    ~scoped_store() {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
};

building named_building(const std::string& name, std::uint64_t seed) {
    fisone::sim::building_spec spec;
    spec.name = name;
    spec.num_floors = 2;
    spec.samples_per_floor = 6;
    spec.aps_per_floor = 4;
    spec.seed = seed;
    return fisone::sim::generate_building(spec).building;
}

}  // namespace fs_test

TEST(corpus_store, effective_view_merges_deltas_and_appends_new_buildings) {
    fs_test::scoped_store s("fisone-effective");
    corpus base;
    base.name = "city";
    base.buildings = {fs_test::named_building("a", 1), fs_test::named_building("b", 2)};
    write_corpus_store(base, s.dir, 1);

    // Hand-write one delta batch: new scans for "b" plus a new building "c"
    // (the data layer's contract; `ingest::append_scans` automates this).
    building touch;
    touch.name = "b";
    touch.num_floors = 2;
    touch.num_macs = 1;
    touch.samples.push_back({{{0, -42.0}}, 0, 9});
    touch.samples.push_back({{{0, -58.0}}, 1, 9});
    touch.labeled_sample = 0;
    touch.labeled_floor = 0;
    const building fresh = fs_test::named_building("c", 3);
    {
        shard_writer w(s.dir + "/delta-0001.csv");
        w.append(touch);
        w.append(fresh);
        w.close();
        corpus_manifest m = corpus_store::open(s.dir).manifest();
        m.version = 1;
        m.deltas.push_back({"delta-0001.csv", 2});
        std::ofstream f(manifest_path(s.dir), std::ios::trunc);
        save_manifest(m, f);
        f.close();
        ASSERT_TRUE(f.good());
    }

    const corpus_store store = corpus_store::open(s.dir);
    EXPECT_EQ(store.manifest().version, 1u);

    // The base view is untouched; the effective view folds the delta in and
    // appends "c" at the corpus tail.
    EXPECT_EQ(store.load_all().buildings.size(), 2u);
    std::vector<std::pair<std::size_t, std::string>> seen;
    store.for_each_building_effective([&](std::size_t index, building&& b) {
        seen.emplace_back(index, b.name);
        if (b.name == "b") {
            building merged = fs_test::named_building("b", 2);
            apply_delta_record(merged, touch);
            EXPECT_EQ(content_hash(b), content_hash(merged));
        }
        if (b.name == "a") {
            EXPECT_EQ(content_hash(b), content_hash(fs_test::named_building("a", 1)));
        }
    });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], (std::pair<std::size_t, std::string>{0, "a"}));
    EXPECT_EQ(seen[1], (std::pair<std::size_t, std::string>{1, "b"}));
    EXPECT_EQ(seen[2], (std::pair<std::size_t, std::string>{2, "c"}));

    const corpus effective = store.load_all_effective();
    ASSERT_EQ(effective.buildings.size(), 3u);
    EXPECT_EQ(effective.buildings[2].name, "c");
    EXPECT_EQ(content_hash(effective.buildings[2]), content_hash(fresh));
}

TEST(corpus_store, open_sweeps_leftover_manifest_tmp) {
    fs_test::scoped_store s("fisone-tmp-sweep");
    corpus base;
    base.name = "city";
    base.buildings = {fs_test::named_building("a", 1)};
    write_corpus_store(base, s.dir, 1);

    // A crash between writing manifest.csv.tmp and the rename leaves the
    // temp behind; by contract it was never visible, so the mount must
    // sweep it and serve the committed manifest.
    {
        std::ofstream junk(manifest_temp_path(s.dir));
        junk << "half a manifest";
    }
    ASSERT_TRUE(std::filesystem::exists(manifest_temp_path(s.dir)));
    const corpus_store store = corpus_store::open(s.dir);
    EXPECT_EQ(store.manifest().version, 0u);
    EXPECT_FALSE(std::filesystem::exists(manifest_temp_path(s.dir)));
}

namespace fs_test {

/// Land one delta batch by hand, the way `ingest::append_scans` does (minus
/// the crash-safety steps the data layer does not need here).
void write_delta(const std::string& dir, const std::vector<building>& records) {
    corpus_manifest m = corpus_store::open(dir).manifest();
    const std::string file = "delta-" + std::to_string(m.version + 1) + ".csv";
    shard_writer w(dir + "/" + file);
    for (const building& r : records) w.append(r);
    w.close();
    m.version += 1;
    m.deltas.push_back({file, records.size()});
    std::ofstream f(manifest_path(dir), std::ios::trunc);
    save_manifest(m, f);
    f.close();
    ASSERT_TRUE(f.good());
}

void expect_same_building(const building& got, const building& want, const std::string& where) {
    EXPECT_EQ(got.name, want.name) << where;
    EXPECT_EQ(got.num_floors, want.num_floors) << where;
    EXPECT_EQ(got.num_macs, want.num_macs) << where;
    EXPECT_EQ(got.labeled_sample, want.labeled_sample) << where;
    EXPECT_EQ(got.labeled_floor, want.labeled_floor) << where;
    ASSERT_EQ(got.samples.size(), want.samples.size()) << where;
    for (std::size_t i = 0; i < got.samples.size(); ++i) {
        const rf_sample& g = got.samples[i];
        const rf_sample& w = want.samples[i];
        EXPECT_EQ(g.true_floor, w.true_floor) << where << " sample " << i;
        EXPECT_EQ(g.device_id, w.device_id) << where << " sample " << i;
        ASSERT_EQ(g.observations.size(), w.observations.size()) << where << " sample " << i;
        for (std::size_t k = 0; k < g.observations.size(); ++k) {
            EXPECT_EQ(g.observations[k].mac_id, w.observations[k].mac_id) << where;
            EXPECT_EQ(g.observations[k].rss_dbm, w.observations[k].rss_dbm) << where;
        }
    }
    EXPECT_EQ(content_hash(got), content_hash(want)) << where;
}

/// Every index of \p store's effective view, read on its own and by name,
/// equals what the streaming view yields there; one past the end misses.
void expect_reads_match_stream(const corpus_store& store, const std::string& stage) {
    std::size_t count = 0;
    store.for_each_building_effective([&](std::size_t index, building&& want) {
        const std::string where = stage + ", index " + std::to_string(index);
        const std::optional<building> by_index = store.read_effective(index);
        ASSERT_TRUE(by_index.has_value()) << where;
        expect_same_building(*by_index, want, where);
        const std::optional<located_building> by_name = store.read_effective(want.name);
        ASSERT_TRUE(by_name.has_value()) << where;
        EXPECT_EQ(by_name->index, index) << where;
        expect_same_building(by_name->b, want, where + " (by name)");
        ++count;
    });
    EXPECT_FALSE(store.read_effective(count).has_value()) << stage;
}

}  // namespace fs_test

TEST(corpus_store, per_building_reads_equal_the_streamed_effective_view) {
    fs_test::scoped_store s("fisone-per-building");
    corpus base;
    base.name = "city";
    for (const char* name : {"a", "b", "c", "d", "e"})
        base.buildings.push_back(fs_test::named_building(name, base.buildings.size() + 1));
    write_corpus_store(base, s.dir, 2);  // three shards: [a b] [c d] [e]

    // A handle opened before any append; its block index is built now and
    // must carry over through every reopen below.
    corpus_store carried = corpus_store::open(s.dir);
    fs_test::expect_reads_match_stream(carried, "base only");

    const std::vector<std::vector<building>> batches = {
        // "b" gains scans; "x" is new; "c" gains scans.
        {fs_test::named_building("b", 20), fs_test::named_building("x", 21),
         fs_test::named_building("c", 22)},
        // "b" again (a name appended in two batches), "x" again (a new
        // building appended twice), "y" new, "e" twice in one batch.
        {fs_test::named_building("b", 30), fs_test::named_building("y", 31),
         fs_test::named_building("x", 32), fs_test::named_building("e", 33),
         fs_test::named_building("e", 34)},
        // "y" again and the first base building.
        {fs_test::named_building("y", 40), fs_test::named_building("a", 41)},
    };
    for (std::size_t k = 0; k < batches.size(); ++k) {
        fs_test::write_delta(s.dir, batches[k]);
        const std::string stage = "after batch " + std::to_string(k + 1);
        carried = carried.reopen();
        EXPECT_EQ(carried.manifest().version, k + 1);
        fs_test::expect_reads_match_stream(carried, stage + " (reopened)");
        fs_test::expect_reads_match_stream(corpus_store::open(s.dir), stage + " (fresh)");
    }

    // The new names sit at the tail in first-appearance order.
    ASSERT_TRUE(carried.read_effective("x").has_value());
    EXPECT_EQ(carried.read_effective("x")->index, 5u);
    EXPECT_EQ(carried.read_effective("y")->index, 6u);

    // Misses are typed, not exceptions.
    EXPECT_FALSE(carried.read_effective(std::string("no-such-building")).has_value());
    EXPECT_FALSE(carried.read_effective(std::size_t{7}).has_value());
    EXPECT_FALSE(carried.read_effective(std::size_t{1000}).has_value());
}

TEST(corpus_store, per_building_read_of_a_truncated_block_throws) {
    fs_test::scoped_store s("fisone-per-building-torn");
    corpus base;
    base.name = "city";
    base.buildings = {fs_test::named_building("a", 1), fs_test::named_building("b", 2)};
    write_corpus_store(base, s.dir, 2);

    const corpus_store indexed = corpus_store::open(s.dir);
    ASSERT_TRUE(indexed.read_effective(std::size_t{0}).has_value());  // builds the index

    // Cut the shard inside its last block: "b" loses its `end` marker.
    const std::string shard = indexed.shard_path(0);
    const auto size = std::filesystem::file_size(shard);
    std::filesystem::resize_file(shard, size - 20);

    // A handle whose index predates the damage seeks into the torn block;
    // a fresh handle meets it while building its index.
    EXPECT_THROW((void)indexed.read_effective(std::size_t{1}), std::invalid_argument);
    EXPECT_THROW((void)corpus_store::open(s.dir).read_effective(std::size_t{0}),
                 std::invalid_argument);
    EXPECT_THROW((void)corpus_store::open(s.dir).read_effective(std::string("a")),
                 std::invalid_argument);
}

// ---------- matrix view ----------

TEST(rss_matrix, fills_missing_and_keeps_strongest) {
    building b = small_building();
    b.samples[0].observations.push_back({0, -35.0});  // duplicate mac, stronger
    const auto m = to_rss_matrix(b, -120.0);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(0, 0), -35.0);   // strongest duplicate wins
    EXPECT_DOUBLE_EQ(m(0, 1), -60.0);
    EXPECT_DOUBLE_EQ(m(0, 2), -120.0);  // missing
    EXPECT_DOUBLE_EQ(m(1, 2), -70.0);
}

TEST(rss_matrix, custom_fill_value) {
    const auto m = to_rss_matrix(small_building(), -100.0);
    EXPECT_DOUBLE_EQ(m(0, 2), -100.0);
}

}  // namespace
