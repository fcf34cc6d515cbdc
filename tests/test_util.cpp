// Tests for src/util: RNG, alias sampler, streaming stats, CSV, CLI.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "util/alias_sampler.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace fisone::util;

// ---------- rng ----------

TEST(rng, deterministic_for_same_seed) {
    rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(rng, different_seeds_diverge) {
    rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 32; ++i)
        if (a() != b()) ++differing;
    EXPECT_GT(differing, 30);
}

TEST(rng, uniform_in_unit_interval) {
    rng gen(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = gen.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(rng, uniform_range_respected) {
    rng gen(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = gen.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(rng, uniform_index_covers_all_values) {
    rng gen(3);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 6000; ++i) ++counts[gen.uniform_index(6)];
    ASSERT_EQ(counts.size(), 6u);
    for (const auto& [value, count] : counts) {
        EXPECT_LT(value, 6u);
        EXPECT_GT(count, 800);  // roughly uniform
        EXPECT_LT(count, 1200);
    }
}

TEST(rng, uniform_index_zero_throws) {
    rng gen(3);
    EXPECT_THROW((void)gen.uniform_index(0), std::invalid_argument);
}

// A prepared range's remainder is exactly r % n, at the edges of r and for
// n from 1 to near 2^64, and its draws are uniform_index(n)'s.
TEST(rng, index_range_matches_uniform_index) {
    rng values(41);
    std::vector<std::uint64_t> sizes{1, 2, 3, 5, 7, 12, 16, 37, 100, 1000003,
                                     std::uint64_t{1} << 32, (std::uint64_t{1} << 32) + 1,
                                     std::uint64_t{1} << 63, ~std::uint64_t{0} - 1,
                                     ~std::uint64_t{0}};
    for (int i = 0; i < 40; ++i) sizes.push_back(values() >> (values() % 64));
    for (const std::uint64_t n : sizes) {
        if (n == 0) continue;
        const rng::index_range range(n);
        EXPECT_EQ(range.size(), n);
        for (const std::uint64_t r : {std::uint64_t{0}, std::uint64_t{1}, n - 1, n, n + 1, 2 * n,
                                      ~std::uint64_t{0}, ~std::uint64_t{0} - n})
            EXPECT_EQ(range.reduce(r), r % n) << "n " << n << " r " << r;
        for (int i = 0; i < 200; ++i) {
            const std::uint64_t r = values();
            ASSERT_EQ(range.reduce(r), r % n) << "n " << n << " r " << r;
        }
        rng a(7), b(7);
        for (int i = 0; i < 50; ++i) ASSERT_EQ(a.uniform_index(range), b.uniform_index(n));
        EXPECT_EQ(a(), b());
    }
    EXPECT_THROW(rng::index_range(0), std::invalid_argument);
}

TEST(rng, normal_has_right_moments) {
    rng gen(11);
    running_stats s;
    for (int i = 0; i < 50000; ++i) s.add(gen.normal());
    EXPECT_NEAR(s.mean(), 0.0, 0.03);
    EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(rng, normal_with_params) {
    rng gen(11);
    running_stats s;
    for (int i = 0; i < 50000; ++i) s.add(gen.normal(5.0, 2.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(rng, bernoulli_probability) {
    rng gen(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        if (gen.bernoulli(0.3)) ++hits;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(rng, split_streams_are_independent) {
    rng parent(5);
    rng child = parent.split();
    // child's next outputs should not replicate parent's
    int same = 0;
    for (int i = 0; i < 16; ++i)
        if (parent() == child()) ++same;
    EXPECT_LT(same, 2);
}

TEST(rng, shuffle_is_permutation) {
    rng gen(9);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto copy = v;
    gen.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, copy);
}

// ---------- alias sampler ----------

TEST(alias_sampler, matches_distribution) {
    rng gen(21);
    const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
    alias_sampler sampler(weights);
    std::vector<int> counts(4, 0);
    const int draws = 100000;
    for (int i = 0; i < draws; ++i) ++counts[sampler.sample(gen)];
    for (std::size_t j = 0; j < 4; ++j) {
        const double expected = weights[j] / 10.0;
        EXPECT_NEAR(counts[j] / static_cast<double>(draws), expected, 0.01)
            << "category " << j;
    }
}

TEST(alias_sampler, single_category) {
    rng gen(2);
    alias_sampler sampler(std::vector<double>{5.0});
    for (int i = 0; i < 10; ++i) EXPECT_EQ(sampler.sample(gen), 0u);
}

TEST(alias_sampler, zero_weight_never_sampled) {
    rng gen(2);
    alias_sampler sampler(std::vector<double>{1.0, 0.0, 1.0});
    for (int i = 0; i < 5000; ++i) EXPECT_NE(sampler.sample(gen), 1u);
}

TEST(alias_sampler, rejects_bad_inputs) {
    EXPECT_THROW(alias_sampler(std::vector<double>{}), std::invalid_argument);
    EXPECT_THROW(alias_sampler(std::vector<double>{1.0, -0.5}), std::invalid_argument);
    EXPECT_THROW(alias_sampler(std::vector<double>{0.0, 0.0}), std::invalid_argument);
}

TEST(alias_sampler, default_constructed_throws_on_sample) {
    rng gen(2);
    alias_sampler sampler;
    EXPECT_EQ(sampler.size(), 0u);
    EXPECT_THROW((void)sampler.sample(gen), std::logic_error);
}

// ---------- running stats ----------

TEST(running_stats, basic_moments) {
    running_stats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(running_stats, empty_behaviour) {
    running_stats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_THROW((void)s.min(), std::logic_error);
    EXPECT_THROW((void)s.max(), std::logic_error);
}

TEST(running_stats, merge_equals_combined) {
    running_stats a, b, combined;
    rng gen(1);
    for (int i = 0; i < 500; ++i) {
        const double x = gen.normal(3.0, 2.0);
        (i % 2 == 0 ? a : b).add(x);
        combined.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), combined.min());
    EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(running_stats, merge_with_empty) {
    running_stats a, empty;
    a.add(1.0);
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 2u);
}

TEST(stats_helpers, mean_and_stddev) {
    EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(stddev_of({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.0, 1e-12);
    EXPECT_THROW((void)mean_of({}), std::invalid_argument);
}

TEST(stats_helpers, nearest_rank_percentile) {
    const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};  // unsorted on purpose
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 90.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
    // 20% of 5 observations is exactly the first rank.
    EXPECT_DOUBLE_EQ(percentile(xs, 20.0), 1.0);
    EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
    EXPECT_THROW((void)percentile(xs, -1.0), std::invalid_argument);
    EXPECT_THROW((void)percentile(xs, 101.0), std::invalid_argument);
    EXPECT_THROW((void)percentile(xs, std::nan("")), std::invalid_argument);
}

// ---------- csv ----------

TEST(csv, split_and_trim) {
    const auto fields = split_fields(" a , b ,, c ");
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "b");
    EXPECT_EQ(fields[2], "");
    EXPECT_EQ(fields[3], "c");
}

TEST(csv, join_roundtrip) {
    const std::vector<std::string> fields{"x", "y", "z"};
    EXPECT_EQ(join_fields(fields), "x,y,z");
    EXPECT_EQ(split_fields(join_fields(fields)), fields);
}

TEST(csv, parse_numbers) {
    EXPECT_DOUBLE_EQ(parse_double("-61.5"), -61.5);
    EXPECT_EQ(parse_int("42"), 42);
    EXPECT_EQ(parse_int("-7"), -7);
    EXPECT_THROW((void)parse_double("abc"), std::invalid_argument);
    EXPECT_THROW((void)parse_int("12.5"), std::invalid_argument);
    EXPECT_THROW((void)parse_int(""), std::invalid_argument);
}

TEST(csv, trim_edge_cases) {
    EXPECT_EQ(trim("  hi  "), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

// ---------- table printer ----------

TEST(table_printer, renders_aligned_rows) {
    table_printer t("caption");
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"b", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("caption"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(table_printer, mean_std_format) {
    EXPECT_EQ(table_printer::mean_std(0.8564, 0.0861), "0.856(0.086)");
    EXPECT_EQ(table_printer::num(0.25, 2), "0.25");
}

// ---------- cli ----------

TEST(cli, parses_flags_and_values) {
    const char* argv[] = {"prog", "--buildings", "16", "--full", "--rate", "0.5"};
    cli_args args(6, argv);
    EXPECT_TRUE(args.has("buildings"));
    EXPECT_TRUE(args.has("full"));
    EXPECT_FALSE(args.has("missing"));
    EXPECT_EQ(args.get_int("buildings", 0), 16);
    EXPECT_EQ(args.get_int("absent", 3), 3);
    EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.5);
    EXPECT_EQ(args.get("absent", "x"), "x");
}

TEST(cli, rejects_positional) {
    const char* argv[] = {"prog", "stray"};
    EXPECT_THROW(cli_args(2, argv), std::invalid_argument);
}

}  // namespace
