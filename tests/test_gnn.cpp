// Tests for src/gnn: RF-GNN construction, training dynamics, embedding
// geometry (same-floor proximity), attention ablation, inductive inference,
// golden bits of the config branches, and the minibatch allocation budget.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "autodiff/tape.hpp"
#include "gnn/rf_gnn.hpp"
#include "graph/bipartite_graph.hpp"
#include "linalg/matrix.hpp"
#include "sim/building_generator.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"

// Counting global allocator: every replaceable operator new bumps
// `g_allocs` while `g_counting` is set (only inside the allocation test),
// so a test can assert how many heap allocations a call makes.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (n == 0) n = 1;
    void* p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
    return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
    return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace fisone;

/// Small but realistic building shared by the expensive tests.
const data::building& test_building() {
    static const data::building b = [] {
        sim::building_spec spec;
        spec.num_floors = 3;
        spec.samples_per_floor = 60;
        spec.aps_per_floor = 12;
        spec.model.path_loss_exponent = 3.3;
        spec.floor_width_m = 60.0;
        spec.floor_depth_m = 40.0;
        spec.seed = 41;
        return sim::generate_building(spec).building;
    }();
    return b;
}

gnn::rf_gnn_config fast_config() {
    gnn::rf_gnn_config cfg;
    cfg.embedding_dim = 16;
    cfg.epochs = 4;
    cfg.walks.walks_per_node = 3;
    cfg.seed = 5;
    return cfg;
}

TEST(rf_gnn, rejects_degenerate_configs) {
    const auto g = graph::bipartite_graph::from_building(test_building());
    gnn::rf_gnn_config cfg;
    cfg.embedding_dim = 0;
    EXPECT_THROW(gnn::rf_gnn(g, cfg), std::invalid_argument);
    cfg = gnn::rf_gnn_config{};
    cfg.num_hops = 0;
    EXPECT_THROW(gnn::rf_gnn(g, cfg), std::invalid_argument);
    cfg = gnn::rf_gnn_config{};
    cfg.neighbor_samples = 0;
    EXPECT_THROW(gnn::rf_gnn(g, cfg), std::invalid_argument);
    // Rejected at construction, not at the first epoch.
    cfg = gnn::rf_gnn_config{};
    cfg.batch_pairs = 0;
    EXPECT_THROW(gnn::rf_gnn(g, cfg), std::invalid_argument);
    cfg = gnn::rf_gnn_config{};
    cfg.walks.walk_length = 1;
    EXPECT_THROW(gnn::rf_gnn(g, cfg), std::invalid_argument);
    cfg = gnn::rf_gnn_config{};
    cfg.walks.window = 0;
    EXPECT_THROW(gnn::rf_gnn(g, cfg), std::invalid_argument);
    // Zero walks yield no pairs, so train() would leave every parameter as is.
    cfg = gnn::rf_gnn_config{};
    cfg.walks.walks_per_node = 0;
    EXPECT_THROW(gnn::rf_gnn(g, cfg), std::invalid_argument);
}

TEST(rf_gnn, parameter_shapes) {
    const auto g = graph::bipartite_graph::from_building(test_building());
    gnn::rf_gnn_config cfg = fast_config();
    cfg.num_hops = 3;
    gnn::rf_gnn model(g, cfg);
    EXPECT_EQ(model.base_embeddings().rows(), g.num_nodes());
    EXPECT_EQ(model.base_embeddings().cols(), cfg.embedding_dim);
    ASSERT_EQ(model.hop_weights().size(), 3u);
    for (const auto& w : model.hop_weights()) {
        EXPECT_EQ(w.rows(), 2 * cfg.embedding_dim);
        EXPECT_EQ(w.cols(), cfg.embedding_dim);
    }
}

TEST(rf_gnn, embeddings_are_unit_rows) {
    const auto g = graph::bipartite_graph::from_building(test_building());
    gnn::rf_gnn model(g, fast_config());
    model.train_epoch();
    const auto emb = model.embed_samples();
    EXPECT_EQ(emb.rows(), g.num_samples());
    for (std::size_t i = 0; i < emb.rows(); ++i)
        EXPECT_NEAR(linalg::norm2(emb.row(i)), 1.0, 1e-9);
}

TEST(rf_gnn, training_moves_loss_below_random_baseline) {
    const auto g = graph::bipartite_graph::from_building(test_building());
    gnn::rf_gnn_config cfg = fast_config();
    cfg.epochs = 6;
    gnn::rf_gnn model(g, cfg);
    double last = 0.0;
    for (std::size_t e = 0; e < cfg.epochs; ++e) last = model.train_epoch();
    // Random unit vectors give E[loss] = (1+τ)·log 2 ≈ 3.47 for τ = 4.
    const double random_baseline = (1.0 + static_cast<double>(cfg.negatives)) * std::log(2.0);
    EXPECT_LT(last, random_baseline);
}

TEST(rf_gnn, training_is_deterministic_per_seed) {
    const auto g = graph::bipartite_graph::from_building(test_building());
    gnn::rf_gnn a(g, fast_config());
    gnn::rf_gnn b(g, fast_config());
    a.train();
    b.train();
    const auto ea = a.embed_samples();
    const auto eb = b.embed_samples();
    for (std::size_t i = 0; i < ea.size(); ++i)
        EXPECT_DOUBLE_EQ(ea.flat()[i], eb.flat()[i]);
}

TEST(rf_gnn, same_floor_samples_are_closer) {
    const auto& building = test_building();
    const auto g = graph::bipartite_graph::from_building(building);
    gnn::rf_gnn_config cfg = fast_config();
    cfg.epochs = 8;
    gnn::rf_gnn model(g, cfg);
    model.train();
    const auto emb = model.embed_samples();

    util::running_stats same, cross;
    util::rng gen(17);
    for (int t = 0; t < 4000; ++t) {
        const std::size_t i = gen.uniform_index(emb.rows());
        const std::size_t j = gen.uniform_index(emb.rows());
        if (i == j) continue;
        const double d = linalg::euclidean_distance(emb.row(i), emb.row(j));
        if (building.samples[i].true_floor == building.samples[j].true_floor)
            same.add(d);
        else
            cross.add(d);
    }
    EXPECT_LT(same.mean(), cross.mean());
}

TEST(rf_gnn, attention_beats_uniform_on_floor_separation) {
    // The Fig. 8(a,b) ablation at unit-test scale: the margin between
    // cross-floor and same-floor distances should be larger with attention.
    const auto& building = test_building();
    const auto g = graph::bipartite_graph::from_building(building);

    auto separation = [&](bool attention) {
        gnn::rf_gnn_config cfg = fast_config();
        cfg.use_attention = attention;
        cfg.epochs = 8;
        gnn::rf_gnn model(g, cfg);
        model.train();
        const auto emb = model.embed_samples();
        util::running_stats same, cross;
        util::rng gen(18);
        for (int t = 0; t < 4000; ++t) {
            const std::size_t i = gen.uniform_index(emb.rows());
            const std::size_t j = gen.uniform_index(emb.rows());
            if (i == j) continue;
            const double d = linalg::euclidean_distance(emb.row(i), emb.row(j));
            (building.samples[i].true_floor == building.samples[j].true_floor ? same : cross)
                .add(d);
        }
        return cross.mean() - same.mean();
    };
    EXPECT_GT(separation(true), separation(false));
}

TEST(rf_gnn, inductive_embedding_close_to_transductive) {
    // Embed a scan that IS in the graph via the inductive path and compare
    // with its transductive embedding. They correlate strongly but are not
    // identical: the inductive path synthesises the base vector from MAC
    // embeddings instead of the node's trained base vector.
    const auto& building = test_building();
    const auto g = graph::bipartite_graph::from_building(building);
    gnn::rf_gnn model(g, fast_config());
    model.train();
    const auto emb = model.embed_samples();

    util::running_stats agreement;
    for (std::size_t i = 0; i < 20; ++i) {
        const auto inductive = model.embed_new_sample(building.samples[i].observations);
        agreement.add(linalg::cosine_similarity(inductive, emb.row(i)));
    }
    EXPECT_GT(agreement.mean(), 0.45);
}

TEST(rf_gnn, inductive_embedding_lands_near_true_floor) {
    const auto& building = test_building();
    const auto g = graph::bipartite_graph::from_building(building);
    gnn::rf_gnn_config cfg = fast_config();
    cfg.epochs = 8;
    gnn::rf_gnn model(g, cfg);
    model.train();
    const auto emb = model.embed_samples();

    // Synthesize a "new" scan by perturbing an existing one's RSS slightly.
    int correct = 0;
    const int trials = 30;
    util::rng gen(19);
    for (int t = 0; t < trials; ++t) {
        const std::size_t src = gen.uniform_index(building.samples.size());
        auto obs = building.samples[src].observations;
        for (auto& o : obs) o.rss_dbm = std::max(-110.0, o.rss_dbm + gen.normal(0.0, 1.0));
        const auto rep = model.embed_new_sample(obs);
        // nearest existing sample
        std::size_t best = 0;
        double best_d = 1e18;
        for (std::size_t i = 0; i < emb.rows(); ++i) {
            const double d = linalg::squared_distance(rep, emb.row(i));
            if (d < best_d) {
                best_d = d;
                best = i;
            }
        }
        if (building.samples[best].true_floor == building.samples[src].true_floor) ++correct;
    }
    EXPECT_GE(correct, trials * 8 / 10);
}

TEST(rf_gnn, inductive_rejects_unknown_macs_only) {
    const auto g = graph::bipartite_graph::from_building(test_building());
    gnn::rf_gnn model(g, fast_config());
    model.train_epoch();
    std::vector<data::rf_observation> unknown{{9999, -50.0}};
    EXPECT_THROW((void)model.embed_new_sample(unknown), std::invalid_argument);
    // mixed known/unknown works
    std::vector<data::rf_observation> mixed{{9999, -50.0}, {0, -60.0}};
    EXPECT_NO_THROW((void)model.embed_new_sample(mixed));
}

TEST(rf_gnn, activation_variants_run) {
    const auto g = graph::bipartite_graph::from_building(test_building());
    for (const auto act : {gnn::activation::tanh, gnn::activation::relu,
                           gnn::activation::sigmoid}) {
        gnn::rf_gnn_config cfg = fast_config();
        cfg.act = act;
        cfg.epochs = 1;
        gnn::rf_gnn model(g, cfg);
        EXPECT_NO_THROW(model.train());
        EXPECT_EQ(model.embed_samples().rows(), g.num_samples());
    }
}

TEST(rf_gnn, frozen_base_embeddings_do_not_move) {
    const auto g = graph::bipartite_graph::from_building(test_building());
    gnn::rf_gnn_config cfg = fast_config();
    cfg.train_base_embeddings = false;
    cfg.epochs = 2;
    gnn::rf_gnn model(g, cfg);
    const auto before = model.base_embeddings();
    model.train();
    EXPECT_EQ(model.base_embeddings(), before);
}

// Golden bits for the config branches the quick-profile golden in
// test_core never reaches. Each digest hashes every node's embedding after
// train(), so a change to the RNG draw order, the weight normalisation,
// the accumulation order or the numerics (linalg/numerics.hpp) fails here.
std::uint64_t trained_digest(const gnn::rf_gnn_config& cfg) {
    const auto g = graph::bipartite_graph::from_building(test_building());
    gnn::rf_gnn model(g, cfg);
    model.train();
    const auto& emb = model.embed_all_nodes();
    util::fnv1a64 h;
    h.size(emb.rows());
    h.size(emb.cols());
    for (const double x : emb.flat()) h.f64(x);
    return h.digest();
}

TEST(rf_gnn_golden, uniform_aggregation) {
    gnn::rf_gnn_config cfg = fast_config();
    cfg.use_attention = false;
    EXPECT_EQ(trained_digest(cfg), 0xd25fa1f29bfff8f6ULL);
}

TEST(rf_gnn_golden, frozen_base) {
    gnn::rf_gnn_config cfg = fast_config();
    cfg.train_base_embeddings = false;
    EXPECT_EQ(trained_digest(cfg), 0x66bf4cc23b798268ULL);
}

TEST(rf_gnn_golden, no_negatives) {
    gnn::rf_gnn_config cfg = fast_config();
    cfg.negatives = 0;
    EXPECT_EQ(trained_digest(cfg), 0xf773e9ab96dad77aULL);
}

TEST(rf_gnn_golden, relu_activation) {
    gnn::rf_gnn_config cfg = fast_config();
    cfg.act = gnn::activation::relu;
    EXPECT_EQ(trained_digest(cfg), 0xc06405fc20e12532ULL);
}

TEST(rf_gnn_golden, sigmoid_activation) {
    gnn::rf_gnn_config cfg = fast_config();
    cfg.act = gnn::activation::sigmoid;
    EXPECT_EQ(trained_digest(cfg), 0x56ec5bf69534f7e9ULL);
}

TEST(rf_gnn_golden, one_hop) {
    gnn::rf_gnn_config cfg = fast_config();
    cfg.num_hops = 1;
    EXPECT_EQ(trained_digest(cfg), 0xe256691563174242ULL);
}

TEST(rf_gnn_golden, three_hops) {
    gnn::rf_gnn_config cfg = fast_config();
    cfg.num_hops = 3;
    EXPECT_EQ(trained_digest(cfg), 0x6abf279a4a52e81fULL);
}

// Bit patterns of the first three train_epoch() returns. train() skips
// the loss value, so the digests above never see it.
std::vector<std::uint64_t> epoch_loss_bits(const gnn::rf_gnn_config& cfg) {
    const auto g = graph::bipartite_graph::from_building(test_building());
    gnn::rf_gnn model(g, cfg);
    std::vector<std::uint64_t> bits;
    for (int e = 0; e < 3; ++e) bits.push_back(std::bit_cast<std::uint64_t>(model.train_epoch()));
    return bits;
}

TEST(rf_gnn_golden, epoch_losses) {
    EXPECT_EQ(epoch_loss_bits(fast_config()),
              (std::vector<std::uint64_t>{0x400c58234de794a2ULL,
                                          0x400c0ebccaa547e2ULL,
                                          0x400bd2d642f40b89ULL}));
    gnn::rf_gnn_config no_negatives = fast_config();
    no_negatives.negatives = 0;
    EXPECT_EQ(epoch_loss_bits(no_negatives),
              (std::vector<std::uint64_t>{0x3fdce5eec999ee87ULL,
                                          0x3fd4192d656a3bbbULL,
                                          0x3fd40e61c3c6635bULL}));
}

// ---- the fused training step against the autodiff tape ----

/// A random minibatch assembled the way rf_gnn assembles one: targets
/// interned from the pairs then the negatives, each lower layer the upper
/// one plus `samples` sampled neighbours per row in first-seen order, and
/// each row's weights normalised (f(RSS)-like or uniform).
gnn::rf_gnn_batch random_batch(util::rng& gen, std::size_t nodes, std::size_t pairs,
                               std::size_t tau, std::size_t hops, std::size_t samples,
                               bool attention) {
    gnn::rf_gnn_batch b;
    b.layers.resize(hops + 1);
    b.self.resize(hops + 1);
    b.hoods.resize(hops + 1);
    std::vector<std::int64_t> pos(nodes, -1);  // node -> position in the layer being built
    auto intern = [&](std::vector<std::uint32_t>& layer, std::size_t node) {
        if (pos[node] < 0) {
            pos[node] = static_cast<std::int64_t>(layer.size());
            layer.push_back(static_cast<std::uint32_t>(node));
        }
        return static_cast<std::uint32_t>(pos[node]);
    };
    for (std::size_t i = 0; i < pairs; ++i) {
        b.left.push_back(intern(b.layers[hops], gen.uniform_index(nodes)));
        b.right.push_back(intern(b.layers[hops], gen.uniform_index(nodes)));
    }
    for (std::size_t r = 0; r < pairs * tau; ++r)
        b.negatives.push_back(intern(b.layers[hops], gen.uniform_index(nodes)));
    for (std::size_t k = hops; k >= 1; --k) {
        pos.assign(nodes, -1);
        for (const std::uint32_t node : b.layers[k]) {
            b.self[k].push_back(intern(b.layers[k - 1], node));
            double total = 0.0;
            for (std::size_t s = 0; s < samples; ++s) {
                const double w = gen.uniform(1.0, 60.0);
                b.hoods[k].terms.push_back({intern(b.layers[k - 1], gen.uniform_index(nodes)), w});
                total += w;
            }
            for (std::size_t s = b.hoods[k].terms.size() - samples; s < b.hoods[k].terms.size();
                 ++s) {
                double& w = b.hoods[k].terms[s].weight;
                w = attention ? w / total : 1.0 / static_cast<double>(samples);
            }
            b.hoods[k].end_row();
        }
    }
    return b;
}

struct tape_step_result {
    double loss = 0.0;
    linalg::matrix base_grad;
    std::vector<linalg::matrix> weight_grads;
};

/// The RF-GNN skip-gram step recorded on the general autodiff tape: gather,
/// weighted sum, concat, matmul, σ and L2 normalisation per hop, then the
/// negative-sampling loss. This is the oracle for gnn::rf_gnn_step.
tape_step_result tape_step(const gnn::rf_gnn_batch& b, const linalg::matrix& base,
                           const std::vector<linalg::matrix>& weights, gnn::activation act,
                           bool train_base) {
    using autodiff::var;
    const auto indices = [](const std::vector<std::uint32_t>& v) {
        return std::vector<std::size_t>(v.begin(), v.end());
    };
    const std::size_t tau = b.negatives.size() / b.left.size();
    autodiff::tape t;
    const var base_var = train_base ? t.parameter(base) : t.constant(base);
    std::vector<var> weight_vars;
    for (const linalg::matrix& w : weights) weight_vars.push_back(t.parameter(w));

    var h = t.gather_rows(base_var, indices(b.layers[0]));
    for (std::size_t k = 1; k <= weights.size(); ++k) {
        const var self_prev = t.gather_rows(h, indices(b.self[k]));
        const var agg = t.weighted_sum_rows(h, b.hoods[k]);
        const var cat = t.concat_cols(self_prev, agg);
        var z = t.matmul(cat, weight_vars[k - 1]);
        switch (act) {
            case gnn::activation::tanh: z = t.tanh_act(z); break;
            case gnn::activation::relu: z = t.relu(z); break;
            case gnn::activation::sigmoid: z = t.sigmoid(z); break;
        }
        h = t.l2_normalize_rows(z);
    }

    // Separate statements: the recording order is the backward's order.
    const var left_rows = t.gather_rows(h, indices(b.left));
    const var right_rows = t.gather_rows(h, indices(b.right));
    var loss = t.negate(t.mean_all(t.log_sigmoid(t.row_dot(left_rows, right_rows))));
    if (tau > 0) {
        std::vector<std::size_t> left_rep;
        for (const std::uint32_t l : b.left) left_rep.insert(left_rep.end(), tau, l);
        const var left_rep_rows = t.gather_rows(h, std::move(left_rep));
        const var neg_rows = t.gather_rows(h, indices(b.negatives));
        const var neg_scores = t.row_dot(left_rep_rows, neg_rows);
        loss = t.add(loss, t.scale(t.mean_all(t.log_sigmoid(t.negate(neg_scores))),
                                   -static_cast<double>(tau)));
    }
    t.backward(loss);

    tape_step_result r;
    r.loss = t.value(loss)(0, 0);
    if (train_base) r.base_grad = t.grad(base_var);
    for (const var w : weight_vars) r.weight_grads.push_back(t.grad(w));
    return r;
}

/// Equal shapes and equal bit patterns (so +0.0 ≠ −0.0 and NaN == NaN).
bool same_bits(const linalg::matrix& a, const linalg::matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::bit_cast<std::uint64_t>(a.flat()[i]) != std::bit_cast<std::uint64_t>(b.flat()[i]))
            return false;
    return true;
}

/// Random parameters and two random batches of different sizes through one
/// step object (so stale reused buffers would show), each compared with
/// the tape: the loss and every gradient, bit for bit.
void expect_step_matches_tape(util::rng& gen, gnn::activation act, bool attention,
                              std::size_t tau, bool train_base, std::size_t hops,
                              std::size_t d = 6) {
    constexpr std::size_t nodes = 50, samples = 3;
    linalg::matrix base(nodes, d);
    for (double& x : base.flat()) x = gen.normal(0.0, 0.5);
    std::vector<linalg::matrix> weights;
    for (std::size_t k = 0; k < hops; ++k) {
        linalg::matrix w(2 * d, d);
        for (double& x : w.flat()) x = gen.normal(0.0, 0.6);
        weights.push_back(std::move(w));
    }
    gnn::rf_gnn_step step;
    for (const std::size_t pairs : {std::size_t{12}, std::size_t{5}}) {
        SCOPED_TRACE(::testing::Message()
                     << "act " << static_cast<int>(act) << " attention " << attention << " tau "
                     << tau << " train_base " << train_base << " hops " << hops << " pairs "
                     << pairs << " d " << d);
        const gnn::rf_gnn_batch b = random_batch(gen, nodes, pairs, tau, hops, samples, attention);
        const tape_step_result want = tape_step(b, base, weights, act, train_base);
        for (const bool with_loss : {true, false}) {
            const double loss = step.run(b, base, weights, act, train_base, with_loss, nullptr);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(loss),
                      std::bit_cast<std::uint64_t>(with_loss ? want.loss : 0.0));
            if (train_base) {
                EXPECT_TRUE(same_bits(step.base_grad(), want.base_grad));
            }
            ASSERT_EQ(step.weight_grads().size(), hops);
            for (std::size_t k = 0; k < hops; ++k) {
                EXPECT_TRUE(same_bits(step.weight_grads()[k], want.weight_grads[k])) << "W" << k;
            }
        }
    }
}

TEST(rf_gnn_step, matches_the_tape_bit_for_bit) {
    util::rng gen(2024);
    for (const auto act :
         {gnn::activation::tanh, gnn::activation::relu, gnn::activation::sigmoid})
        for (const bool attention : {true, false})
            for (const std::size_t tau : {std::size_t{0}, std::size_t{4}})
                for (const bool train_base : {true, false})
                    for (std::size_t hops = 1; hops <= 3; ++hops)
                        expect_step_matches_tape(gen, act, attention, tau, train_base, hops);
}

// The step runs its row loops at a compile-time width for d = 16 and 32
// (the profiles' widths); those instantiations must match the tape too.
TEST(rf_gnn_step, matches_the_tape_at_the_unrolled_widths) {
    util::rng gen(2025);
    for (const std::size_t d : {std::size_t{16}, std::size_t{32}})
        for (const auto act : {gnn::activation::tanh, gnn::activation::relu})
            for (const std::size_t tau : {std::size_t{0}, std::size_t{4}})
                for (const bool train_base : {true, false})
                    for (std::size_t hops = 1; hops <= 2; ++hops)
                        expect_step_matches_tape(gen, act, /*attention=*/tau > 0, tau, train_base,
                                                 hops, d);
}

// Heap allocations of one steady-state epoch that is a single batch: 3 at
// both sizes, the walk generator's three buffers. The dense products hand
// `parallel_for` a one-reference lambda, which std::function stores
// without allocating. Minibatch assembly, the forward/backward buffers
// and the optimiser reuse their storage; nothing may scale with the node
// count.
std::size_t steady_epoch_allocations(std::size_t floors, std::size_t samples_per_floor) {
    sim::building_spec spec;
    spec.num_floors = floors;
    spec.samples_per_floor = samples_per_floor;
    spec.seed = 43;
    const auto b = sim::generate_building(spec).building;
    const auto g = graph::bipartite_graph::from_building(b);
    gnn::rf_gnn_config cfg = fast_config();
    cfg.batch_pairs = std::size_t{1} << 20;
    gnn::rf_gnn model(g, cfg);
    model.train_epoch();  // warm-up: sizes every reused buffer
    g_allocs.store(0);
    g_counting.store(true);
    model.train_epoch();
    g_counting.store(false);
    return g_allocs.load();
}

TEST(rf_gnn, minibatch_allocations_do_not_grow_with_nodes) {
    const std::size_t small = steady_epoch_allocations(3, 40);
    const std::size_t large = steady_epoch_allocations(7, 80);
    EXPECT_LT(small, 5u) << "3x40 building";
    EXPECT_LT(large, 5u) << "7x80 building";
    // Slack for a reused buffer regrowing when the counted epoch's layers
    // outsize the warm-up's; per-node costs would be far larger.
    EXPECT_LE(large, small + 8) << "small " << small << ", large " << large;
}

}  // namespace
