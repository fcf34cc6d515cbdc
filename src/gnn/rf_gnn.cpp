#include "rf_gnn.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "linalg/numerics.hpp"
#include "linalg/parallel_policy.hpp"
#include "util/thread_pool.hpp"

namespace fisone::gnn {

using linalg::matrix;

namespace {

/// σ(−x) = exp(−x)/(1+exp(−x)) for x ≥ 0, else 1/(1+exp(x)) — the tape's
/// log_sigmoid derivative — given e = exp(−|x|), the one `exp` a score
/// costs. The loss term log σ(x) reuses the same e.
double sigmoid_neg(double x, double e) noexcept {
    return x >= 0.0 ? e / (1.0 + e) : 1.0 / (1.0 + e);
}
double log_sigmoid(double x, double e) noexcept {
    return x >= 0.0 ? -std::log1p(e) : x - std::log1p(e);
}

/// e[i] = exp(−|x[i]|) for every i of \p e, in one array call: the one
/// `exp` a score costs, for σ(x) and σ(−x) alike.
void exp_neg_abs(const double* x, std::span<double> e) noexcept {
    for (std::size_t i = 0; i < e.size(); ++i) e[i] = -std::fabs(x[i]);
    linalg::numerics::exp_each(e);
}

/// Apply σ in place, with the in-tree tanh and exp (two lanes at a time).
void apply_activation(activation act, matrix& m) noexcept {
    switch (act) {
        case activation::tanh:
            linalg::numerics::tanh_each(m.flat());
            break;
        case activation::relu:
            for (double& x : m.flat()) x = x > 0.0 ? x : 0.0;
            break;
        case activation::sigmoid:
            for (double& x : m.flat()) x = -x;
            linalg::numerics::exp_each(m.flat());
            for (double& x : m.flat()) x = 1.0 / (1.0 + x);
            break;
    }
}

/// The row width of a pass: D when it is a compile-time constant (the
/// profiles' 16 and 32), else the run-time \p d. Every row loop runs to
/// `width<D>(d)`, so at D > 0 it is fully unrolled and its accumulators
/// stay in registers. Each element's arithmetic, and each chain's order,
/// is the same at every D.
template <std::size_t D>
constexpr std::size_t width(std::size_t d) noexcept {
    return D ? D : d;
}

/// out = Σ w·x over the terms [begin, end), `term(t)` giving (w, x), each
/// column summed from +0.0 in term order. When D > 0 the accumulator lives
/// in registers, 16 columns at a time so that it fits the 16 SSE registers
/// with room to spare; a column's chain is the same in any chunk.
template <std::size_t D, class Term>
void weighted_sum(double* __restrict out, std::size_t begin, std::size_t end, const Term& term,
                  std::size_t d) noexcept {
    if constexpr (D > 0) {
        constexpr std::size_t chunk = D < 16 ? D : 16;
        static_assert(D % chunk == 0);
        for (std::size_t j0 = 0; j0 < D; j0 += chunk) {
            double acc[chunk];
            for (std::size_t j = 0; j < chunk; ++j) acc[j] = 0.0;
            for (std::size_t t = begin; t < end; ++t) {
                const auto [w, x] = term(t);
                for (std::size_t j = 0; j < chunk; ++j) acc[j] += w * x[j0 + j];
            }
            for (std::size_t j = 0; j < chunk; ++j) out[j0 + j] = acc[j];
        }
    } else {
        for (std::size_t j = 0; j < d; ++j) out[j] = 0.0;
        for (std::size_t t = begin; t < end; ++t) {
            const auto [w, x] = term(t);
            for (std::size_t j = 0; j < d; ++j) out[j] += w * x[j];
        }
    }
}

/// out[i] = a(i)·b(i) for i in [0, n), each summed from 0.0 left to right
/// as `kernels::dot` does. Four rows run at once: their chains are
/// independent, so their adds overlap instead of waiting on each other.
template <std::size_t D, class RowA, class RowB>
void row_dots(std::size_t n, const RowA& a, const RowB& b, double* out, std::size_t d) noexcept {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const double* a0 = a(i);
        const double* a1 = a(i + 1);
        const double* a2 = a(i + 2);
        const double* a3 = a(i + 3);
        const double* b0 = b(i);
        const double* b1 = b(i + 1);
        const double* b2 = b(i + 2);
        const double* b3 = b(i + 3);
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::size_t j = 0; j < width<D>(d); ++j) {
            s0 += a0[j] * b0[j];
            s1 += a1[j] * b1[j];
            s2 += a2[j] * b2[j];
            s3 += a3[j] * b3[j];
        }
        out[i] = s0;
        out[i + 1] = s1;
        out[i + 2] = s2;
        out[i + 3] = s3;
    }
    for (; i < n; ++i) out[i] = linalg::kernels::dot(width<D>(d), a(i), b(i));
}

/// Rows of a layer's representation by position: base rows through the
/// layer-0 node ids (\p ids non-null), or the rows of a hop's output.
struct row_source {
    const double* data;
    const std::uint32_t* ids;
    std::size_t d;

    const double* operator()(std::size_t pos) const noexcept {
        return data + (ids ? ids[pos] : pos) * d;
    }
};

}  // namespace

void rf_gnn_step::row_gather::reset(std::size_t rows) { ends_.assign(rows + 1, 0); }

void rf_gnn_step::row_gather::seal() {
    for (std::size_t r = 1; r < ends_.size(); ++r) ends_[r] += ends_[r - 1];
    terms_.resize(ends_.back());
}

template <std::size_t D, class Dst>
void rf_gnn_step::row_gather::apply(const Dst& dst, std::size_t d) const {
    std::size_t begin = 0;
    for (std::size_t r = 0; r + 1 < ends_.size(); ++r) {
        weighted_sum<D>(
            dst(r), begin, ends_[r],
            [this](std::size_t t) { return std::pair{terms_[t].weight, terms_[t].src}; }, d);
        begin = ends_[r];
    }
}

double rf_gnn_step::run(const rf_gnn_batch& batch, const matrix& base,
                        const std::vector<matrix>& weights, activation act, bool train_base,
                        bool with_loss, util::thread_pool* pool) {
    switch (base.cols()) {
        case 16: return run_at<16>(batch, base, weights, act, train_base, with_loss, pool);
        case 32: return run_at<32>(batch, base, weights, act, train_base, with_loss, pool);
        default: return run_at<0>(batch, base, weights, act, train_base, with_loss, pool);
    }
}

template <std::size_t D>
double rf_gnn_step::run_at(const rf_gnn_batch& batch, const matrix& base,
                           const std::vector<matrix>& weights, activation act, bool train_base,
                           bool with_loss, util::thread_pool* pool) {
    const std::size_t K = weights.size();
    const std::size_t d = width<D>(base.cols());
    const std::size_t pairs = batch.left.size();
    const std::size_t tau = pairs == 0 ? 0 : batch.negatives.size() / pairs;
    hops_.resize(K);
    weight_grads_.resize(K);

    // Layer k's representation by position: base rows for k = 0.
    auto lower_rows = [&](std::size_t k) {
        return k == 0 ? row_source{base.data(), batch.layers[0].data(), d}
                      : row_source{hops_[k - 1].h.data(), nullptr, d};
    };

    // --- forward, hop by hop ---
    for (std::size_t k = 1; k <= K; ++k) {
        hop_buffers& hb = hops_[k - 1];
        const autodiff::row_csr& hood = batch.hoods[k];
        const std::vector<std::uint32_t>& self = batch.self[k];
        const std::size_t n = self.size();
        const row_source lower = lower_rows(k - 1);

        // cat = [self row | Σ w·neighbour row], the sum from 0.0 in CSR
        // order, accumulated in registers at a compile-time width. Rows
        // are independent, so pooled runs are bit-exact.
        hb.cat.resize_uninit(n, 2 * d);
        const auto fill_row = [&](std::size_t i) {
            double* out = hb.cat.data() + i * 2 * d;
            const double* own = lower(self[i]);
            for (std::size_t j = 0; j < d; ++j) out[j] = own[j];
            weighted_sum<D>(
                out + d, hood.offsets[i], hood.offsets[i + 1],
                [&](std::size_t t) {
                    return std::pair{hood.terms[t].weight, lower(hood.terms[t].row)};
                },
                d);
        };
        const std::size_t flops_per_row =
            (hood.terms.size() / std::max<std::size_t>(n, 1) + 1) * d;
        // One captured reference keeps the std::function allocation-free.
        util::parallel_for(pool, 0, n, linalg::parallel_policy::row_grain(flops_per_row),
                           [&fill_row](std::size_t r0, std::size_t r1) {
                               for (std::size_t i = r0; i < r1; ++i) fill_row(i);
                           });

        linalg::matmul_into(hb.act, hb.cat, weights[k - 1], pool);
        apply_activation(act, hb.act);

        // L2 row normalisation: the squared norms four rows at a time,
        // then each row's clamped norm and unit row.
        hb.h.resize_uninit(n, d);
        hb.norm.resize(n);
        const auto act_row = [&](std::size_t i) { return hb.act.data() + i * d; };
        row_dots<D>(n, act_row, act_row, hb.norm.data(), d);
        for (std::size_t i = 0; i < n; ++i) {
            double nrm = std::sqrt(hb.norm[i]);
            if (nrm < 1e-12) nrm = 1e-12;
            hb.norm[i] = nrm;
            const double* a = act_row(i);
            double* y = hb.h.data() + i * d;
            for (std::size_t j = 0; j < d; ++j) y[j] = a[j] / nrm;
        }
    }
    const matrix& top = hops_[K - 1].h;
    auto top_row = [&](std::size_t pos) { return top.data() + pos * d; };
    auto dh_row = [&](std::size_t pos) { return dh_.data() + pos * d; };

    // --- skip-gram scores and the scalar chain of
    //     loss = −mean(log σ(pos)) − τ·mean(log σ(−neg)).
    //     The dot products come first (in the gradient buffers), then all
    //     the scores' exp(−|x|) in one array call, then each score's tail
    //     in order. Each `0.0 +` stands where the tape adds into a fresh
    //     zero buffer, so even the sign of a zero matches. ---
    double loss = 0.0;  // stays 0.0 without with_loss
    pos_grad_.resize(pairs);
    exps_.resize(std::max(pairs, pairs * tau));
    {
        const double gmean = (-1.0 * 1.0) / static_cast<double>(pairs);
        row_dots<D>(
            pairs, [&](std::size_t i) { return top_row(batch.left[i]); },
            [&](std::size_t i) { return top_row(batch.right[i]); }, pos_grad_.data(), d);
        exp_neg_abs(pos_grad_.data(), {exps_.data(), pairs});
        double total = 0.0;
        for (std::size_t i = 0; i < pairs; ++i) {
            const double x = pos_grad_[i];
            const double e = exps_[i];
            pos_grad_[i] = 0.0 + gmean * sigmoid_neg(x, e);
            if (with_loss) total += log_sigmoid(x, e);
        }
        if (with_loss) loss = (total / static_cast<double>(pairs)) * -1.0;
    }
    neg_grad_.resize(pairs * tau);
    if (tau > 0) {
        const double count = static_cast<double>(pairs * tau);
        const double gmean = (-static_cast<double>(tau) * 1.0) / count;
        row_dots<D>(
            pairs * tau, [&](std::size_t r) { return top_row(batch.left[r / tau]); },
            [&](std::size_t r) { return top_row(batch.negatives[r]); }, neg_grad_.data(), d);
        exp_neg_abs(neg_grad_.data(), {exps_.data(), pairs * tau});
        double total = 0.0;
        for (std::size_t r = 0; r < pairs * tau; ++r) {
            const double x = -neg_grad_[r];
            const double e = exps_[r];
            neg_grad_[r] = 0.0 + -1.0 * (0.0 + gmean * sigmoid_neg(x, e));
            if (with_loss) total += log_sigmoid(x, e);
        }
        if (with_loss) loss += (total / count) * -static_cast<double>(tau);
    }

    // --- backward into dh_K, gathered in the tape's reverse insertion
    //     order: the negatives' rows, their lefts, the positives' rights,
    //     lefts ---
    const auto each_dh_term = [&](const auto& emit) {
        for (std::size_t i = 0; i < pairs; ++i)
            for (std::size_t r = i * tau; r < i * tau + tau; ++r)
                emit(batch.negatives[r], top_row(batch.left[i]), neg_grad_[r]);
        for (std::size_t i = 0; i < pairs; ++i)
            for (std::size_t r = i * tau; r < i * tau + tau; ++r)
                emit(batch.left[i], top_row(batch.negatives[r]), neg_grad_[r]);
        for (std::size_t i = 0; i < pairs; ++i)
            emit(batch.right[i], top_row(batch.left[i]), pos_grad_[i]);
        for (std::size_t i = 0; i < pairs; ++i)
            emit(batch.left[i], top_row(batch.right[i]), pos_grad_[i]);
    };
    dh_.resize_uninit(top.rows(), d);
    gather_.reset(top.rows());
    each_dh_term([&](std::size_t row, const double*, double) { gather_.count(row); });
    gather_.seal();
    each_dh_term([&](std::size_t row, const double* src, double w) { gather_.place(row, src, w); });
    gather_.apply<D>(dh_row, d);

    // --- backward through the hops, top down ---
    if (train_base) {
        base_grad_.resize_uninit(base.rows(), d);
        base_grad_.fill(0.0);
    }
    for (std::size_t k = K; k >= 1; --k) {
        const hop_buffers& hb = hops_[k - 1];
        const std::size_t n = hb.h.rows();

        // L2 normalisation, then σ, in place: dh becomes dz. The g·y dot
        // products run four rows at a time first.
        const auto h_row = [&](std::size_t i) { return hb.h.data() + i * d; };
        gy_.resize(n);
        row_dots<D>(n, dh_row, h_row, gy_.data(), d);
        for (std::size_t i = 0; i < n; ++i) {
            double* g = dh_row(i);
            const double* y = h_row(i);
            const double* a = hb.act.data() + i * d;
            const double gy = gy_[i];
            const double nrm = hb.norm[i];
            for (std::size_t j = 0; j < d; ++j) g[j] = 0.0 + (g[j] - gy * y[j]) / nrm;
            switch (act) {
                case activation::tanh:
                    for (std::size_t j = 0; j < d; ++j) g[j] = 0.0 + g[j] * (1.0 - a[j] * a[j]);
                    break;
                case activation::relu:
                    for (std::size_t j = 0; j < d; ++j) g[j] = a[j] > 0.0 ? 0.0 + g[j] : 0.0;
                    break;
                case activation::sigmoid:
                    for (std::size_t j = 0; j < d; ++j) g[j] = 0.0 + g[j] * a[j] * (1.0 - a[j]);
                    break;
            }
        }

        linalg::matmul_tn_into(weight_grads_[k - 1], hb.cat, dh_, pool);
        if (k == 1 && !train_base) break;  // the frozen base needs no dcat
        linalg::matmul_nt_into(dcat_, dh_, weights[k - 1], pool, &ws_);

        // dcat into the layer below, gathered: the weighted-sum half's
        // terms first, then the self half's (a plain add, as 1.0 · g).
        // Layer 0's rows are base rows.
        const std::uint32_t* ids = k == 1 ? batch.layers[0].data() : nullptr;
        if (k > 1) dh_lower_.resize_uninit(batch.layers[k - 1].size(), d);
        const autodiff::row_csr& hood = batch.hoods[k];
        const std::vector<std::uint32_t>& self = batch.self[k];
        const auto each_dcat_term = [&](const auto& emit) {
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t t = hood.offsets[i]; t < hood.offsets[i + 1]; ++t)
                    emit(hood.terms[t].row, dcat_.data() + i * 2 * d + d, hood.terms[t].weight);
            for (std::size_t i = 0; i < n; ++i) emit(self[i], dcat_.data() + i * 2 * d, 1.0);
        };
        gather_.reset(batch.layers[k - 1].size());
        each_dcat_term([&](std::size_t row, const double*, double) { gather_.count(row); });
        gather_.seal();
        each_dcat_term(
            [&](std::size_t row, const double* src, double w) { gather_.place(row, src, w); });
        matrix& lower = k == 1 ? base_grad_ : dh_lower_;
        const auto lower_grad = [&](std::size_t pos) {
            return lower.data() + (ids ? ids[pos] : pos) * d;
        };
        gather_.apply<D>(lower_grad, d);
        if (k > 1) std::swap(dh_, dh_lower_);
    }
    return loss;
}

rf_gnn::rf_gnn(const graph::bipartite_graph& g, rf_gnn_config cfg, util::thread_pool* pool)
    : graph_(&g),
      cfg_(cfg),
      pool_(pool),
      rng_(cfg.seed),
      sampler_(g, cfg.use_attention),
      negatives_(g, cfg.negative_exponent),
      optimizer_(autodiff::adam::config{cfg.learning_rate, 0.9, 0.999, 1e-8, cfg.grad_clip}) {
    if (cfg.embedding_dim == 0) throw std::invalid_argument("rf_gnn: embedding_dim must be > 0");
    if (cfg.num_hops == 0) throw std::invalid_argument("rf_gnn: num_hops must be > 0");
    if (cfg.neighbor_samples == 0)
        throw std::invalid_argument("rf_gnn: neighbor_samples must be > 0");
    if (cfg.batch_pairs == 0) throw std::invalid_argument("rf_gnn: batch_pairs must be > 0");
    if (cfg.walks.walk_length < 2)
        throw std::invalid_argument("rf_gnn: walks.walk_length must be >= 2");
    if (cfg.walks.window == 0) throw std::invalid_argument("rf_gnn: walks.window must be >= 1");
    // Zero walks yield zero pairs: every epoch would train nothing.
    if (cfg.walks.walks_per_node == 0)
        throw std::invalid_argument("rf_gnn: walks.walks_per_node must be > 0");

    slots_.assign(g.num_nodes(), node_slot{});
    batch_.layers.resize(cfg.num_hops + 1);
    batch_.self.resize(cfg.num_hops + 1);
    batch_.hoods.resize(cfg.num_hops + 1);

    const std::size_t d = cfg.embedding_dim;
    base_ = matrix(g.num_nodes(), d);
    for (double& x : base_.flat()) x = rng_.normal(0.0, 0.1);

    weights_.reserve(cfg.num_hops);
    for (std::size_t k = 0; k < cfg.num_hops; ++k) {
        matrix w(2 * d, d);
        const double bound = std::sqrt(6.0 / static_cast<double>(2 * d + d));
        for (double& x : w.flat()) x = rng_.uniform(-bound, bound);
        weights_.push_back(std::move(w));
    }
}

void rf_gnn::train() {
    for (std::size_t e = 0; e < cfg_.epochs; ++e) run_epoch(false);
}

double rf_gnn::train_epoch() { return run_epoch(true); }

double rf_gnn::run_epoch(bool with_loss) {
    cache_valid_ = false;
    auto pairs = graph::generate_walk_pairs(*graph_, sampler_, cfg_.walks, rng_);
    rng_.shuffle(pairs);

    double total_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < pairs.size(); begin += cfg_.batch_pairs) {
        const std::size_t end = std::min(begin + cfg_.batch_pairs, pairs.size());
        total_loss += train_batch(pairs, begin, end, with_loss);
        ++batches;
    }
    return batches == 0 ? 0.0 : total_loss / static_cast<double>(batches);
}

double rf_gnn::train_batch(const std::vector<graph::walk_pair>& pairs, std::size_t begin,
                           std::size_t end, bool with_loss) {
    const std::size_t batch = end - begin;
    const std::size_t tau = cfg_.negatives;
    const std::size_t K = cfg_.num_hops;
    rf_gnn_batch& b = batch_;

    // Sampling draws from a local copy of the model's generator, and the
    // layer stamp is a local, so both stay in registers; both are written
    // back below.
    util::rng gen = rng_;
    node_slot* const slots = slots_.data();
    std::uint32_t stamp = slot_gen_;

    // `intern(layer, node)` returns the node's position in `layer`,
    // appending it on first sight. Positions never move once assigned, so
    // the position returned for a node is final (see `slots_`).
    auto start_layer = [&](std::vector<std::uint32_t>& layer) {
        layer.clear();
        if (++stamp == 0) {  // the stamp wrapped: forget every old one
            for (node_slot& slot : slots_) slot.stamp = 0;
            stamp = 1;
        }
    };
    auto intern = [&](std::vector<std::uint32_t>& layer, std::uint32_t node) -> std::uint32_t {
        node_slot& slot = slots[node];
        if (slot.stamp != stamp) {
            slot.stamp = stamp;
            slot.pos = static_cast<std::uint32_t>(layer.size());
            layer.push_back(node);
        }
        return slot.pos;
    };

    // --- the target layer, deduplicated: lefts and rights first, then
    //     the whole batch's negatives (their draws precede all sampling) ---
    std::vector<std::uint32_t>& targets = b.layers[K];
    start_layer(targets);
    b.left.resize(batch);
    b.right.resize(batch);
    b.negatives.resize(batch * tau);
    for (std::size_t i = 0; i < batch; ++i) {
        b.left[i] = intern(targets, pairs[begin + i].first);
        b.right[i] = intern(targets, pairs[begin + i].second);
    }
    for (std::uint32_t& neg : b.negatives) neg = intern(targets, negatives_.sample(gen));

    // --- build the layered computation from the top down:
    //     layers[k-1] = layers[k] ∪ sampled neighbours of layers[k],
    //     in first-seen order. hoods[k] row i holds the sampled
    //     (position in layer k-1, aggregation weight) terms of node i of
    //     layer k, in sampling order. Every row has exactly
    //     `neighbor_samples` terms, so each CSR is sized up front and
    //     written in place, and a row is normalised as it is drawn. ---
    const std::size_t samples = cfg_.neighbor_samples;
    const bool attention = cfg_.use_attention;
    const double uniform_weight = 1.0 / static_cast<double>(samples);
    for (std::size_t k = K; k >= 1; --k) {
        const std::vector<std::uint32_t>& upper = b.layers[k];
        std::vector<std::uint32_t>& lower = b.layers[k - 1];
        autodiff::row_csr& hood = b.hoods[k];
        const std::size_t n = upper.size();
        start_layer(lower);
        hood.offsets.resize(n + 1);
        hood.terms.resize(n * samples);
        b.self[k].resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t node = upper[i];
            b.self[k][i] = intern(lower, node);  // the node's own previous rep
            autodiff::weighted_row* row = hood.terms.data() + i * samples;
            double total = 0.0;  // summed in sampling order
            sampler_.sample_edges(node, samples, gen, [&](std::size_t s, const graph::edge& e) {
                row[s] = {intern(lower, e.neighbor), e.weight};
                total += e.weight;
            });
            for (std::size_t s = 0; s < samples; ++s)
                row[s].weight = attention ? row[s].weight / total : uniform_weight;
            hood.offsets[i + 1] = (i + 1) * samples;
        }
    }
    slot_gen_ = stamp;
    rng_ = gen;

    const double loss = step_.run(b, base_, weights_, cfg_.act, cfg_.train_base_embeddings,
                                  with_loss, pool_);

    if (cfg_.train_base_embeddings) optimizer_.step(base_, step_.base_grad());
    for (std::size_t k = 0; k < K; ++k) optimizer_.step(weights_[k], step_.weight_grads()[k]);
    optimizer_.end_step();
    return loss;
}

matrix rf_gnn::propagate_full(const matrix& prev, std::size_t hop) const {
    const std::size_t n = graph_->num_nodes();
    const std::size_t d = cfg_.embedding_dim;

    // Aggregate over the *full* neighbourhood (deterministic inference).
    // Every node writes only its own output row, so pooling is bit-exact.
    matrix agg = ws_.take_zero(n, d);
    const std::size_t flops_per_node =
        (2 * graph_->num_edges() / std::max<std::size_t>(n, 1) + 1) * d;
    util::parallel_for(pool_, 0, n, linalg::parallel_policy::row_grain(flops_per_node),
                       [&](std::size_t n0, std::size_t n1) {
        for (std::uint32_t node = static_cast<std::uint32_t>(n0); node < n1; ++node) {
            const auto nbrs = graph_->neighbors(node);
            if (nbrs.empty()) continue;
            double total = 0.0;
            if (cfg_.use_attention)
                for (const graph::edge& e : nbrs) total += e.weight;
            else
                total = static_cast<double>(nbrs.size());
            for (const graph::edge& e : nbrs) {
                const double w = cfg_.use_attention ? e.weight / total : 1.0 / total;
                const auto prow = prev.row(e.neighbor);
                for (std::size_t j = 0; j < d; ++j) agg(node, j) += w * prow[j];
            }
        }
    });

    // cat = [prev | agg], z = cat · W_hop, σ, normalise
    matrix cat = ws_.take(n, 2 * d);
    for (std::size_t i = 0; i < n; ++i) {
        const auto prow = prev.row(i);
        for (std::size_t j = 0; j < d; ++j) {
            cat(i, j) = prow[j];
            cat(i, d + j) = agg(i, j);
        }
    }
    matrix z = ws_.take(n, d);
    linalg::matmul_into(z, cat, weights_[hop], pool_);
    ws_.recycle(std::move(agg));
    ws_.recycle(std::move(cat));
    apply_activation(cfg_.act, z);
    for (std::size_t i = 0; i < n; ++i) {
        double nrm = linalg::norm2(z.row(i));
        if (nrm < 1e-12) nrm = 1e-12;
        for (std::size_t j = 0; j < d; ++j) z(i, j) /= nrm;
    }
    return z;
}

const matrix& rf_gnn::embed_all_nodes() {
    if (!cache_valid_) {
        // Stale layers go back to the arena; the rebuild takes them out again.
        for (matrix& layer : layer_cache_) ws_.recycle(std::move(layer));
        layer_cache_.clear();
        layer_cache_.push_back(base_);
        for (std::size_t k = 0; k < cfg_.num_hops; ++k)
            layer_cache_.push_back(propagate_full(layer_cache_.back(), k));
        cache_valid_ = true;
    }
    return layer_cache_.back();
}

matrix rf_gnn::embed_samples() {
    const matrix& all = embed_all_nodes();
    matrix out = matrix::uninit(graph_->num_samples(), cfg_.embedding_dim);
    for (std::size_t i = 0; i < graph_->num_samples(); ++i) {
        const auto row = all.row(graph_->sample_node(i));
        for (std::size_t j = 0; j < cfg_.embedding_dim; ++j) out(i, j) = row[j];
    }
    return out;
}

std::vector<double> rf_gnn::embed_new_sample(
    const std::vector<data::rf_observation>& observations) {
    static_cast<void>(embed_all_nodes());  // ensure caches
    const std::size_t d = cfg_.embedding_dim;

    // Known-MAC neighbourhood with f(RSS) weights.
    std::vector<std::pair<std::uint32_t, double>> nbrs;
    for (const data::rf_observation& o : observations) {
        if (o.mac_id >= graph_->num_macs()) continue;  // unseen MAC: skip
        const double w = o.rss_dbm + graph_->rss_offset();
        if (w > 0.0) nbrs.emplace_back(graph_->mac_node(o.mac_id), w);
    }
    if (nbrs.empty())
        throw std::invalid_argument("rf_gnn::embed_new_sample: no known MACs in the scan");

    double total = 0.0;
    if (cfg_.use_attention)
        for (const auto& [node, w] : nbrs) total += w;
    else
        total = static_cast<double>(nbrs.size());

    // h_0(new) = weighted mean of neighbour base embeddings (inductive
    // convention for a node with no trained base vector; see header).
    std::vector<double> h(d, 0.0);
    for (const auto& [node, w] : nbrs) {
        const double ww = cfg_.use_attention ? w / total : 1.0 / total;
        const auto row = layer_cache_[0].row(node);
        for (std::size_t j = 0; j < d; ++j) h[j] += ww * row[j];
    }

    for (std::size_t k = 1; k <= cfg_.num_hops; ++k) {
        // aggregate neighbours' H_{k-1}
        std::vector<double> agg(d, 0.0);
        for (const auto& [node, w] : nbrs) {
            const double ww = cfg_.use_attention ? w / total : 1.0 / total;
            const auto row = layer_cache_[k - 1].row(node);
            for (std::size_t j = 0; j < d; ++j) agg[j] += ww * row[j];
        }
        // z = [h | agg] · W_{k-1}. Deliberately plain locals, not the
        // shared ws_ arena: once the layer cache is warm this method only
        // reads model state, so concurrent inference on one fitted model
        // stays safe (the 1×2d scratch is too small to matter anyway).
        matrix cat = matrix::uninit(1, 2 * d);
        for (std::size_t j = 0; j < d; ++j) {
            cat(0, j) = h[j];
            cat(0, d + j) = agg[j];
        }
        matrix z = matrix::uninit(1, d);
        linalg::matmul_into(z, cat, weights_[k - 1]);
        apply_activation(cfg_.act, z);
        double nrm = linalg::norm2(z.row(0));
        if (nrm < 1e-12) nrm = 1e-12;
        for (std::size_t j = 0; j < d; ++j) h[j] = z(0, j) / nrm;
    }
    return h;
}

}  // namespace fisone::gnn
