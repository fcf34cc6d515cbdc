#include "kmeans.hpp"

#include <limits>
#include <stdexcept>

#include "linalg/parallel_policy.hpp"
#include "util/thread_pool.hpp"

namespace fisone::cluster {

namespace {

/// k-means++ seeding: first centroid uniform, then ∝ D²(x).
linalg::matrix seed_centroids(const linalg::matrix& points, std::size_t k, util::rng& gen) {
    const std::size_t n = points.rows();
    const std::size_t d = points.cols();
    linalg::matrix centroids(k, d);

    std::vector<double> min_sqdist(n, std::numeric_limits<double>::max());
    std::size_t first = gen.uniform_index(n);
    for (std::size_t j = 0; j < d; ++j) centroids(0, j) = points(first, j);

    for (std::size_t c = 1; c < k; ++c) {
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double sq = linalg::squared_distance(points.row(i), centroids.row(c - 1));
            if (sq < min_sqdist[i]) min_sqdist[i] = sq;
            total += min_sqdist[i];
        }
        std::size_t chosen = n - 1;
        if (total > 0.0) {
            double target = gen.uniform() * total;
            for (std::size_t i = 0; i < n; ++i) {
                target -= min_sqdist[i];
                if (target <= 0.0) {
                    chosen = i;
                    break;
                }
            }
        } else {
            chosen = gen.uniform_index(n);  // all points identical
        }
        for (std::size_t j = 0; j < d; ++j) centroids(c, j) = points(chosen, j);
    }
    return centroids;
}

kmeans_result run_once(const linalg::matrix& points, std::size_t k, util::rng& gen,
                       const kmeans_config& cfg, util::thread_pool* pool) {
    const std::size_t n = points.rows();
    const std::size_t d = points.cols();

    kmeans_result result;
    result.centroids = seed_centroids(points, k, gen);
    result.assignment.assign(n, 0);

    // Each point's nearest-centroid search is independent; distances land in
    // a per-point buffer and the inertia is summed serially in index order,
    // so the pooled assignment step is bit-identical to the serial one.
    std::vector<double> best_sqdist(n, 0.0);
    double prev_inertia = std::numeric_limits<double>::max();
    for (std::size_t iter = 0; iter < cfg.max_iterations; ++iter) {
        // Assignment step.
        util::parallel_for(pool, 0, n, linalg::parallel_policy::row_grain(k * d),
                           [&](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
                double best = std::numeric_limits<double>::max();
                int best_c = 0;
                for (std::size_t c = 0; c < k; ++c) {
                    const double sq =
                        linalg::squared_distance(points.row(i), result.centroids.row(c));
                    if (sq < best) {
                        best = sq;
                        best_c = static_cast<int>(c);
                    }
                }
                result.assignment[i] = best_c;
                best_sqdist[i] = best;
            }
        });
        double inertia = 0.0;
        for (std::size_t i = 0; i < n; ++i) inertia += best_sqdist[i];
        result.inertia = inertia;
        result.iterations = iter + 1;

        // Update step.
        linalg::matrix sums(k, d, 0.0);
        std::vector<std::size_t> counts(k, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const auto c = static_cast<std::size_t>(result.assignment[i]);
            ++counts[c];
            const auto row = points.row(i);
            for (std::size_t j = 0; j < d; ++j) sums(c, j) += row[j];
        }
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] == 0) {
                // Empty cluster: reseed at the point farthest from its centroid.
                std::size_t far = 0;
                double far_d = -1.0;
                for (std::size_t i = 0; i < n; ++i) {
                    const auto ci = static_cast<std::size_t>(result.assignment[i]);
                    const double sq =
                        linalg::squared_distance(points.row(i), result.centroids.row(ci));
                    if (sq > far_d) {
                        far_d = sq;
                        far = i;
                    }
                }
                for (std::size_t j = 0; j < d; ++j) result.centroids(c, j) = points(far, j);
                continue;
            }
            for (std::size_t j = 0; j < d; ++j)
                result.centroids(c, j) = sums(c, j) / static_cast<double>(counts[c]);
        }

        if (prev_inertia - inertia < cfg.tolerance) break;
        prev_inertia = inertia;
    }
    return result;
}

}  // namespace

kmeans_result kmeans(const linalg::matrix& points, std::size_t k, util::rng& gen,
                     const kmeans_config& cfg, util::thread_pool* pool) {
    if (k == 0 || k > points.rows())
        throw std::invalid_argument("kmeans: k out of range");
    if (points.cols() == 0) throw std::invalid_argument("kmeans: zero-dimensional points");

    kmeans_result best;
    best.inertia = std::numeric_limits<double>::max();
    const std::size_t restarts = cfg.restarts == 0 ? 1 : cfg.restarts;
    for (std::size_t r = 0; r < restarts; ++r) {
        kmeans_result candidate = run_once(points, k, gen, cfg, pool);
        if (candidate.inertia < best.inertia) best = std::move(candidate);
    }
    return best;
}

}  // namespace fisone::cluster
