#include "hierarchical.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "linalg/parallel_policy.hpp"
#include "util/thread_pool.hpp"

namespace fisone::cluster {

namespace {

/// Disjoint-set with path halving, used to replay merges when cutting.
class union_find {
public:
    explicit union_find(std::size_t n) : parent_(n) {
        std::iota(parent_.begin(), parent_.end(), 0);
    }
    std::size_t find(std::size_t x) {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }
    void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

private:
    std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<linkage_merge> upgma_linkage(const linalg::matrix& points, util::thread_pool* pool) {
    const std::size_t n = points.rows();
    if (n == 0) throw std::invalid_argument("upgma_linkage: no points");
    if (n == 1) return {};

    // Condensed float distance matrix (full square for simple indexing).
    // Row-partitioned across the pool: the thread owning row i writes the
    // cells (i, j) and their mirrors (j, i) for every j > i, so each cell
    // has exactly one writer and the values match the serial fill exactly.
    std::vector<float> dist(n * n, 0.0f);
    // Row i computes n−1−i distances of points.cols() terms each; size
    // chunks by the average row.
    util::parallel_for(pool, 0, n, linalg::parallel_policy::row_grain(n / 2 * points.cols()),
                       [&](std::size_t rb, std::size_t re) {
        for (std::size_t i = rb; i < re; ++i)
            for (std::size_t j = i + 1; j < n; ++j) {
                const auto d = static_cast<float>(
                    linalg::euclidean_distance(points.row(i), points.row(j)));
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
    });

    std::vector<bool> active(n, true);
    std::vector<std::size_t> size(n, 1);
    std::vector<linkage_merge> merges;
    merges.reserve(n - 1);

    std::vector<std::size_t> chain;
    chain.reserve(n);
    std::size_t remaining = n;
    std::size_t scan_start = 0;  // first active cluster candidate

    while (remaining > 1) {
        if (chain.empty()) {
            while (!active[scan_start]) ++scan_start;
            chain.push_back(scan_start);
        }
        for (;;) {
            const std::size_t a = chain.back();
            // nearest active neighbour of a; prefer the chain predecessor on ties
            std::size_t best = n;
            float best_d = std::numeric_limits<float>::max();
            const std::size_t prev = chain.size() >= 2 ? chain[chain.size() - 2] : n;
            for (std::size_t x = 0; x < n; ++x) {
                if (!active[x] || x == a) continue;
                const float d = dist[a * n + x];
                if (d < best_d || (d == best_d && x == prev)) {
                    best_d = d;
                    best = x;
                }
            }
            if (best == prev) {
                // reciprocal nearest neighbours: merge a and prev
                chain.pop_back();
                chain.pop_back();
                const std::size_t b = prev;
                const double height = best_d;

                // Lance–Williams update for average linkage into slot a.
                // Every x owns its two mirror cells (a,x)/(x,a) and reads
                // only row b and its own cells, so the sweep splits over
                // the pool with one writer per cell — bit-identical to
                // serial. `min_span`-sized chunks collapse sweeps below
                // the policy's dispatch break-even into a single inline
                // chunk, so the pool only engages at city-scale point
                // counts.
                const auto sa = static_cast<float>(size[a]);
                const auto sb = static_cast<float>(size[b]);
                auto update_rows = [&](std::size_t x0, std::size_t x1) {
                    for (std::size_t x = x0; x < x1; ++x) {
                        if (!active[x] || x == a || x == b) continue;
                        const float d_new =
                            (sa * dist[a * n + x] + sb * dist[b * n + x]) / (sa + sb);
                        dist[a * n + x] = d_new;
                        dist[x * n + a] = d_new;
                    }
                };
                // Below the policy span the sweep is one chunk anyway; run
                // it directly instead of paying a std::function wrap on
                // every one of the n−1 merges.
                if (pool == nullptr || n < linalg::parallel_policy::min_span)
                    update_rows(0, n);
                else
                    util::parallel_for(pool, 0, n, linalg::parallel_policy::min_span,
                                       update_rows);
                active[b] = false;
                size[a] += size[b];
                merges.push_back(linkage_merge{a, b, height});
                --remaining;
                break;
            }
            chain.push_back(best);
        }
    }
    return merges;
}

std::vector<int> cut_linkage(const std::vector<linkage_merge>& merges, std::size_t n,
                             std::size_t k) {
    if (k == 0 || k > n) throw std::invalid_argument("cut_linkage: k out of range");
    if (merges.size() < n - k)
        throw std::invalid_argument("cut_linkage: not enough merges to reach k clusters");

    // Replay merges in ascending height (stable keeps NN-chain order on ties).
    std::vector<std::size_t> order(merges.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&merges](std::size_t x, std::size_t y) {
        return merges[x].height < merges[y].height;
    });

    union_find uf(n);
    const std::size_t to_apply = n - k;
    for (std::size_t i = 0; i < to_apply; ++i) {
        const linkage_merge& m = merges[order[i]];
        uf.unite(m.a, m.b);
    }

    std::vector<int> labels(n, -1);
    int next = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t root = uf.find(i);
        if (labels[root] == -1) labels[root] = next++;
        labels[i] = labels[root];
    }
    return labels;
}

std::vector<int> upgma_cluster(const linalg::matrix& points, std::size_t k,
                               util::thread_pool* pool) {
    const auto merges = upgma_linkage(points, pool);
    return cut_linkage(merges, points.rows(), k);
}

}  // namespace fisone::cluster
