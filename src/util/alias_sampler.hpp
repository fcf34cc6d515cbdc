#pragma once

/// \file alias_sampler.hpp
/// Walker's alias method for O(1) sampling from a fixed discrete
/// distribution. Used for the RSS-proportional neighbour sampling of
/// RF-GNN (paper §III-B) and for the degree^(3/4) negative-sampling
/// distribution of the unsupervised loss.
///
/// `alias_builder` is the one construction; `alias_sampler` owns a single
/// table, while `graph::neighbor_sampler` and `graph::negative_table` lay
/// their tables out flat and draw through `draw_alias` over a prepared
/// `rng::index_range`. Both draw paths consume the same raw
/// outputs and return the same index.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "rng.hpp"

namespace fisone::util {

/// One column of an alias table: a uniform column draw keeps its own index
/// with probability `prob` and takes `alias` otherwise.
struct alias_column {
    double prob = 0.0;
    std::uint32_t alias = 0;
};

/// Walker's construction, with scratch reused across tables.
class alias_builder {
public:
    /// Fill \p out (one column per weight) from unnormalised, non-negative
    /// \p weights.
    /// \throws std::invalid_argument if \p weights is empty, contains a
    ///         negative entry, sums to zero, has more entries than a 32-bit
    ///         alias can name, or differs in size from \p out.
    void build(std::span<const double> weights, std::span<alias_column> out) {
        if (weights.empty())
            throw std::invalid_argument("alias_sampler: weights must be non-empty");
        if (weights.size() > std::numeric_limits<std::uint32_t>::max())
            throw std::invalid_argument("alias_sampler: too many categories");
        if (out.size() != weights.size())
            throw std::invalid_argument("alias_sampler: output size mismatch");
        double total = 0.0;
        for (const double w : weights) {
            if (w < 0.0)
                throw std::invalid_argument("alias_sampler: negative weight");
            total += w;
        }
        if (total <= 0.0)
            throw std::invalid_argument("alias_sampler: weights sum to zero");

        const auto n = static_cast<std::uint32_t>(weights.size());
        for (alias_column& c : out) c = alias_column{};

        // Scaled probabilities; split into under- and over-full buckets.
        scaled_.resize(n);
        small_.clear();
        large_.clear();
        for (std::uint32_t i = 0; i < n; ++i) {
            scaled_[i] = weights[i] * static_cast<double>(n) / total;
            (scaled_[i] < 1.0 ? small_ : large_).push_back(i);
        }
        while (!small_.empty() && !large_.empty()) {
            const std::uint32_t s = small_.back();
            const std::uint32_t l = large_.back();
            small_.pop_back();
            large_.pop_back();
            out[s].prob = scaled_[s];
            out[s].alias = l;
            scaled_[l] = (scaled_[l] + scaled_[s]) - 1.0;
            (scaled_[l] < 1.0 ? small_ : large_).push_back(l);
        }
        // Numerical leftovers are exactly-full buckets.
        for (const std::uint32_t i : large_) out[i].prob = 1.0;
        for (const std::uint32_t i : small_) out[i].prob = 1.0;
    }

private:
    std::vector<double> scaled_;
    std::vector<std::uint32_t> small_, large_;
};

/// One draw from the `range.size()` columns at \p cols: a uniform column,
/// then keep-or-alias.
[[nodiscard]] inline std::uint32_t draw_alias(const alias_column* cols,
                                              const rng::index_range& range, rng& gen) noexcept {
    const auto column = static_cast<std::uint32_t>(gen.uniform_index(range));
    // Both candidates loaded up front: a select, not a branch the keep
    // probabilities make unpredictable.
    const alias_column c = cols[column];
    return gen.uniform() < c.prob ? column : c.alias;
}

/// Precomputed alias table over indices [0, n). Construction is O(n);
/// each draw is O(1).
class alias_sampler {
public:
    alias_sampler() = default;

    /// Build the table from (unnormalised, non-negative) weights.
    /// \throws std::invalid_argument as `alias_builder::build`.
    explicit alias_sampler(const std::vector<double>& weights) : columns_(weights.size()) {
        alias_builder().build(weights, columns_);
    }

    /// Number of categories (0 if default-constructed).
    [[nodiscard]] std::size_t size() const noexcept { return columns_.size(); }

    /// Draw one index according to the weight distribution.
    [[nodiscard]] std::size_t sample(rng& gen) const {
        if (columns_.empty())
            throw std::logic_error("alias_sampler: sampling from empty table");
        const std::size_t column = static_cast<std::size_t>(gen.uniform_index(columns_.size()));
        return gen.uniform() < columns_[column].prob ? column : columns_[column].alias;
    }

private:
    std::vector<alias_column> columns_;
};

}  // namespace fisone::util
