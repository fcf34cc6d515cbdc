#pragma once

/// \file rng.hpp
/// Deterministic, seedable random number generation for all stochastic
/// components of the library. Every experiment in the paper reports averages
/// over buildings; reproducibility requires that each building's randomness
/// be derived from an explicit 64-bit seed.

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fisone::util {

/// splitmix64 — used to expand a single user seed into the state of the
/// main generator. Passes BigCrush; recommended seeding procedure for
/// xoshiro-family generators.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// xoshiro256** — fast, high-quality 64-bit PRNG.
/// Satisfies the C++ UniformRandomBitGenerator requirements so it can be
/// used with <random> distributions, but the library mostly uses the
/// convenience members below to stay allocation- and distribution-free.
class rng {
public:
    using result_type = std::uint64_t;

    /// Construct from a user seed; state is expanded with splitmix64.
    explicit rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept { reseed(seed); }

    /// Re-initialise the generator state from \p seed.
    void reseed(std::uint64_t seed) noexcept {
        std::uint64_t sm = seed;
        for (auto& word : state_) word = splitmix64_next(sm);
    }

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
        return std::numeric_limits<std::uint64_t>::max();
    }

    /// Next raw 64-bit output.
    result_type operator()() noexcept {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1).
    [[nodiscard]] double uniform() noexcept {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform();
    }

    /// Uniform integer in [0, n). Uses Lemire's rejection-free-in-practice
    /// multiply-shift reduction with rejection to remove modulo bias.
    [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) {
        if (n == 0) throw std::invalid_argument("rng::uniform_index: n must be > 0");
        const std::uint64_t threshold = (0 - n) % n;
        for (;;) {
            const std::uint64_t r = (*this)();
            if (r >= threshold) return r % n;
        }
    }

    /// A range [0, n) prepared once for many draws. `uniform_index(range)`
    /// makes the raw draws and returns the result of `uniform_index(n)`
    /// without a division: the rejection threshold is precomputed, and
    /// `r % n` is Lemire's direct remainder (Lemire, Kaser & Kurz, "Faster
    /// remainder by direct computation", 2019), exact for every 64-bit r
    /// and n with a 128-bit multiplier.
    class index_range {
    public:
        /// The empty range: size() 0, not to be drawn from.
        index_range() = default;

        /// \throws std::invalid_argument if \p n is 0.
        explicit index_range(std::uint64_t n) : n_(n) {
            if (n == 0) throw std::invalid_argument("rng::index_range: n must be > 0");
            threshold_ = (0 - n) % n;
#if defined(__SIZEOF_INT128__)
            magic_ = ~u128{0} / n + 1;  // wraps to 0 at n = 1, where every r % 1 is 0
#endif
        }

        [[nodiscard]] std::uint64_t size() const noexcept { return n_; }
        [[nodiscard]] std::uint64_t threshold() const noexcept { return threshold_; }

        /// r % size(), exactly.
        [[nodiscard]] std::uint64_t reduce(std::uint64_t r) const noexcept {
#if defined(__SIZEOF_INT128__)
            const u128 low = magic_ * r;
            const u128 bottom = (static_cast<u128>(static_cast<std::uint64_t>(low)) * n_) >> 64;
            const u128 top = static_cast<u128>(static_cast<std::uint64_t>(low >> 64)) * n_;
            return static_cast<std::uint64_t>((bottom + top) >> 64);
#else
            return r % n_;
#endif
        }

    private:
#if defined(__SIZEOF_INT128__)
        using u128 = unsigned __int128;
        u128 magic_ = 0;
#endif
        std::uint64_t n_ = 0;
        std::uint64_t threshold_ = 0;
    };

    /// `uniform_index(range.size())`: the same raw draws and the same result.
    [[nodiscard]] std::uint64_t uniform_index(const index_range& range) noexcept {
        for (;;) {
            const std::uint64_t r = (*this)();
            if (r >= range.threshold()) return range.reduce(r);
        }
    }

    /// Standard normal via Marsaglia polar method.
    [[nodiscard]] double normal() noexcept {
        if (has_spare_) {
            has_spare_ = false;
            return spare_;
        }
        double u = 0.0, v = 0.0, s = 0.0;
        do {
            u = uniform(-1.0, 1.0);
            v = uniform(-1.0, 1.0);
            s = u * u + v * v;
        } while (s >= 1.0 || s == 0.0);
        const double scale = std::sqrt(-2.0 * std::log(s) / s);
        spare_ = v * scale;
        has_spare_ = true;
        return u * scale;
    }

    /// Normal with mean \p mu and standard deviation \p sigma.
    [[nodiscard]] double normal(double mu, double sigma) noexcept {
        return mu + sigma * normal();
    }

    /// Bernoulli trial with success probability \p p.
    [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

    /// Derive an independent child generator; used to give each building /
    /// trainer / worker its own stream without correlation.
    [[nodiscard]] rng split() noexcept { return rng((*this)() ^ 0x9e3779b97f4a7c15ULL); }

    /// In-place Fisher–Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& items) {
        for (std::size_t i = items.size(); i > 1; --i) {
            const std::size_t j = uniform_index(i);
            std::swap(items[i - 1], items[j]);
        }
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4]{};
    double spare_ = 0.0;
    bool has_spare_ = false;
};

}  // namespace fisone::util
