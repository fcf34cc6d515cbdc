#include "corpus.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/building_generator.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace fisone;

corpus_building make_building(std::uint64_t seed, std::size_t index, std::size_t pool_per_floor) {
    // Scans per floor: the golden-ratio (Weyl) sequence over [40, 80].
    const double phase = std::fmod(0.5 + static_cast<double>(index) * 0.6180339887498949, 1.0);
    const auto spf = static_cast<std::size_t>(40.0 + std::floor(41.0 * phase));

    sim::building_spec spec;
    spec.name = "b-" + std::to_string(index);
    spec.num_floors = 3 + index % 5;
    spec.samples_per_floor = spf + pool_per_floor;
    spec.aps_per_floor = k_aps_per_floor;
    util::rng mix(seed * 0x9e3779b97f4a7c15ULL + index);
    spec.seed = mix();
    data::building full = sim::generate_building(spec).building;

    // The generator emits samples floor by floor; keep the first `spf` of
    // each floor and hold the rest back.
    corpus_building out;
    out.pool.resize(full.num_floors);
    out.base = full;
    out.base.samples.clear();
    std::vector<std::size_t> seen(full.num_floors, 0);
    std::size_t labeled = 0;
    for (std::size_t i = 0; i < full.samples.size(); ++i) {
        const auto f = static_cast<std::size_t>(full.samples[i].true_floor);
        if (seen[f]++ < spf) {
            if (i == full.labeled_sample) labeled = out.base.samples.size();
            out.base.samples.push_back(full.samples[i]);
        } else {
            out.pool[f].push_back(full.samples[i]);
        }
    }
    // A label drawn from the held-back tail moves to the first bottom-floor
    // scan; both carry floor 0.
    out.base.labeled_sample = labeled;
    out.base.validate();
    return out;
}

std::vector<corpus_building> make_corpus(std::uint64_t seed, std::size_t count,
                                         std::size_t pool_per_floor, std::size_t threads) {
    std::vector<corpus_building> out(count);
    std::vector<std::thread> workers;
    threads = std::max<std::size_t>(1, std::min(threads, count));
    for (std::size_t t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
            for (std::size_t i = t; i < count; i += threads)
                out[i] = make_building(seed, i, pool_per_floor);
        });
    for (std::thread& w : workers) w.join();
    return out;
}

data::building append_record(const corpus_building& cb, std::size_t step) {
    data::building rec;
    rec.name = cb.base.name;
    rec.num_floors = cb.base.num_floors;
    rec.num_macs = cb.base.num_macs;
    for (const std::vector<data::rf_sample>& floor_pool : cb.pool) {
        if (floor_pool.empty()) throw std::logic_error("append_record: building has no pool");
        rec.samples.push_back(floor_pool[step % floor_pool.size()]);
    }
    rec.labeled_sample = 0;  // pool[0] holds bottom-floor scans
    rec.labeled_floor = 0;
    return rec;
}

}  // namespace perfbench
