#pragma once

/// \file calibration.hpp
/// The host's speed, timed in the same run as the workload. A shared VM
/// runs the same work 10–35% faster or slower from one minute to the next,
/// which would read as a regression or a gain of the code. Each run times a
/// fixed piece of work that is the benchmark's own (it calls nothing in the
/// library, so no change to the library moves it), and the end-to-end
/// timings are reported scaled to a reference host on which that work takes
/// `k_reference_*` milliseconds.

#include <vector>

namespace perfbench {

class host_calibration {
public:
    /// Time each probe \p reps times on every CPU at once, after a short
    /// spin that lets the cores leave their idle state; call it at several
    /// idle points of a run.
    void sample(int reps);

    /// Median milliseconds of each probe over every sample so far.
    [[nodiscard]] double compute_ms() const;
    [[nodiscard]] double memory_ms() const;

    /// This host's slowness against the reference host: the geometric mean
    /// of the two probes' ratios to their reference times (1 = as fast,
    /// 1.2 = the same work takes 20% longer here).
    [[nodiscard]] double slowdown() const;

private:
    std::vector<double> compute_, memory_;
};

}  // namespace perfbench
