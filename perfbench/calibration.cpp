#include "calibration.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#include "harness.hpp"

namespace perfbench {

namespace {

/// Probe times (ms) on the reference host, a 4-vCPU VM.
constexpr double k_reference_compute_ms = 1.95;
constexpr double k_reference_memory_ms = 2.85;

volatile double g_sink = 0.0;

/// CPU time of the calling thread, in ms: a probe is timed by the work the
/// CPU did for it, so time slices given to other threads do not count, but
/// a slower clock or a busier core does.
double thread_cpu_ms() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Dense arithmetic: 32×32 matrix products in L1 cache, as the GNN's kernels
/// do. The operands live at fixed, aligned places (not on the heap), so the
/// probe's speed does not depend on where an allocator put them.
double compute_probe() {
    constexpr std::size_t n = 32;
    alignas(64) thread_local double a[n * n], bt[n * n], c[n * n];
    for (std::size_t i = 0; i < n * n; ++i) {
        a[i] = static_cast<double>(i % 17) * 0.25;
        bt[i] = static_cast<double>(i % 13) * 0.5;
    }
    const double t0 = thread_cpu_ms();
    for (std::size_t rep = 0; rep < 256; ++rep) {
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) {
                double s = 0.0;
                for (std::size_t k = 0; k < n; ++k) s += a[i * n + k] * bt[j * n + k];
                c[i * n + j] = s;
            }
        a[rep % (n * n)] = c[(rep * 3) % (n * n)] * 1e-9;
    }
    const double ms = thread_cpu_ms() - t0;
    g_sink = g_sink + c[7];
    return ms;
}

/// Allocation and copying: response-sized buffers built and copied, then
/// passes over a buffer larger than the caches.
double memory_probe() {
    const std::string frame(41 * 1024, 'x');
    std::vector<char> big(8u << 20, 1), copy(big.size());
    const double t0 = thread_cpu_ms();
    std::uint64_t sum = 0;
    for (std::size_t rep = 0; rep < 800; ++rep) {
        std::string s = frame;
        s[rep] = static_cast<char>(rep);
        sum += static_cast<unsigned char>(s[rep * 7]);
    }
    for (std::size_t rep = 0; rep < 4; ++rep) {
        std::memcpy(copy.data(), big.data(), big.size());
        sum += static_cast<unsigned char>(copy[rep * 4096]);
    }
    const double ms = thread_cpu_ms() - t0;
    g_sink = g_sink + static_cast<double>(sum);
    return ms;
}

}  // namespace

void host_calibration::sample(int reps) {
    // One prober per CPU, all at once: the workload's threads share the
    // host's CPUs, so its slowness shows with all of them busy.
    const std::size_t probers = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::vector<double>> compute(probers), memory(probers);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < probers; ++t)
        threads.emplace_back([&, t] {
            const clock_type::time_point spin = clock_type::now();
            while (ms_between(spin, clock_type::now()) < 30.0) (void)compute_probe();
            for (int i = 0; i < reps; ++i) {
                compute[t].push_back(compute_probe());
                memory[t].push_back(memory_probe());
            }
        });
    for (std::thread& t : threads) t.join();
    for (std::size_t t = 0; t < probers; ++t) {
        compute_.insert(compute_.end(), compute[t].begin(), compute[t].end());
        memory_.insert(memory_.end(), memory[t].begin(), memory[t].end());
    }
}

double host_calibration::compute_ms() const { return median(compute_); }
double host_calibration::memory_ms() const { return median(memory_); }

double host_calibration::slowdown() const {
    return std::sqrt(compute_ms() / k_reference_compute_ms * memory_ms() /
                     k_reference_memory_ms);
}

}  // namespace perfbench
