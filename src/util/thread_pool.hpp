#pragma once

/// \file thread_pool.hpp
/// Fixed-size worker pool shared by the batch runtime and the parallel
/// kernels (RF-GNN propagation, k-means assignment, profile similarity).
///
/// Design constraints, driven by the library's reproducibility contract:
///  - A pooled `parallel_for` decomposes [begin, end) into chunks of
///    `grain` indices; the decomposition depends only on (begin, end,
///    grain) — never on the pool size. A serial one (no pool, or a pool
///    without workers) runs the whole range as one chunk. Callers
///    therefore only split work whose chunks are independent (every
///    output row written by exactly one chunk), which makes them
///    bit-identical at every thread count, serial included.
///  - Exceptions thrown inside tasks are captured and rethrown on the
///    calling thread (first one wins); the pool itself never dies from a
///    task exception.
///  - The calling thread participates in `parallel_for` execution, so a
///    pool is never idle-blocked on its own caller and nested use (a
///    batch task running parallel kernels on a *different* pool) cannot
///    deadlock.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace fisone::util {

/// Resolve a user-facing `num_threads` knob: 0 means the number of CPUs
/// the calling thread may run on (its affinity mask, so `taskset` and
/// cgroup cpusets are honoured), else `hardware_concurrency`, with a floor
/// of 1 when neither is known.
[[nodiscard]] std::size_t resolve_num_threads(std::size_t requested) noexcept;

// Graining heuristics for row-partitioned kernels live in
// linalg/parallel_policy.hpp (`parallel_policy::row_grain`, sized by a
// minimum flop count per chunk), next to the other pool-dispatch
// thresholds.

class thread_pool {
public:
    /// Target concurrency `n = resolve_num_threads(num_threads)`. Because
    /// the calling thread executes chunks during `parallel_for`, only
    /// `n - 1` workers are spawned — `parallel_for` then uses exactly `n`
    /// compute threads, never oversubscribing a saturated machine.
    explicit thread_pool(std::size_t num_threads = 0);

    /// Drains nothing: outstanding tasks are completed, then workers join.
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Concurrency level (workers + the participating caller).
    [[nodiscard]] std::size_t size() const noexcept { return concurrency_; }

    /// Enqueue one task; the future reports completion and rethrows any
    /// exception the task raised. With concurrency 1 (no workers) the task
    /// runs inline on the submitting thread.
    std::future<void> submit(std::function<void()> task);

    /// Run `chunk(chunk_begin, chunk_end)` over every grain-sized slice of
    /// [begin, end). Blocks until all chunks finish; the caller executes
    /// chunks alongside the workers. Rethrows the first chunk exception.
    /// Without workers (concurrency 1) it calls `chunk(begin, end)` once.
    void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                      const std::function<void(std::size_t, std::size_t)>& chunk);

private:
    void worker_loop();

    std::size_t concurrency_ = 1;
    std::vector<std::thread> workers_;
    std::deque<std::packaged_task<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/// Convenience wrapper used by the kernels: one `chunk(begin, end)` call
/// when \p pool is null (or has no workers, or [begin, end) fits one
/// grain), pooled grain-sized chunks otherwise. An empty range calls
/// nothing.
void parallel_for(thread_pool* pool, std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& chunk);

}  // namespace fisone::util
