#include "thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#if defined(__linux__)
#include <sched.h>
#endif

namespace fisone::util {

std::size_t resolve_num_threads(std::size_t requested) noexcept {
    if (requested != 0) return requested;
#if defined(__linux__)
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        const int n = CPU_COUNT(&allowed);
        if (n > 0) return static_cast<std::size_t>(n);
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

thread_pool::thread_pool(std::size_t num_threads) {
    const std::size_t n = resolve_num_threads(num_threads);
    // A count beyond any real machine is a caller bug (e.g. -1 cast to
    // size_t); fail with a message instead of exhausting the process.
    constexpr std::size_t max_threads = 4096;
    if (n > max_threads)
        throw std::invalid_argument("thread_pool: num_threads " + std::to_string(n) +
                                    " exceeds sanity cap " + std::to_string(max_threads));
    concurrency_ = n;
    workers_.reserve(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

thread_pool::~thread_pool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
}

void thread_pool::worker_loop() {
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();  // packaged_task captures exceptions into its future
    }
}

std::future<void> thread_pool::submit(std::function<void()> task) {
    std::packaged_task<void()> wrapped(std::move(task));
    std::future<void> result = wrapped.get_future();
    if (workers_.empty()) {
        wrapped();  // concurrency 1: nobody else will ever run it
        return result;
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) throw std::runtime_error("thread_pool::submit: pool is stopping");
        queue_.push_back(std::move(wrapped));
    }
    cv_.notify_one();
    return result;
}

namespace {

/// Shared bookkeeping of one parallel_for call. Lives on the heap because
/// queued helper tasks may outlive the call (they wake up after every chunk
/// was already claimed, see below).
struct for_state {
    std::function<void(std::size_t, std::size_t)> chunk;
    std::size_t begin = 0, end = 0, grain = 1, num_chunks = 0;
    std::atomic<std::size_t> next{0};
    std::size_t done = 0;  // guarded by m
    std::exception_ptr error;  // first failure, guarded by m
    std::mutex m;
    std::condition_variable all_done;

    /// Claim and run chunks until none remain.
    void drain() {
        std::size_t ran = 0;
        std::exception_ptr local_error;
        for (;;) {
            const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
            if (c >= num_chunks) break;
            const std::size_t b = begin + c * grain;
            const std::size_t e = std::min(end, b + grain);
            try {
                chunk(b, e);
            } catch (...) {
                if (!local_error) local_error = std::current_exception();
            }
            ++ran;
        }
        if (ran == 0 && !local_error) return;
        {
            const std::lock_guard<std::mutex> lock(m);
            done += ran;
            if (local_error && !error) error = local_error;
            if (done != num_chunks) return;
        }
        all_done.notify_all();
    }
};

}  // namespace

void thread_pool::parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                               const std::function<void(std::size_t, std::size_t)>& chunk) {
    if (end <= begin) return;
    const std::size_t g = std::max<std::size_t>(grain, 1);
    const std::size_t num_chunks = (end - begin + g - 1) / g;

    if (num_chunks == 1 || workers_.empty()) {
        chunk(begin, end);  // serial: the whole range is one chunk
        return;
    }

    auto state = std::make_shared<for_state>();
    state->chunk = chunk;
    state->begin = begin;
    state->end = end;
    state->grain = g;
    state->num_chunks = num_chunks;

    // Enough helpers to saturate the pool, minus the caller's own share.
    const std::size_t helpers = std::min(workers_.size(), num_chunks - 1);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!stopping_)
            for (std::size_t i = 0; i < helpers; ++i)
                queue_.emplace_back([state] { state->drain(); });
    }
    cv_.notify_all();

    state->drain();  // the caller works too

    std::unique_lock<std::mutex> lock(state->m);
    state->all_done.wait(lock, [&] { return state->done == state->num_chunks; });
    if (state->error) std::rethrow_exception(state->error);
}

void parallel_for(thread_pool* pool, std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& chunk) {
    if (pool != nullptr)
        pool->parallel_for(begin, end, grain, chunk);  // falls back serially itself
    else if (end > begin)
        chunk(begin, end);
}

}  // namespace fisone::util
