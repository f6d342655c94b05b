#include "common/parallel.hh"

#include <algorithm>
#include <cstdlib>

#if defined(__linux__)
#include <sched.h>
#endif

namespace sushi {

namespace {

thread_local bool t_on_worker = false;

} // namespace

unsigned
parallelWorkers()
{
    static const unsigned workers = [] {
        if (const char *env = std::getenv("SUSHI_WORKERS")) {
            const long v = std::strtol(env, nullptr, 10);
            if (v >= 1)
                return static_cast<unsigned>(v);
        }
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1u : hw;
    }();
    return workers;
}

unsigned
usableCpus()
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
}

WorkerPool::WorkerPool(unsigned workers)
{
    if (workers == 0)
        workers = parallelWorkers();
    // A 1-wide pool still gets a thread: submit() must never run the
    // job on the caller's stack while other jobs are in flight, or
    // drain()-free pipelining would break.
    threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads_.emplace_back([this] { workerMain(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
WorkerPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(job));
        ++in_flight_;
    }
    work_cv_.notify_one();
}

void
WorkerPool::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
    if (error_) {
        std::exception_ptr err;
        std::swap(err, error_);
        std::rethrow_exception(err);
    }
}

WorkerPool &
WorkerPool::shared()
{
    static WorkerPool pool;
    return pool;
}

bool
WorkerPool::onWorkerThread()
{
    return t_on_worker;
}

void
WorkerPool::workerMain()
{
    t_on_worker = true;
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock,
                          [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and queue drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            job();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!error_)
                error_ = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--in_flight_ == 0)
                idle_cv_.notify_all();
        }
    }
}

void
parallelFor(std::size_t n,
            const std::function<void(std::size_t, std::size_t)> &fn,
            const ParallelOptions &opts)
{
    if (n == 0)
        return;
    WorkerPool &pool = WorkerPool::shared();
    std::size_t workers = pool.size();
    if (opts.max_workers != 0)
        workers = std::min<std::size_t>(workers, opts.max_workers);
    if (opts.grain > 1)
        workers = std::min(workers,
                           (n + opts.grain - 1) / opts.grain);
    workers = std::min(workers, n);
    if (workers <= 1 || WorkerPool::onWorkerThread()) {
        fn(0, n);
        return;
    }

    // Per-call completion latch: concurrent parallelFor calls (and
    // other pool users) must not wait on each other's jobs.
    struct Latch
    {
        std::mutex mu;
        std::condition_variable cv;
        std::size_t remaining;
        std::exception_ptr error;
    } latch;

    const std::size_t chunk = (n + workers - 1) / workers;
    std::size_t chunks = 0;
    for (std::size_t begin = 0; begin < n; begin += chunk)
        ++chunks;
    latch.remaining = chunks;

    for (std::size_t begin = 0; begin < n; begin += chunk) {
        const std::size_t end = std::min(n, begin + chunk);
        pool.submit([&fn, &latch, begin, end] {
            try {
                fn(begin, end);
            } catch (...) {
                std::lock_guard<std::mutex> lock(latch.mu);
                if (!latch.error)
                    latch.error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(latch.mu);
            if (--latch.remaining == 0)
                latch.cv.notify_all();
        });
    }

    std::unique_lock<std::mutex> lock(latch.mu);
    latch.cv.wait(lock, [&latch] { return latch.remaining == 0; });
    if (latch.error)
        std::rethrow_exception(latch.error);
}

void
parallelFor(std::size_t n,
            const std::function<void(std::size_t, std::size_t)> &fn)
{
    parallelFor(n, fn, ParallelOptions{});
}

} // namespace sushi
