/**
 * @file
 * Data-parallel helpers: a persistent worker pool plus parallelFor
 * built on top of it.
 *
 * The pool is shared process-wide (WorkerPool::shared) so repeated
 * parallel regions — SNN training epochs, fault-campaign trials,
 * inference-engine batches — reuse the same threads instead of
 * paying thread start-up per call. Worker count comes from the
 * hardware, overridable with the SUSHI_WORKERS environment variable.
 *
 * Determinism contract: parallelFor assigns contiguous index chunks
 * to jobs; callers that write results only through their own indices
 * get results independent of the worker count. Nested parallelFor
 * calls from inside a pool worker run inline (no deadlock, no
 * oversubscription).
 */

#ifndef SUSHI_COMMON_PARALLEL_HH
#define SUSHI_COMMON_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sushi {

/** Knobs for parallelFor. */
struct ParallelOptions
{
    /** Minimum items per chunk before the loop is split; loops
     *  smaller than one grain run inline. Use grain = 1 for jobs
     *  whose per-item work is heavy (e.g. one chip replica). */
    std::size_t grain = 256;

    /** Cap on concurrent chunks (0 = pool size). Determinism checks
     *  use this to re-run identical work at different widths. */
    unsigned max_workers = 0;
};

/**
 * A fixed-size pool of worker threads draining a FIFO job queue.
 *
 * submit() never blocks; drain() blocks until every submitted job
 * has finished and rethrows the first exception a job raised.
 */
class WorkerPool
{
  public:
    /** @param workers thread count; 0 selects parallelWorkers(). */
    explicit WorkerPool(unsigned workers = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Enqueue a job; runs it inline if the pool has no threads. */
    void submit(std::function<void()> job);

    /** Wait until every submitted job finished; rethrows the first
     *  job exception. */
    void drain();

    /** The process-wide pool (created on first use, sized by
     *  parallelWorkers()). */
    static WorkerPool &shared();

    /** True when called from inside a pool worker thread. */
    static bool onWorkerThread();

  private:
    void workerMain();

    mutable std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    std::deque<std::function<void()>> queue_;
    std::size_t in_flight_ = 0;
    bool stop_ = false;
    std::exception_ptr error_;
    std::vector<std::thread> threads_;
};

/**
 * Run fn(begin, end) over [0, n) split across the shared pool.
 * Chunks are contiguous; fn must be safe to run concurrently on
 * disjoint ranges. Runs inline when n is small (per opts.grain) or
 * when already on a pool worker thread.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t, std::size_t)> &fn,
                 const ParallelOptions &opts);

/** parallelFor with default options (grain 256). */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t, std::size_t)> &fn);

/** Number of worker threads the shared pool uses: the SUSHI_WORKERS
 *  environment variable when set, else hardware concurrency. */
unsigned parallelWorkers();

/** CPUs this process may run on: its sched_getaffinity mask where
 *  the platform has one, else hardware concurrency (at least 1).
 *  Unlike parallelWorkers(), SUSHI_WORKERS does not change it. */
unsigned usableCpus();

} // namespace sushi

#endif // SUSHI_COMMON_PARALLEL_HH
