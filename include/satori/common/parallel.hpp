/**
 * @file
 * A fixed-size thread pool for embarrassingly parallel index-addressed
 * fan-out. Originally a harness-layer facility for multi-seed
 * experiment repeats; it lives in common so lower layers (notably the
 * bo engine's batched acquisition scoring) can share it without a
 * layering violation - common depends on nothing above it.
 *
 * Determinism contract: parallelism here never changes results. Each
 * work item derives everything from its index (seed, mix, output
 * slot), writes only to its own pre-sized slot, and aggregation
 * happens afterwards in index order on the calling thread. That makes
 * statistics bit-identical to a serial loop at every thread count -
 * the property tests/harness_test.cpp pins.
 *
 * Work items must not share mutable state. In particular the obs
 * layer's tracer/audit sinks and ExperimentOptions' on_interval /
 * trace / faults hooks are process- or run-shared; callers that set
 * any of those must run serially.
 */

#ifndef SATORI_COMMON_PARALLEL_HPP
#define SATORI_COMMON_PARALLEL_HPP

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "satori/common/thread_annotations.hpp"

namespace satori {
namespace common {

/**
 * Worker count used when a caller passes threads = 0: the
 * SATORI_THREADS environment variable when set to a positive integer,
 * else std::thread::hardware_concurrency(), else 1.
 */
[[nodiscard]] std::size_t defaultThreadCount();

/**
 * A fixed-size pool that executes one batch of index-addressed work.
 *
 * Workers claim indices [0, count) from a shared atomic-free counter
 * (mutex-protected; the work items dominate, not the claim). The
 * first exception thrown by any work item is captured and rethrown
 * from forEachIndex() on the calling thread; remaining indices are
 * abandoned.
 */
class ThreadPool
{
  public:
    /** Spawn @p workers threads (at least 1). */
    explicit ThreadPool(std::size_t workers);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Joins all workers; pending batches must have completed. */
    ~ThreadPool();

    /** Number of worker threads. */
    [[nodiscard]] std::size_t workerCount() const { return threads_.size(); }

    /**
     * Run fn(i) for every i in [0, count), distributing indices over
     * the workers, and block until all complete. Rethrows the first
     * work-item exception. Not reentrant: one batch at a time.
     */
    void forEachIndex(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

  private:
    void workerLoop();

    std::vector<std::thread> threads_; ///< Fixed after construction.
    Mutex mutex_;
    CondVar work_cv_; ///< Signals workers: batch ready/stop.
    CondVar done_cv_; ///< Signals caller: batch drained.
    const std::function<void(std::size_t)>* fn_
        SATORI_GUARDED_BY(mutex_) = nullptr;
    /// Size of the current batch.
    std::size_t count_ SATORI_GUARDED_BY(mutex_) = 0;
    /// Next unclaimed index.
    std::size_t next_ SATORI_GUARDED_BY(mutex_) = 0;
    /// Indices claimed but not finished.
    std::size_t in_flight_ SATORI_GUARDED_BY(mutex_) = 0;
    /// Bumped per batch to wake workers.
    std::uint64_t generation_ SATORI_GUARDED_BY(mutex_) = 0;
    std::exception_ptr first_error_ SATORI_GUARDED_BY(mutex_);
    bool stopping_ SATORI_GUARDED_BY(mutex_) = false;
};

/**
 * Run fn(i) for i in [0, count) on up to @p threads workers
 * (0 = defaultThreadCount()). Runs inline on the calling thread when
 * the effective worker count or @p count is <= 1, so single-threaded
 * callers pay no thread overhead and sanitizer-free stacks stay
 * simple. Rethrows the first work-item exception.
 */
void parallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t)>& fn);

} // namespace common
} // namespace satori

#endif // SATORI_COMMON_PARALLEL_HPP
