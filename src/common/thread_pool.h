// A small fixed-size thread pool used to parallelize embarrassingly
// parallel build work (one PINUM cache per distinct statement, batched
// configuration pricing) and the serving engine's coalesced sweeps.
// Results are written into caller-indexed slots, so output is
// deterministic regardless of scheduling.
#ifndef PINUM_COMMON_THREAD_POOL_H_
#define PINUM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pinum {

/// Fixed pool of worker threads with a shared FIFO queue of parallel
/// regions (one region per ParallelFor call).
class ThreadPool {
 public:
  /// `num_threads` <= 0 uses std::thread::hardware_concurrency(). A pool
  /// of size 1 runs everything on the caller's thread (no workers), which
  /// makes single-threaded runs exactly sequential — the determinism
  /// baseline the tests compare parallel runs against.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that can make progress concurrently (>= 1; counts
  /// the caller participating in ParallelFor).
  int size() const { return size_; }

  /// Runs `fn(i)` for every i in [0, n). Blocks until all iterations
  /// finish. The caller participates, so the pool is never idle while the
  /// caller spins. `fn` must not call ParallelFor on the same pool.
  ///
  /// Exception-safe: if any iteration throws, the first exception (by
  /// completion order) is rethrown on the caller after every claimed
  /// iteration has finished — never on a worker (which would terminate
  /// the process) and never by abandoning the completion barrier (which
  /// would deadlock the caller and dangle `fn`). Once an iteration has
  /// thrown, not-yet-claimed iterations are skipped; which other
  /// iterations ran to completion is unspecified. Concurrent
  /// ParallelFor calls from different threads on one pool are allowed
  /// (regions share the workers but complete independently).
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  /// Queued region entries not yet claimed by a worker. ParallelFor
  /// removes its own entries before returning, so with no ParallelFor in
  /// flight this is always 0 — the regression probe for the old
  /// behaviour where a finished region's leftover tasks lingered (holding
  /// its state alive) until the next ParallelFor drained them as no-ops.
  size_t QueueDepthForTesting() const;

 private:
  /// Shared state of one ParallelFor call: workers and the caller pull
  /// indices until the range is exhausted; `remaining` counts finished
  /// iterations; the first exception parks in `error` for the caller.
  struct Region {
    int64_t n = 0;
    /// Caller-owned; valid until ParallelFor returns. Only dereferenced
    /// after claiming an index < n, which cannot happen once `remaining`
    /// hits 0 — the earliest the caller can return.
    const std::function<void(int64_t)>* fn = nullptr;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> remaining{0};
    /// Set once an iteration has thrown; later claims skip the body.
    std::atomic<bool> failed{false};
    std::mutex error_mu;
    std::exception_ptr error;  // guarded by error_mu
    std::mutex done_mu;
    std::condition_variable done_cv;
  };

  /// Claims and runs iterations of `region` until exhausted, trapping
  /// exceptions into region->error.
  static void RunRegion(Region* region);

  void WorkerLoop();

  int size_ = 1;
  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Region>> queue_;
  bool stop_ = false;
};

}  // namespace pinum

#endif  // PINUM_COMMON_THREAD_POOL_H_
