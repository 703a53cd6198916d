#pragma once
// Parallel scenario execution: a fixed-size worker pool plus the
// deterministic fan-out primitives every multi-scenario path in this
// library builds on (sweeps, gallery benches, autotuner warm-up batches).
//
// Determinism contract (docs/PARALLELISM.md):
//   * Results are written into pre-sized slots by scenario index — never
//     appended in completion order — so the output of parallel_map /
//     parallel_for is independent of scheduling.
//   * Any per-scenario randomness must be seeded from the scenario index
//     (see scenario_seed), never from a worker id or a shared generator,
//     so streams are identical at jobs=1 and jobs=N.
//   * Reductions over the results happen on the calling thread in index
//     order after the fan-out completes.
// Under this contract output is bit-for-bit identical for any job count.
//
// The pool is exception-safe: a body that throws aborts the remaining
// un-started iterations, the first-by-index captured exception is
// rethrown on the calling thread, and neither the pool nor the caller
// deadlocks.  The destructor drains queued work before joining.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace wfr::exec {

/// max(1, std::thread::hardware_concurrency()).
int hardware_jobs();

/// Resolves the effective job count: `requested` when >= 1, else the
/// WFR_JOBS environment variable when set to a positive integer, else
/// hardware_jobs().  A malformed or non-positive WFR_JOBS value is
/// ignored with a one-time warning (mirroring WFR_LOG_LEVEL handling).
int resolve_jobs(int requested = 0);

/// Deterministic per-scenario seed: a SplitMix64 mix of the base seed and
/// the scenario index.  Index-derived (never worker-derived) seeding is
/// what keeps stochastic sweeps identical across job counts.
std::uint64_t scenario_seed(std::uint64_t base_seed, std::size_t index);

/// A fixed-size thread pool with a FIFO work queue.  Tasks are opaque
/// thunks; the fan-out primitives below layer indexing and determinism on
/// top.  Destruction drains the queue (all submitted tasks run) and joins
/// every worker.
class ThreadPool {
 public:
  /// Starts resolve_jobs(jobs) workers.
  explicit ThreadPool(int jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  int jobs() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task.  Throws InvalidArgument on an empty function.
  void submit(std::function<void()> task);

  /// Bounds the pending-task queue for try_submit (0 = unbounded, the
  /// default).  submit() is never bounded — the deterministic fan-out
  /// primitives must not shed work.
  void set_queue_limit(std::size_t limit);

  /// Load-shedding submit: enqueues and returns true unless the queue
  /// already holds queue-limit pending tasks, in which case the task is
  /// rejected (returns false, task dropped).  This is the bounded accept
  /// queue behind `wfr serve`'s 503 responses (docs/SERVER.md).
  bool try_submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t queue_limit_ = 0;
  int busy_workers_ = 0;
  bool stopping_ = false;
};

namespace detail {

/// Shared state of one parallel_for: an atomic index dispenser plus
/// first-by-index exception capture.
struct ForLoopState {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> abort_floor{std::numeric_limits<std::size_t>::max()};
  std::mutex mutex;
  std::condition_variable done;
  std::size_t live_runners = 0;
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
};

void run_parallel_for(ThreadPool& pool, std::size_t count,
                      const std::function<void(std::size_t)>& body);

}  // namespace detail

/// Executes body(0..count-1) on the pool; blocks until every iteration
/// finished.  Iterations run in an unspecified order, so the body must
/// only write state owned by its index.  When a body throws, remaining
/// un-started iterations with a higher index are skipped and the
/// lowest-index captured exception is rethrown here.  With jobs() == 1
/// the loop runs inline on the calling thread.
inline void parallel_for(ThreadPool& pool, std::size_t count,
                         const std::function<void(std::size_t)>& body) {
  detail::run_parallel_for(pool, count, body);
}

/// parallel_for writing `fn(i)` into slot i of a pre-sized result vector.
/// R must be default-constructible.
template <typename R>
std::vector<R> parallel_map(ThreadPool& pool, std::size_t count,
                            const std::function<R(std::size_t)>& fn) {
  std::vector<R> results(count);
  parallel_for(pool, count, [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace wfr::exec
