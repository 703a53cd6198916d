#include "exec/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace wfr::exec {

int hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

/// Parses WFR_JOBS once; invalid values warn and fall back to 0 (unset).
int env_jobs() {
  static const int value = [] {
    const char* text = std::getenv("WFR_JOBS");
    if (text == nullptr || *text == '\0') return 0;
    char* end = nullptr;
    const long parsed = std::strtol(text, &end, 10);
    if (end == nullptr || *end != '\0' || parsed < 1 || parsed > 1 << 16) {
      util::log_warn("ignoring invalid WFR_JOBS '" + std::string(text) +
                     "' (want a positive integer)");
      return 0;
    }
    return static_cast<int>(parsed);
  }();
  return value;
}

}  // namespace

int resolve_jobs(int requested) {
  if (requested >= 1) return requested;
  const int env = env_jobs();
  if (env >= 1) return env;
  return hardware_jobs();
}

std::uint64_t scenario_seed(std::uint64_t base_seed, std::size_t index) {
  // SplitMix64 finalizer over the combined words: adjacent indices map to
  // statistically independent streams for any base seed.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL *
                                    (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ThreadPool::ThreadPool(int jobs) {
  const int n = resolve_jobs(jobs);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  util::require(static_cast<bool>(task), "ThreadPool::submit needs a task");
  {
    std::unique_lock<std::mutex> lock(mutex_);
    util::require(!stopping_, "ThreadPool is shutting down");
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::set_queue_limit(std::size_t limit) {
  std::unique_lock<std::mutex> lock(mutex_);
  queue_limit_ = limit;
}

bool ThreadPool::try_submit(std::function<void()> task) {
  util::require(static_cast<bool>(task), "ThreadPool::try_submit needs a task");
  {
    std::unique_lock<std::mutex> lock(mutex_);
    util::require(!stopping_, "ThreadPool is shutting down");
    if (queue_limit_ != 0 && queue_.size() >= queue_limit_) return false;
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
  return true;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && busy_workers_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      // Drain-on-destruction: keep executing while work remains, even
      // when stopping.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++busy_workers_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --busy_workers_;
      if (queue_.empty() && busy_workers_ == 0) idle_.notify_all();
    }
  }
}

namespace detail {

namespace {

/// One worker's share of a parallel_for: claim indices until the range is
/// exhausted or an earlier index aborted the loop.
void for_loop_runner(ForLoopState& state, std::size_t count,
                     const std::function<void(std::size_t)>& body) {
  for (;;) {
    const std::size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= count || i >= state.abort_floor.load(std::memory_order_acquire))
      break;
    try {
      body(i);
    } catch (...) {
      // Remember the lowest-index failure; skip iterations above it.
      std::size_t floor = state.abort_floor.load(std::memory_order_acquire);
      while (i < floor && !state.abort_floor.compare_exchange_weak(
                              floor, i, std::memory_order_acq_rel)) {
      }
      std::unique_lock<std::mutex> lock(state.mutex);
      if (i < state.error_index) {
        state.error_index = i;
        state.error = std::current_exception();
      }
    }
  }
  std::unique_lock<std::mutex> lock(state.mutex);
  if (--state.live_runners == 0) state.done.notify_all();
}

}  // namespace

void run_parallel_for(ThreadPool& pool, std::size_t count,
                      const std::function<void(std::size_t)>& body) {
  util::require(static_cast<bool>(body), "parallel_for needs a body");
  if (count == 0) return;

  // Single-job pools run inline: no cross-thread handoff, and exceptions
  // propagate naturally at the first failing index.
  if (pool.jobs() == 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  ForLoopState state;
  const std::size_t runners =
      std::min<std::size_t>(static_cast<std::size_t>(pool.jobs()), count);
  state.live_runners = runners;
  for (std::size_t r = 0; r < runners; ++r)
    pool.submit([&state, count, &body] { for_loop_runner(state, count, body); });

  std::unique_lock<std::mutex> lock(state.mutex);
  state.done.wait(lock, [&state] { return state.live_runners == 0; });
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace detail

}  // namespace wfr::exec
