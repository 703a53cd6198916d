#pragma once
// A multi-producer single-consumer completion queue: the handoff half of
// the serve reactor's threading model (docs/PARALLELISM.md).  Pool
// workers finish CPU-heavy work on ThreadPool threads and post a
// completion thunk here; the owning event loop drains them on its own
// thread, so connection state is only ever touched single-threaded.
//
// The queue itself knows nothing about epoll: a wake hook installed by
// the consumer (e.g. an eventfd write) fires on every empty -> non-empty
// transition, which is exactly what lets a blocked epoll_wait learn that
// completions are pending.  Posting when the queue is already non-empty
// skips the hook — one wake per batch, not per completion.
//
// Thread-safety: post() from any thread; drain_into() only from
// the consumer thread.  The wake hook runs on the posting thread and
// must itself be thread-safe (an eventfd write is).

#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

namespace wfr::exec {

class CompletionQueue {
 public:
  CompletionQueue() = default;

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Installs the empty->non-empty wake hook (replacing any previous
  /// one).  Install before producers start posting; the hook is called
  /// without the queue lock held.
  void set_wake(std::function<void()> wake);

  /// Enqueues a completion from any thread.  Fires the wake hook when
  /// the queue was empty.
  void post(std::function<void()> completion);

  /// Moves every pending completion into `out` (appended) and returns
  /// how many were taken.  Consumer thread only.  Taking instead of
  /// running under the lock keeps completions free to post further
  /// completions without deadlocking.
  std::size_t drain_into(std::vector<std::function<void()>>& out);

  /// Pending completions (may be stale the moment it returns; exposed on
  /// /metrics as the per-loop queue-depth gauge).
  std::size_t depth() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::function<void()>> pending_;
  std::function<void()> wake_;
};

}  // namespace wfr::exec
