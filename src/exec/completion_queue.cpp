#include "exec/completion_queue.hpp"

#include <utility>

#include "util/error.hpp"

namespace wfr::exec {

void CompletionQueue::set_wake(std::function<void()> wake) {
  std::unique_lock<std::mutex> lock(mutex_);
  wake_ = std::move(wake);
}

void CompletionQueue::post(std::function<void()> completion) {
  util::require(static_cast<bool>(completion),
                "CompletionQueue::post needs a completion");
  bool was_empty = false;
  std::function<void()> wake;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    was_empty = pending_.empty();
    pending_.push_back(std::move(completion));
    if (was_empty) wake = wake_;  // copy: the hook may be replaced later
  }
  if (wake) wake();
}

std::size_t CompletionQueue::drain_into(
    std::vector<std::function<void()>>& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::size_t taken = pending_.size();
  if (taken == 0) return 0;
  if (out.empty()) {
    out.swap(pending_);
  } else {
    out.insert(out.end(), std::make_move_iterator(pending_.begin()),
               std::make_move_iterator(pending_.end()));
    pending_.clear();
  }
  return taken;
}

std::size_t CompletionQueue::depth() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return pending_.size();
}

}  // namespace wfr::exec
