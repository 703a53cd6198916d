// exec::CompletionQueue — the MPSC handoff between pool workers and the
// serve event loops: posting, batched draining, and the empty->non-empty
// wake contract (docs/PARALLELISM.md).

#include "exec/completion_queue.hpp"

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::exec {
namespace {

// What an event loop does with the queue: take the pending batch, run it,
// and report how many ran.  Completions posted while it runs wait for the
// next call.
std::size_t drain(CompletionQueue& queue) {
  std::vector<std::function<void()>> batch;
  queue.drain_into(batch);
  for (std::function<void()>& completion : batch) completion();
  return batch.size();
}

TEST(CompletionQueueTest, DrainRunsPostedCompletionsInOrder) {
  CompletionQueue queue;
  std::vector<int> ran;
  queue.post([&ran] { ran.push_back(1); });
  queue.post([&ran] { ran.push_back(2); });
  queue.post([&ran] { ran.push_back(3); });
  EXPECT_EQ(queue.depth(), 3u);
  EXPECT_EQ(drain(queue), 3u);
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(drain(queue), 0u);
}

TEST(CompletionQueueTest, WakeFiresOnlyOnEmptyToNonEmptyTransition) {
  CompletionQueue queue;
  int wakes = 0;
  queue.set_wake([&wakes] { ++wakes; });

  queue.post([] {});
  queue.post([] {});
  queue.post([] {});
  EXPECT_EQ(wakes, 1);  // one wake per batch, not per completion

  drain(queue);
  queue.post([] {});
  EXPECT_EQ(wakes, 2);  // empty again -> next post wakes
}

TEST(CompletionQueueTest, DrainIsBoundedToTheCurrentBatch) {
  // A completion that posts another completion must not run it in the
  // same drain call — that's what keeps one drain finite inside an
  // event-loop iteration.
  CompletionQueue queue;
  int ran = 0;
  queue.post([&queue, &ran] {
    ++ran;
    queue.post([&ran] { ++ran; });
  });
  EXPECT_EQ(drain(queue), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_EQ(drain(queue), 1u);
  EXPECT_EQ(ran, 2);
}

TEST(CompletionQueueTest, DrainIntoAppendsWithoutRunning) {
  CompletionQueue queue;
  int ran = 0;
  queue.post([&ran] { ++ran; });
  queue.post([&ran] { ++ran; });

  std::vector<std::function<void()>> batch;
  batch.push_back([&ran] { ran += 10; });
  EXPECT_EQ(queue.drain_into(batch), 2u);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(ran, 0);  // taken, not executed
  for (auto& fn : batch) fn();
  EXPECT_EQ(ran, 12);
}

TEST(CompletionQueueTest, PostRequiresACallable) {
  CompletionQueue queue;
  EXPECT_THROW(queue.post(std::function<void()>{}), util::Error);
}

TEST(CompletionQueueTest, ConcurrentProducersAllArrive) {
  // The serve shape: N pool workers post, one loop drains.
  CompletionQueue queue;
  std::atomic<int> ran{0};
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 500;

  std::atomic<bool> stop{false};
  std::thread consumer([&queue, &ran, &stop] {
    while (!stop.load(std::memory_order_acquire) || queue.depth() > 0)
      if (drain(queue) == 0) std::this_thread::yield();
    (void)ran;
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &ran] {
      for (int i = 0; i < kPerProducer; ++i)
        queue.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  for (std::thread& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  consumer.join();
  drain(queue);  // anything the consumer missed at shutdown
  EXPECT_EQ(ran.load(), kProducers * kPerProducer);
}

TEST(CompletionQueueTest, WakeRunsOnThePostingThread) {
  // The wake hook is the eventfd write in production: it must fire on
  // the producer's thread (the loop may be blocked in epoll_wait).
  CompletionQueue queue;
  std::thread::id wake_thread;
  queue.set_wake([&wake_thread] { wake_thread = std::this_thread::get_id(); });

  std::thread producer([&queue] { queue.post([] {}); });
  const std::thread::id producer_id = producer.get_id();
  producer.join();
  EXPECT_EQ(wake_thread, producer_id);
  drain(queue);
}

}  // namespace
}  // namespace wfr::exec
