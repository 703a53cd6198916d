// Tests for the thread pool and the deterministic fan-out primitives.
// The load-bearing invariant — identical results for any job count — is
// exercised directly: every determinism test runs the same workload at
// jobs = 1, 2, and 8 and demands equality.

#include "exec/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "math/rng.hpp"

namespace wfr::exec {
namespace {

TEST(ResolveJobsTest, ExplicitRequestWins) {
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
}

TEST(ResolveJobsTest, ZeroFallsBackToAPositiveCount) {
  // Without WFR_JOBS the fallback is hardware_jobs(); with it, the env
  // value.  Either way the result is positive (env cases are covered by
  // the exec_env_jobs_* ctests, which run in a controlled environment).
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(hardware_jobs(), 1);
}

TEST(ResolveJobsTest, HonorsValidEnvValue) {
  // Meaningful only when the harness sets WFR_JOBS (the
  // exec_env_jobs_valid ctest runs this with WFR_JOBS=3).
  const char* env = std::getenv("WFR_JOBS");
  if (env == nullptr) GTEST_SKIP() << "WFR_JOBS not set";
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || value < 1)
    GTEST_SKIP() << "WFR_JOBS invalid; covered by exec_env_jobs_invalid";
  EXPECT_EQ(resolve_jobs(0), static_cast<int>(value));
}

TEST(ScenarioSeedTest, DistinctPerIndexAndBase) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base = 0; base < 4; ++base)
    for (std::size_t i = 0; i < 64; ++i)
      seen.insert(scenario_seed(base, i));
  EXPECT_EQ(seen.size(), 4u * 64u);  // no collisions in a small grid
  // And deterministic.
  EXPECT_EQ(scenario_seed(42, 7), scenario_seed(42, 7));
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.jobs(), 4);
    for (int i = 0; i < 100; ++i)
      pool.submit([&count] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&count] { count.fetch_add(1); });
    // No wait_idle(): destruction must still run every submitted task.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, SubmitRejectsEmptyTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(std::function<void()>()), std::exception);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (int jobs : {1, 2, 8}) {
    ThreadPool pool(jobs);
    std::vector<std::atomic<int>> hits(257);
    parallel_for(pool, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, ZeroCountIsANoOp) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelForTest, ExceptionPropagatesWithoutDeadlock) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 100,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom 13");
                   }),
      std::runtime_error);
  // The pool survives and stays usable after a throwing loop.
  std::atomic<int> count{0};
  parallel_for(pool, 10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelForTest, LowestIndexExceptionWins) {
  // Every iteration throws; the rethrown message must name the lowest
  // captured index for any job count.
  for (int jobs : {1, 2, 8}) {
    ThreadPool pool(jobs);
    try {
      parallel_for(pool, 64, [](std::size_t i) {
        throw std::runtime_error("boom " + std::to_string(i));
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 0") << "jobs=" << jobs;
    }
  }
}

TEST(ParallelMapTest, ResultsLandBySlotIndex) {
  for (int jobs : {1, 2, 8}) {
    ThreadPool pool(jobs);
    const std::vector<int> out = parallel_map<int>(
        pool, 100, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ParallelMapTest, IndexSeededRngIsJobCountInvariant) {
  // The determinism contract end-to-end: per-scenario rng streams seeded
  // by index produce bit-identical doubles at jobs = 1, 2, and 8.
  auto draw = [](int jobs) {
    ThreadPool pool(jobs);
    return parallel_map<double>(pool, 64, [](std::size_t i) {
      math::Rng rng(scenario_seed(2024, i));
      double sum = 0.0;
      for (int k = 0; k < 16; ++k) sum += rng.uniform();
      return sum;
    });
  };
  const std::vector<double> serial = draw(1);
  EXPECT_EQ(serial, draw(2));
  EXPECT_EQ(serial, draw(8));
}

TEST(ParallelForTest, FixedOrderReductionMatchesSerial) {
  // Floating-point reduction over the slots on the calling thread in
  // index order: identical bytes regardless of completion order.
  auto reduce = [](int jobs) {
    ThreadPool pool(jobs);
    const std::vector<double> parts = parallel_map<double>(
        pool, 1000,
        [](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); });
    return std::accumulate(parts.begin(), parts.end(), 0.0);
  };
  const double serial = reduce(1);
  EXPECT_EQ(serial, reduce(2));
  EXPECT_EQ(serial, reduce(8));
}

}  // namespace
}  // namespace wfr::exec
