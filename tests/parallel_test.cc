#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <vector>

namespace dagperf {
namespace {

// --- ThreadPool regression suite (locked down before the pool was promoted
// --- from src/engine/ to src/common/).

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolStressTest, DeepTaskRecursionCompletes) {
  // Tasks submitting tasks submitting tasks: a chain deeper than the worker
  // count must still drain (workers never block on children).
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::function<void(int)> recurse = [&](int depth) {
    counter.fetch_add(1);
    if (depth > 0) pool.Submit([&recurse, depth] { recurse(depth - 1); });
  };
  pool.Submit([&recurse] { recurse(200); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 201);
}

TEST(ThreadPoolStressTest, ManyConcurrentWaiters) {
  // Several threads blocked in Wait() must all wake when the pool drains.
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 500; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  std::vector<std::thread> waiters;
  std::atomic<int> woke{0};
  for (int w = 0; w < 8; ++w) {
    waiters.emplace_back([&] {
      pool.Wait();
      EXPECT_EQ(done.load(), 500);
      woke.fetch_add(1);
    });
  }
  for (auto& t : waiters) t.join();
  EXPECT_EQ(woke.load(), 8);
}

TEST(ThreadPoolStressTest, DestructionDrainsQueuedWork) {
  // The destructor joins only after queued tasks ran: work submitted before
  // destruction is never dropped.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 300; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(10));
        counter.fetch_add(1);
      });
    }
    // No Wait(): destruction races the queue.
  }
  EXPECT_EQ(counter.load(), 300);
}

TEST(ThreadPoolStressTest, SubmitWaitChurn) {
  // Interleaved submit/wait cycles from the owner while workers hammer the
  // queue — the pattern the engine's per-stage pools exercise.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 40);
  }
}

// --- ParallelFor / ParallelMap.

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 10000;
  std::vector<std::atomic<int>> counts(kN);
  ParallelFor(0, kN, [&](std::int64_t i) { counts[i].fetch_add(1); }, &pool);
  for (int i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ParallelForTest, EmptyAndSingletonRanges) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(5, 5, [&](std::int64_t) { ++calls; }, &pool);
  EXPECT_EQ(calls, 0);
  std::atomic<int> one{0};
  ParallelFor(7, 8, [&](std::int64_t i) { one.fetch_add(static_cast<int>(i)); },
              &pool);
  EXPECT_EQ(one.load(), 7);
}

TEST(ParallelForTest, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      ParallelFor(
          0, 1000,
          [&](std::int64_t i) {
            if (i == 17) throw std::runtime_error("boom");
            ran.fetch_add(1);
          },
          &pool),
      std::runtime_error);
  // After the throw the remaining iterations are skipped, not wedged.
  EXPECT_LT(ran.load(), 1000);
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  // An outer ParallelFor whose body runs inner ParallelFors on the same
  // pool: the caller-participates design keeps this deadlock-free even when
  // every worker is occupied.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  ParallelFor(
      0, 8,
      [&](std::int64_t) {
        ParallelFor(0, 8, [&](std::int64_t) { total.fetch_add(1); }, &pool);
      },
      &pool);
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelForTest, UsesDefaultPoolWhenUnspecified) {
  std::atomic<int> total{0};
  ParallelFor(0, 100, [&](std::int64_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 100);
  EXPECT_GE(DefaultPool().size(), 1);
}

TEST(ParallelMapTest, PreservesInputOrder) {
  ThreadPool pool(4);
  std::vector<int> items(1000);
  for (int i = 0; i < 1000; ++i) items[i] = i;
  const std::vector<int> out =
      ParallelMap(items, [](int x) { return 3 * x + 1; }, &pool);
  ASSERT_EQ(out.size(), items.size());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(out[i], 3 * i + 1);
}

}  // namespace
}  // namespace dagperf
