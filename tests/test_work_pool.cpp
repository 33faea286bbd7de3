// Tests for the off-loop crypto worker pool (crypto/work_pool.hpp): the
// zero-thread pool must be fully synchronous (the simulator's determinism
// contract), the threaded pool must run work off-thread but completions
// on the draining thread, the notify hook must fire, destruction must
// drain queued work rather than drop it, and run_parallel must use no
// more threads than the pool has.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "crypto/work_pool.hpp"

namespace sintra::crypto {
namespace {

TEST(WorkPool, InlineModeRunsEverythingSynchronously) {
  WorkPool pool(0);
  EXPECT_TRUE(pool.inline_mode());
  EXPECT_EQ(pool.threads(), 0u);

  const std::thread::id self = std::this_thread::get_id();
  std::vector<int> order;
  pool.submit(
      [&] {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back(1);
      },
      [&] {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back(2);
      });
  // Both closures already ran, in order, before submit returned — so
  // there is nothing left for a drain to do.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(pool.drain_completions(), 0u);
}

TEST(WorkPool, InlineCompletionsNeverNeedANotifyHook) {
  WorkPool pool(0);
  int notified = 0;
  pool.set_completion_notify([&] { ++notified; });
  int completed = 0;
  pool.submit([] {}, [&] { ++completed; });
  EXPECT_EQ(completed, 1);
  // Inline mode completes in submit(); the hook is a threaded-mode
  // mechanism and must not fire (nothing was queued).
  EXPECT_EQ(notified, 0);
}

TEST(WorkPool, ThreadedPoolRunsWorkOffThreadAndCompletionsOnOwner) {
  WorkPool pool(2);
  EXPECT_FALSE(pool.inline_mode());
  EXPECT_EQ(pool.threads(), 2u);

  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  std::set<std::thread::id> work_threads;
  std::vector<std::thread::id> completion_threads;

  const int kJobs = 16;
  for (int i = 0; i < kJobs; ++i) {
    pool.submit(
        [&] {
          std::lock_guard<std::mutex> lk(mu);
          work_threads.insert(std::this_thread::get_id());
        },
        [&] {
          completion_threads.push_back(std::this_thread::get_id());
          std::lock_guard<std::mutex> lk(mu);
          ++done;
          cv.notify_one();
        });
  }

  // Completions only run when the owner drains; poll until all arrived.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int drained = 0;
  while (drained < kJobs && std::chrono::steady_clock::now() < deadline) {
    drained += static_cast<int>(pool.drain_completions());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(drained, kJobs);
  EXPECT_EQ(done, kJobs);

  const std::thread::id self = std::this_thread::get_id();
  // Work ran on worker threads, never on the owner.
  EXPECT_FALSE(work_threads.empty());
  EXPECT_FALSE(work_threads.contains(self));
  // Every completion ran on the thread that called drain_completions().
  ASSERT_EQ(completion_threads.size(), static_cast<std::size_t>(kJobs));
  for (const std::thread::id id : completion_threads) EXPECT_EQ(id, self);
}

TEST(WorkPool, CompletionNotifyFiresForThreadedJobs) {
  WorkPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  int notified = 0;
  pool.set_completion_notify([&] {
    std::lock_guard<std::mutex> lk(mu);
    ++notified;
    cv.notify_one();
  });
  std::atomic<int> worked{0};
  pool.submit([&] { worked.fetch_add(1); }, [] {});

  std::unique_lock<std::mutex> lk(mu);
  ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(30),
                          [&] { return notified >= 1; }));
  lk.unlock();
  EXPECT_EQ(worked.load(), 1);
  EXPECT_EQ(pool.drain_completions(), 1u);
}

TEST(WorkPool, DestructorDrainsQueuedWork) {
  // Submit a burst that cannot possibly finish before the destructor
  // runs; the pool must complete every work closure before joining
  // (undrained completions are allowed to be dropped, the work is not).
  std::atomic<int> worked{0};
  const int kJobs = 64;
  {
    WorkPool pool(1);
    for (int i = 0; i < kJobs; ++i) {
      pool.submit(
          [&] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            worked.fetch_add(1);
          },
          [] {});
    }
  }
  EXPECT_EQ(worked.load(), kJobs);
}

TEST(WorkPool, RunParallelUsesAtMostThePoolsThreads) {
  // The caller counts as one of the pool's threads, so a batch never runs
  // on more than threads() threads: a pool sized to the cores never puts
  // one thread more on them.
  for (const std::size_t threads : {1u, 2u, 3u}) {
    WorkPool pool(threads);
    std::atomic<std::size_t> running{0};
    std::atomic<std::size_t> peak{0};
    std::mutex mu;
    std::set<std::thread::id> ran_on;
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 24; ++i) {
      jobs.push_back([&] {
        const std::size_t now = running.fetch_add(1) + 1;
        std::size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        {
          const std::lock_guard lk(mu);
          ran_on.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        running.fetch_sub(1);
      });
    }
    pool.run_parallel(jobs);
    EXPECT_LE(peak.load(), threads) << threads << " threads";
    EXPECT_LE(ran_on.size(), threads) << threads << " threads";
  }
}

TEST(WorkPool, ManyProducersOneDrainer) {
  // The completion queue is MPSC: hammer it from several producer threads
  // submitting through the same pool while the owner drains.
  WorkPool pool(3);
  std::atomic<int> completed{0};
  const int kProducers = 4;
  const int kPerProducer = 50;
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) {
          pool.submit([] {}, [&] { completed.fetch_add(1); });
        }
      });
    }
  }
  const int kTotal = kProducers * kPerProducer;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int drained = 0;
  while (drained < kTotal && std::chrono::steady_clock::now() < deadline) {
    drained += static_cast<int>(pool.drain_completions());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(drained, kTotal);
  EXPECT_EQ(completed.load(), kTotal);
}

}  // namespace
}  // namespace sintra::crypto
