#include "util/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace odf {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(100, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 4, 7}) {
    ThreadPool pool(threads);
    for (int64_t n : {0, 1, 5, 64, 1000, 1027}) {
      for (int64_t grain : {1, 8, 100, 5000}) {
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        for (auto& h : hits) h = 0;
        pool.ParallelFor(n, grain, [&](int64_t begin, int64_t end) {
          EXPECT_LE(0, begin);
          EXPECT_LE(begin, end);
          EXPECT_LE(end, n);
          for (int64_t i = begin; i < end; ++i) {
            hits[static_cast<size_t>(i)].fetch_add(1);
          }
        });
        for (int64_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
              << "threads=" << threads << " n=" << n << " grain=" << grain
              << " i=" << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, InlineThreadRunsWholeRangeOnItself) {
  ThreadPool pool(4);
  std::thread marked([&] {
    ThreadPool::RunInlineOnThisThread();
    const std::thread::id self = std::this_thread::get_id();
    int calls = 0;
    pool.ParallelFor(1000, 1, [&](int64_t begin, int64_t end) {
      ++calls;
      EXPECT_EQ(begin, 0);
      EXPECT_EQ(end, 1000);
      EXPECT_EQ(std::this_thread::get_id(), self);
    });
    EXPECT_EQ(calls, 1);
  });
  marked.join();
  // The mark is per thread: this thread still splits the range.
  std::atomic<int> chunks{0};
  pool.ParallelFor(1000, 1, [&](int64_t, int64_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 4);
}

TEST(ThreadPoolTest, GrainLimitsChunkCount) {
  ThreadPool pool(8);
  std::atomic<int> chunks{0};
  // n=10, grain=6 -> at most ceil(10/6)=2 chunks regardless of thread count.
  pool.ParallelFor(10, 6, [&](int64_t begin, int64_t end) {
    EXPECT_GE(end - begin, 1);
    chunks.fetch_add(1);
  });
  EXPECT_LE(chunks.load(), 2);
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  constexpr int64_t kN = 123457;
  std::vector<std::atomic<int64_t>> partial(1);
  partial[0] = 0;
  pool.ParallelFor(kN, 1000, [&](int64_t begin, int64_t end) {
    int64_t local = 0;
    for (int64_t i = begin; i < end; ++i) local += i;
    partial[0].fetch_add(local);
  });
  EXPECT_EQ(partial[0].load(), kN * (kN - 1) / 2);
}

TEST(ThreadPoolTest, NestedCallsRunInline) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(8, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      // A nested ParallelFor from inside a task must not deadlock; it runs
      // inline on the worker (or caller) that owns the outer chunk.
      pool.ParallelFor(100, 1, [&](int64_t b2, int64_t e2) {
        total.fetch_add(e2 - b2);
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 100);
}

TEST(ThreadPoolTest, ResizeChangesThreadCount) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.threads(), 2);
  pool.Resize(5);
  EXPECT_EQ(pool.threads(), 5);
  std::atomic<int64_t> count{0};
  pool.ParallelFor(1000, 1, [&](int64_t begin, int64_t end) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), 1000);
  pool.Resize(1);
  EXPECT_EQ(pool.threads(), 1);
  count = 0;
  pool.ParallelFor(37, 1, [&](int64_t begin, int64_t end) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), 37);
}

TEST(ThreadPoolTest, GlobalPoolIsUsable) {
  std::atomic<int64_t> count{0};
  ParallelFor(257, 16, [&](int64_t begin, int64_t end) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), 257);
}

}  // namespace
}  // namespace odf
