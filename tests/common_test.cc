#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/bitset64.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/thread_pool.h"

namespace pinum {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kFailedPrecondition, StatusCode::kUnavailable,
        StatusCode::kDeadlineExceeded}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::Internal("boom");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  PINUM_ASSIGN_OR_RETURN(int half, Half(x));
  *out = half;
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseAssignOrReturn(7, &out).code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differ = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differ;
  }
  EXPECT_GT(differ, 0);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(0, 3));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(13);
  auto sample = rng.SampleIndices(50, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (size_t s : sample) EXPECT_LT(s, 50u);
}

TEST(RelSetTest, BasicSetOps) {
  RelSet s = RelSet::Single(3).With(5);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Contains(5));
  EXPECT_FALSE(s.Contains(4));
  EXPECT_EQ(s.Count(), 2);
  EXPECT_EQ(s.Lowest(), 3);
}

TEST(RelSetTest, UnionIntersectMinus) {
  const RelSet a(0b1010), b(0b0110);
  EXPECT_EQ(a.Union(b).bits(), 0b1110u);
  EXPECT_EQ(a.Intersect(b).bits(), 0b0010u);
  EXPECT_EQ(a.Minus(b).bits(), 0b1000u);
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_TRUE(a.Union(b).ContainsAll(a));
}

TEST(RelSetTest, FirstN) {
  EXPECT_EQ(RelSet::FirstN(0).bits(), 0u);
  EXPECT_EQ(RelSet::FirstN(3).bits(), 0b111u);
  EXPECT_EQ(RelSet::FirstN(7).Count(), 7);
}

TEST(RelSetTest, ForEachVisitsAscending) {
  RelSet s(0b101001);
  std::vector<int> seen;
  s.ForEach([&](int pos) { seen.push_back(pos); });
  EXPECT_EQ(seen, (std::vector<int>{0, 3, 5}));
}

TEST(StrUtilTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ", "), "");
  EXPECT_EQ(StrJoin({"x"}, ", "), "x");
}

TEST(StrUtilTest, AsciiUpper) {
  EXPECT_EQ(AsciiUpper("select"), "SELECT");
  EXPECT_EQ(AsciiUpper("MiXeD_123"), "MIXED_123");
}

TEST(ThreadPoolTest, RunsEveryIteration) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    const int64_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "i=" << i;
    }
  }
}

// An exception from the body must reach the caller — not std::terminate
// on a worker, and not a deadlocked completion barrier (the pre-fix
// behaviour: the throwing iteration skipped its `remaining` decrement,
// so the caller waited forever while the worker died).
TEST(ThreadPoolTest, BodyExceptionRethrownOnCaller) {
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    const int64_t n = 256;
    std::atomic<int64_t> ran{0};
    bool caught = false;
    try {
      pool.ParallelFor(n, [&](int64_t i) {
        if (i == 7) throw std::runtime_error("iteration 7 failed");
        ran++;
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "iteration 7 failed");
    }
    EXPECT_TRUE(caught);
    EXPECT_LT(ran.load(), n);  // the throwing iteration never counts
    // The pool survives: the same pool serves the next region normally.
    std::atomic<int64_t> after{0};
    pool.ParallelFor(n, [&](int64_t) { after++; });
    EXPECT_EQ(after.load(), n);
  }
}

TEST(ThreadPoolTest, EveryIterationThrowingStillCompletes) {
  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.ParallelFor(64, [](int64_t) { throw std::logic_error("all"); }),
        std::logic_error);
  }
}

// Finished regions must not leave their queued helper entries behind:
// before the fix, a caller that finished all iterations while workers
// slept left stale closures in the queue (holding the region state
// alive) to be drained as no-ops at the start of the *next* region.
TEST(ThreadPoolTest, NoLeftoverTasksAfterParallelFor) {
  ThreadPool pool(8);
  // Tiny regions maximize the chance the caller finishes before any
  // worker wakes; with the fix the queue is empty after *every* return.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> ran{0};
    pool.ParallelFor(2, [&](int64_t) { ran++; });
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(pool.QueueDepthForTesting(), 0u) << "round " << round;
  }
}

TEST(ThreadPoolTest, QueueDrainsAfterThrowingRegionToo) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    EXPECT_THROW(pool.ParallelFor(3, [](int64_t i) {
      if (i == 0) throw std::runtime_error("boom");
    }),
                 std::runtime_error);
    EXPECT_EQ(pool.QueueDepthForTesting(), 0u) << "round " << round;
  }
}

// Concurrent ParallelFor calls from different threads share the workers
// but complete independently — the serving engine reseals on the
// builder's pool while a batched sweep may be using it too.
TEST(ThreadPoolTest, ConcurrentRegionsFromTwoCallers) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  std::thread other([&] {
    for (int r = 0; r < 20; ++r) {
      pool.ParallelFor(64, [&](int64_t) { total++; });
    }
  });
  for (int r = 0; r < 20; ++r) {
    pool.ParallelFor(64, [&](int64_t) { total++; });
  }
  other.join();
  EXPECT_EQ(total.load(), 2 * 20 * 64);
  EXPECT_EQ(pool.QueueDepthForTesting(), 0u);
}

TEST(ThreadPoolTest, InjectedNthHitFaultRethrownAndPoolSurvives) {
  ThreadPool pool(4);
  FailPoint::Config fault;
  fault.mode = FailPoint::Mode::kNthHit;
  fault.nth_hit = 5;
  fault.status = Status::Internal("injected task fault");
  ScopedFailPoint guard("thread_pool.task", fault);
  std::atomic<int64_t> ran{0};
  EXPECT_THROW(pool.ParallelFor(64, [&](int64_t) { ran++; }),
               std::runtime_error);
  EXPECT_EQ(FailPoint::FireCount("thread_pool.task"), 1);
  // The nth-hit fault fires exactly once; the pool stays usable.
  std::atomic<int64_t> after{0};
  pool.ParallelFor(64, [&](int64_t) { after++; });
  EXPECT_EQ(after.load(), 64);
  EXPECT_EQ(pool.QueueDepthForTesting(), 0u);
}

TEST(ThreadPoolTest, SeededProbabilityFaultsLeaveQueueClean) {
  ThreadPool pool(4);
  FailPoint::Config fault;
  fault.mode = FailPoint::Mode::kProbability;
  fault.probability = 0.05;
  fault.seed = 17;
  fault.status = Status::Unavailable("injected flaky task");
  ScopedFailPoint guard("thread_pool.task", fault);
  int threw = 0;
  for (int round = 0; round < 50; ++round) {
    try {
      pool.ParallelFor(32, [](int64_t) {});
    } catch (const std::runtime_error&) {
      threw++;
    }
    // A throwing region must still retire its queue entries.
    EXPECT_EQ(pool.QueueDepthForTesting(), 0u);
  }
  EXPECT_GT(threw, 0);
  // A region rethrows only the first fault, so fires >= throwing regions.
  EXPECT_GE(FailPoint::FireCount("thread_pool.task"),
            static_cast<int64_t>(threw));
}

TEST(ThreadPoolTest, TeardownAfterStalledConcurrentRegionsIsClean) {
  FailPoint::Config stall;
  stall.mode = FailPoint::Mode::kAlways;
  stall.status = Status::OK();
  stall.delay = std::chrono::milliseconds(2);
  ScopedFailPoint guard("thread_pool.task", stall);
  std::atomic<int64_t> ran{0};
  {
    ThreadPool pool(4);
    std::thread other(
        [&] { pool.ParallelFor(16, [&](int64_t) { ran++; }); });
    pool.ParallelFor(16, [&](int64_t) { ran++; });
    other.join();
    EXPECT_EQ(pool.QueueDepthForTesting(), 0u);
    // Pool destructor runs right after the delayed regions drain; a
    // worker still waking from the stall must not crash teardown.
  }
  EXPECT_EQ(ran.load(), 32);
}

}  // namespace
}  // namespace pinum
