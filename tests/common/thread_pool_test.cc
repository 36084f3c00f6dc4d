#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "truth/truth_method.h"

namespace ltm {
namespace {

TEST(ThreadPoolTest, ZeroWorkerPoolRunsOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  std::vector<int> hits(10, 0);
  Status st = pool.ParallelFor(0, 10, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ++hits[i];
  });
  EXPECT_TRUE(st.ok());
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  // Deliberately non-divisible range/grain combinations.
  for (size_t grain : {1u, 3u, 7u, 100u}) {
    std::vector<std::atomic<int>> hits(101);
    for (auto& h : hits) h = 0;
    Status st = pool.ParallelFor(0, hits.size(), grain,
                                 [&](size_t lo, size_t hi) {
                                   for (size_t i = lo; i < hi; ++i) ++hits[i];
                                 });
    EXPECT_TRUE(st.ok());
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "grain=" << grain;
  }
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  int calls = 0;
  Status st = pool.ParallelFor(5, 5, 1,
                               [&](size_t, size_t) { ++calls; });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, GrainZeroIsClampedToOne) {
  ThreadPool pool(2);
  std::atomic<int> covered{0};
  Status st = pool.ParallelFor(0, 8, 0, [&](size_t lo, size_t hi) {
    covered += static_cast<int>(hi - lo);
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(covered.load(), 8);
}

TEST(ThreadPoolTest, CancellationStopsMidParallelFor) {
  ThreadPool pool(2);
  std::atomic<bool> cancel{false};
  RunContext ctx;
  ctx.cancel = &cancel;
  RunObserver obs(ctx, "test");

  std::atomic<int> chunks_run{0};
  // Cancel from inside the third chunk: later chunks must not dispatch.
  Status st = pool.ParallelFor(
      0, 1000, 1,
      [&](size_t, size_t) {
        if (chunks_run.fetch_add(1) == 2) cancel = true;
      },
      [&obs] { return obs.Check(); });
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  // In-flight chunks may complete, but the bulk of the range must have
  // been skipped (1000 chunks, cancelled within the first handful).
  EXPECT_LT(chunks_run.load(), 100);
}

TEST(ThreadPoolTest, DeadlineExpiresMidParallelFor) {
  ThreadPool pool(2);
  RunContext ctx;
  ctx.deadline_seconds = 0.02;
  RunObserver obs(ctx, "test");

  std::atomic<int> chunks_run{0};
  Status st = pool.ParallelFor(
      0, 100000, 1,
      [&](size_t, size_t) {
        ++chunks_run;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      },
      [&obs] { return obs.Check(); });
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(chunks_run.load(), 1000);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  std::atomic<int> chunks_run{0};
  std::atomic<bool> thrown{false};
  EXPECT_THROW(
      pool.ParallelFor(0, 1000, 1,
                       [&](size_t, size_t) {
                         // The first chunk taken throws; every other chunk
                         // is slow, so runners cannot burn through the
                         // whole range inside the tiny window before they
                         // observe the stop flag. (The previous version
                         // threw on a fixed index with free chunks and
                         // flaked under load when the throwing runner was
                         // preempted mid-throw.)
                         if (!thrown.exchange(true)) {
                           throw std::runtime_error("boom");
                         }
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(1));
                         ++chunks_run;
                       }),
      std::runtime_error);
  // The throw stops dispatch: each of the (at most 3) runners can start
  // only a handful of 1ms chunks before seeing the stop flag, so almost
  // all of the 999 non-throwing chunks must never have run.
  EXPECT_LT(chunks_run.load(), 100);
}

TEST(ThreadPoolTest, ParallelForRethrowsNonStdExceptionTypes) {
  // The barrier transports exceptions as a type-erased
  // std::exception_ptr, so a thrown value with no std::exception base
  // must arrive at the caller intact — not sliced, swallowed, or
  // converted to something else.
  ThreadPool pool(2);
  bool caught = false;
  try {
    (void)pool.ParallelFor(0, 8, 1, [](size_t lo, size_t) {
      if (lo == 0) throw 42;
    });
  } catch (int e) {
    caught = true;
    EXPECT_EQ(e, 42);
  }
  EXPECT_TRUE(caught);
}

TEST(ThreadPoolTest, ExceptionWinsOverCancelRacingAtTheBarrier) {
  // A task exception and a RunContext-style cancellation landing in the
  // same ParallelFor must resolve deterministically: the exception is
  // rethrown at the barrier and the cancel status is dropped. The
  // stop_check below only starts cancelling once the throw has happened,
  // so the two always race.
  ThreadPool pool(2);
  std::atomic<bool> thrown{false};
  EXPECT_THROW(
      pool.ParallelFor(
          0, 1000, 1,
          [&](size_t, size_t) {
            if (!thrown.exchange(true)) throw std::runtime_error("boom");
          },
          [&]() -> Status {
            return thrown.load(std::memory_order_acquire)
                       ? Status::Cancelled("cancel raced the throw")
                       : Status::OK();
          }),
      std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Workers entering a nested ParallelFor must drain their own chunks
  // instead of blocking the pool; 2 workers, 4 outer x 8 inner chunks.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  Status st = pool.ParallelFor(0, 4, 1, [&](size_t, size_t) {
    Status nested = pool.ParallelFor(0, 8, 1, [&](size_t, size_t) {
      ++inner_total;
    });
    EXPECT_TRUE(nested.ok());
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPoolTest, SubmitRunsTasks) {
  // Declared before the pool, so the pool joins its workers first: the
  // last task may still lock `m` and notify after the wait below returns.
  std::atomic<int> done{0};
  std::mutex m;
  std::condition_variable cv;
  ThreadPool pool(2);
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&] {
      if (done.fetch_add(1) + 1 == 16) {
        std::lock_guard<std::mutex> lock(m);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(m);
  cv.wait_for(lock, std::chrono::seconds(30),
              [&] { return done.load() == 16; });
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
  EXPECT_GE(ThreadPool::Shared().num_workers(), 1);
}

TEST(ThreadPoolTest, SubmitWithStatusResolvesTheFuture) {
  ThreadPool pool(2);
  auto ok = pool.SubmitWithStatus([] { return Status::OK(); });
  EXPECT_TRUE(ok.get().ok());
  auto err = pool.SubmitWithStatus(
      [] { return Status::IOError("disk on fire"); });
  EXPECT_EQ(err.get().code(), StatusCode::kIOError);
  EXPECT_EQ(err.get().message(), "disk on fire");
}

TEST(ThreadPoolTest, SubmitWithStatusCapturesExceptionsAsInternal) {
  ThreadPool pool(1);
  auto f = pool.SubmitWithStatus(
      []() -> Status { throw std::runtime_error("boom"); });
  EXPECT_EQ(f.get().code(), StatusCode::kInternal);
  EXPECT_NE(f.get().message().find("boom"), std::string::npos);
}

TEST(ThreadPoolTest, SubmitWithStatusCapturesNonStdExceptionAsInternal) {
  // The catch(...) fallback: a thrown value outside the std::exception
  // hierarchy still resolves the future (as Internal) instead of
  // terminating the worker thread.
  ThreadPool pool(1);
  auto f = pool.SubmitWithStatus([]() -> Status { throw 42; });
  EXPECT_EQ(f.get().code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, SubmitWithStatusRunsInlineOnAZeroWorkerPool) {
  ThreadPool pool(0);
  std::atomic<bool> ran{false};
  auto f = pool.SubmitWithStatus([&] {
    ran = true;
    return Status::OK();
  });
  // No workers exist, so the job must already have run.
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(f.get().ok());
}

}  // namespace
}  // namespace ltm
