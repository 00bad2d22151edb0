#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace palb {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, ComputesSameResultAsSerial) {
  std::vector<double> parallel_out(257), serial_out(257);
  ThreadPool pool(6);
  parallel_for(pool, parallel_out.size(), [&](std::size_t i) {
    parallel_out[i] = static_cast<double>(i) * 1.5 + 1.0;
  });
  for (std::size_t i = 0; i < serial_out.size(); ++i) {
    serial_out[i] = static_cast<double>(i) * 1.5 + 1.0;
  }
  EXPECT_EQ(parallel_out, serial_out);
}

TEST(ParallelFor, RethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 100,
                            [](std::size_t i) {
                              if (i == 37) throw InvalidArgument("i==37");
                            }),
               InvalidArgument);
}

TEST(ParallelFor, TransientPoolOverload) {
  std::atomic<int> counter{0};
  parallel_for(64, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, DefaultSizeIsHardwareBound) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 7; });
  pool.shutdown();
  pool.shutdown();
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), InvalidArgument);
}

TEST(ThreadPool, ShutdownRunsEveryQueuedJob) {
  // More jobs than workers, then immediate shutdown: the queue must be
  // drained, not dropped.
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&executed] { ++executed; }));
  }
  pool.shutdown();
  for (auto& f : futures) f.get();
  EXPECT_EQ(executed.load(), 200);
}

TEST(ThreadPool, ConcurrentSubmitAndShutdownStress) {
  // Producers hammer submit() while the main thread shuts the pool down
  // (and a second thread races the shutdown itself). Every job that
  // submit() accepted must run; late submits must throw, never hang.
  // This is the test the tsan preset exists for.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(3);
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};
    constexpr int kProducers = 4;
    std::vector<std::vector<std::future<void>>> futures(kProducers);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < 50; ++i) {
          try {
            futures[p].push_back(
                pool.submit([&executed] { ++executed; }));
            ++accepted;
          } catch (const InvalidArgument&) {
            return;  // pool is shutting down; acceptable from here on
          }
        }
      });
    }
    std::thread racing_shutdown([&pool] { pool.shutdown(); });
    pool.shutdown();
    racing_shutdown.join();
    for (auto& t : producers) t.join();
    for (auto& per_producer : futures) {
      for (auto& f : per_producer) f.get();  // accepted => completed
    }
    EXPECT_EQ(executed.load(), accepted.load());
  }
}

TEST(BoundedWorkers, NeverExceedsJobs) {
  EXPECT_EQ(bounded_workers(8, 3), 3u);
  EXPECT_EQ(bounded_workers(2, 100), 2u);
  EXPECT_EQ(bounded_workers(5, 5), 5u);
}

TEST(BoundedWorkers, AtLeastOne) {
  EXPECT_EQ(bounded_workers(4, 0), 1u);
  EXPECT_EQ(bounded_workers(1, 1), 1u);
}

TEST(BoundedWorkers, ZeroRequestsHardwareConcurrency) {
  const std::size_t resolved = bounded_workers(0, 1000);
  EXPECT_GE(resolved, 1u);
  EXPECT_LE(resolved,
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

TEST(ParallelFor, LowestIndexExceptionWinsDeterministically) {
  ThreadPool pool(8);
  // Several iterations throw; whichever thread finishes first, the
  // caller must always see the lowest-index failure.
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for(pool, 64, [](std::size_t i) {
        if (i == 11 || i == 40 || i == 63) {
          throw InvalidArgument("i==" + std::to_string(i));
        }
      });
      FAIL() << "parallel_for must rethrow";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("i==11"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ParallelFor, RandomThrowingSubsetDrainsAndRethrows) {
  // The ThreadPool fault path, run under the tsan preset: a random
  // subset of tasks throwing must never terminate() or deadlock, every
  // non-throwing task must still have executed (workers drain), and the
  // caller gets the first (lowest-index) exception.
  std::mt19937_64 rng(1234);
  ThreadPool pool(8);
  for (int round = 0; round < 25; ++round) {
    const std::size_t n = 80;
    std::vector<std::uint8_t> throws(n, 0);
    std::size_t first_thrower = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng() % 5 == 0) {
        throws[i] = 1;
        first_thrower = std::min(first_thrower, i);
      }
    }
    std::atomic<std::size_t> executed{0};
    try {
      parallel_for(pool, n, [&](std::size_t i) {
        ++executed;
        if (throws[i]) {
          throw NumericalError("task " + std::to_string(i));
        }
      });
      EXPECT_EQ(first_thrower, n) << "round " << round;
    } catch (const NumericalError& e) {
      ASSERT_LT(first_thrower, n) << "round " << round;
      EXPECT_NE(std::string(e.what())
                    .find("task " + std::to_string(first_thrower)),
                std::string::npos)
          << e.what();
    }
    // No worker bailed early: every iteration ran exactly once.
    EXPECT_EQ(executed.load(), n) << "round " << round;
  }
}

}  // namespace
}  // namespace palb
