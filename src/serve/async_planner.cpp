#include "serve/async_planner.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <optional>
#include <thread>
#include <utility>

#include "core/controller.hpp"
#include "core/policy.hpp"
#include "fault/resilient_controller.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace palb::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// One rung down the effort ladder per retry; kPreviousPlan is the
/// floor (a run capped there does no candidate solving at all, so it
/// cannot blow any deadline the ladder itself doesn't).
FallbackRung lower_effort(FallbackRung effort) {
  switch (effort) {
    case FallbackRung::kFullSolve:
      return FallbackRung::kReducedResolve;
    case FallbackRung::kReducedResolve:
      return FallbackRung::kPreviousPlan;
    default:
      return effort;
  }
}

}  // namespace

AsyncPlanner::AsyncPlanner(Scenario scenario, FaultSchedule schedule,
                           PlanHandle& live)
    : AsyncPlanner(std::move(scenario), std::move(schedule), live,
                   Watchdog{}) {}

AsyncPlanner::AsyncPlanner(Scenario scenario, FaultSchedule schedule,
                           PlanHandle& live, Watchdog watchdog)
    : controller_(std::move(scenario), std::move(schedule)),
      live_(live),
      watchdog_(watchdog),
      pool_(1) {}

AsyncPlanner::~AsyncPlanner() { pool_.shutdown(); }

RunResult AsyncPlanner::run_guarded(Policy& policy, std::size_t num_slots,
                                    std::size_t first_slot) {
  ResilientController::Options run_options;
  run_options.live = &live_;
  const Watchdog& wd = watchdog_;
  if (wd.solve_deadline_seconds <= 0.0) {
    return controller_.run(policy, num_slots, first_slot, run_options);
  }

  // Deterministic backoff jitter: a pure function of (first_slot, retry
  // index), so two planners back off alike.
  SplitMix64 jitter(0x9E3779B97F4A7C15ull *
                    (static_cast<std::uint64_t>(first_slot) + 1));
  std::optional<Clock::time_point> first_expiry;
  RunResult result;
  for (std::size_t attempt = 0;; ++attempt) {
    std::atomic<bool> cancel{false};
    Mutex mu;
    CondVar cv;
    bool done = false;     // under mu
    bool expired = false;  // written by the dog under mu, read after join
    // The watchdog itself: sleeps on the condvar for the remaining
    // budget, and on a genuine timeout flips the cancel token —
    // in-flight full solves abort at their next pivot-batch poll and
    // the ladder serves the rest of the run from cheaper rungs.
    std::thread dog([&] {
      const auto armed = Clock::now();
      MutexLock lock(mu);
      while (!done) {
        const double remaining =
            wd.solve_deadline_seconds -
            std::chrono::duration<double>(Clock::now() - armed).count();
        if (remaining <= 0.0) break;
        cv.wait_for(mu, remaining);  // spurious wakeups re-check above
      }
      if (!done) {
        expired = true;
        cancel.store(true, std::memory_order_relaxed);
      }
    });
    run_options.cancel = &cancel;
    result = controller_.run(policy, num_slots, first_slot, run_options);
    {
      MutexLock lock(mu);
      done = true;
    }
    cv.notify_all();
    dog.join();

    if (!expired) break;
    deadline_expirations_.fetch_add(1, std::memory_order_relaxed);
    if (!first_expiry) first_expiry = Clock::now();
    if (attempt >= wd.max_retries) break;
    retries_.fetch_add(1, std::memory_order_relaxed);
    const double unit =
        static_cast<double>(jitter.next() >> 11) * 0x1.0p-53;
    const double backoff = wd.backoff_base_seconds *
                           static_cast<double>(std::uint64_t{1} << attempt) *
                           (0.5 + unit);
    // Retry backoff paces the wall-clock watchdog, which is deliberately
    // outside the determinism perimeter (docs/OVERLOAD.md); the plans
    // themselves stay a pure function of (topology, input, max_effort).
    // palb-lint: allow(D1) watchdog backoff never shapes plan contents
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    run_options.max_effort = lower_effort(run_options.max_effort);
  }
  if (first_expiry) {
    stale_plan_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration<double, std::nano>(Clock::now() -
                                                     *first_expiry)
                .count()),
        std::memory_order_relaxed);
  }
  return result;
}

std::future<RunResult> AsyncPlanner::solve_async(Policy& policy,
                                                 std::size_t num_slots,
                                                 std::size_t first_slot) {
  return pool_.submit([this, &policy, num_slots, first_slot] {
    return run_guarded(policy, num_slots, first_slot);
  });
}

AsyncPlanner::WatchdogStats AsyncPlanner::watchdog_stats() const {
  WatchdogStats out;
  out.deadline_expirations =
      deadline_expirations_.load(std::memory_order_relaxed);
  out.retries = retries_.load(std::memory_order_relaxed);
  out.stale_plan_ns = stale_plan_ns_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace palb::serve
