#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>

#include "core/controller.hpp"
#include "core/plan_handle.hpp"
#include "core/policy.hpp"
#include "fault/fault.hpp"
#include "fault/resilient_controller.hpp"
#include "util/thread_pool.hpp"

namespace palb::serve {

/// The serving slow path: runs ResilientController solves asynchronously
/// on a ThreadPool and hot-swaps every applied plan into a PlanHandle
/// the moment the ladder accepts it — in slot order, post-audit — so a
/// Dispatcher's routing tables follow the run while it is in flight.
///
/// One pool thread executes solve jobs in submission order (a Policy is
/// not safe for concurrent plan_slot calls); each job runs its candidate
/// solves serially, exactly as a foreground ResilientController run with
/// default options would. The fast path never waits on this class:
/// readers route against whatever plan version has landed, and `route()`
/// returns an explicit no-route until the first publish.
class AsyncPlanner {
 public:
  /// Solve-lifecycle watchdog (docs/OVERLOAD.md): a wall-clock budget
  /// per solve attempt, enforced by cooperative cancellation. When the
  /// budget expires, the attempt's cancel token flips, in-flight full
  /// solves abort at pivot-batch granularity, and the ladder finishes
  /// the run from its cheaper rungs — the dispatcher keeps serving the
  /// whole time. The planner then retries after a jittered exponential
  /// backoff, each retry capped one effort rung lower
  /// (full-solve -> reduced-resolve -> previous-plan), so a retry that
  /// fits the budget re-publishes fresher plans.
  ///
  /// The watchdog is *real-time* hardening and deliberately outside the
  /// determinism perimeter: byte-identical chaos runs use planner-stall
  /// faults (fault.hpp), which model the same event as a pure function
  /// of (scenario, schedule, slot).
  struct Watchdog {
    /// Wall-clock budget per solve attempt in seconds; 0 disables the
    /// watchdog entirely (no thread, no token — today's behavior).
    double solve_deadline_seconds = 0.0;
    /// Retries after a deadline expiration (on top of the first
    /// attempt); each one descends the effort ladder by one rung.
    std::size_t max_retries = 2;
    /// Backoff before retry r is base * 2^r, scaled by a deterministic
    /// jitter factor in [0.5, 1.5) drawn from a stream seeded by the
    /// job's first slot.
    double backoff_base_seconds = 0.02;
  };

  /// Cumulative watchdog telemetry across all solve_async jobs.
  struct WatchdogStats {
    /// Attempts whose deadline expired (the cancel token flipped).
    std::uint64_t deadline_expirations = 0;
    /// Retry attempts launched after an expiration.
    std::uint64_t retries = 0;
    /// Wall-clock nanoseconds between a job's *first* deadline
    /// expiration and its final attempt returning — the window during
    /// which the live handle served plans degraded by cancellation
    /// while retries were still in flight.
    std::uint64_t stale_plan_ns = 0;
  };

  /// `live` is not owned and must outlive the planner. The 3-argument
  /// form runs with the watchdog disabled.
  AsyncPlanner(Scenario scenario, FaultSchedule schedule, PlanHandle& live);
  AsyncPlanner(Scenario scenario, FaultSchedule schedule, PlanHandle& live,
               Watchdog watchdog);
  /// Joins the solve thread; queued runs complete first (ThreadPool
  /// shutdown contract).
  ~AsyncPlanner();

  AsyncPlanner(const AsyncPlanner&) = delete;
  AsyncPlanner& operator=(const AsyncPlanner&) = delete;

  const ResilientController& controller() const { return controller_; }
  const PlanHandle& live() const { return live_; }

  /// Enqueues an asynchronous run of [first_slot, first_slot + num_slots).
  /// `policy` must outlive the returned future's completion and must not
  /// be used by the caller until then. The future carries the RunResult
  /// (or rethrows a configuration error).
  std::future<RunResult> solve_async(Policy& policy, std::size_t num_slots,
                                     std::size_t first_slot = 0);

  WatchdogStats watchdog_stats() const;

 private:
  /// One job's body on the solve thread: the watchdog-guarded retry
  /// loop (or a plain run when the watchdog is disabled).
  RunResult run_guarded(Policy& policy, std::size_t num_slots,
                        std::size_t first_slot);

  ResilientController controller_;
  PlanHandle& live_;
  Watchdog watchdog_;
  std::atomic<std::uint64_t> deadline_expirations_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> stale_plan_ns_{0};
  ThreadPool pool_;
};

}  // namespace palb::serve
