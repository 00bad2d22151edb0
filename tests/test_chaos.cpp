// Chaos-harness and watchdog tests (docs/OVERLOAD.md): the canned
// overload schedule keeps the dispatcher serving — zero stalled routes,
// bounded nonzero shed during the stale-plan window, stale exposure
// within the TTL, decisions byte-identical across driver thread counts
// — and two identical chaos runs agree bit for bit. The AsyncPlanner
// watchdog: an impossible deadline expires, retries descend the effort
// ladder, every slot still ends with an applied, audited plan, and the
// watchdog's cancel token never outlives its job on the policy.

#include "serve/chaos.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "core/balanced_policy.hpp"
#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "core/plan_handle.hpp"
#include "core/plan_json.hpp"
#include "core/policy.hpp"
#include "fault/fault.hpp"
#include "fault/resilient_controller.hpp"
#include "serve/async_planner.hpp"
#include "util/error.hpp"

namespace palb {
namespace {

using serve::AsyncPlanner;
using serve::ChaosOptions;
using serve::ChaosReport;
using serve::run_chaos;

ChaosOptions smoke_options() {
  ChaosOptions opt;
  opt.num_slots = 20;
  opt.requests_per_slot = 2048;
  opt.stale_plan_ttl_slots = 3;
  return opt;
}

TEST(Chaos, CannedScheduleKeepsTheDispatcherServing) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  const FaultSchedule schedule = fault_gen::canned_chaos();
  BalancedPolicy policy;
  const ChaosReport report =
      run_chaos(sc, schedule, policy, smoke_options());

  EXPECT_EQ(report.slots, 20u);
  // Planner stalled slots 6-8, publishes suppressed 4-6 and 12-15.
  EXPECT_EQ(report.stalled_solves, 3u);
  EXPECT_GT(report.delayed_publishes, 0u);
  // The surge-onset delay window outlives the TTL, so escalation fires.
  EXPECT_GE(report.ttl_escalations, 1u);

  // The acceptance gates: serving never stalls, decisions deterministic
  // across {1, 2, 4} driver threads, staleness within the TTL, shedding
  // nonzero (the stale pre-surge plan faced 3x demand) but bounded.
  EXPECT_EQ(report.stalled_routes, 0u);
  EXPECT_TRUE(report.decisions_identical);
  EXPECT_LE(report.max_stale_slots, 3u);
  EXPECT_GT(report.shed, 0u);
  EXPECT_LT(report.shed_fraction(), 0.5);
}

TEST(Chaos, ReportIsAPureFunctionOfItsInputs) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  const FaultSchedule schedule = fault_gen::canned_chaos();
  ChaosOptions opt = smoke_options();
  opt.num_slots = 12;
  opt.requests_per_slot = 1024;
  BalancedPolicy first_policy, second_policy;
  const ChaosReport a = run_chaos(sc, schedule, first_policy, opt);
  const ChaosReport b = run_chaos(sc, schedule, second_policy, opt);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.routed, b.routed);
  EXPECT_EQ(a.no_route, b.no_route);
  EXPECT_EQ(a.fallback_rungs, b.fallback_rungs);
  EXPECT_EQ(a.max_stale_slots, b.max_stale_slots);
  EXPECT_EQ(a.ttl_escalations, b.ttl_escalations);
}

TEST(Chaos, StallsWithoutSurgeShedNothing) {
  // A schedule with planner stalls but no demand change: the ladder
  // serves the previous slot's plan, which is sized for the same
  // offered mix — admission never triggers.
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  FaultEvent stall;
  stall.kind = FaultKind::kPlannerStall;
  stall.first_slot = 2;
  stall.last_slot = 5;
  const FaultSchedule schedule({stall});
  BalancedPolicy policy;
  ChaosOptions opt = smoke_options();
  opt.num_slots = 8;
  const ChaosReport report = run_chaos(sc, schedule, policy, opt);
  EXPECT_EQ(report.stalled_solves, 4u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.stalled_routes, 0u);
  EXPECT_TRUE(report.decisions_identical);
}

/// A solve that never beats its deadline: plan_slot, and the plan_slot
/// of its degraded() twin, wait until the installed cancel token flips
/// and then throw SolveCancelled. Any attempt that solves at all thus
/// expires, however the watchdog thread is scheduled.
class WaitsForCancelPolicy : public Policy {
 public:
  const std::string& name() const override { return name_; }
  DispatchPlan plan_slot(const Topology& /*topology*/,
                         const SlotInput& /*input*/) override {
    while (!cancel_->load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
    throw SolveCancelled("WaitsForCancelPolicy cancelled");
  }
  std::unique_ptr<Policy> degraded() const override {
    auto twin = std::make_unique<WaitsForCancelPolicy>();
    twin->cancel_ = cancel_;
    return twin;
  }
  void set_cancel(const std::atomic<bool>* cancel) override {
    cancel_ = cancel;
  }

 private:
  std::string name_ = "WaitsForCancel";
  const std::atomic<bool>* cancel_ = nullptr;
};

TEST(Watchdog, ImpossibleDeadlineDegradesButEverySlotStillPlans) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  PlanHandle live;
  AsyncPlanner::Options options;
  options.watchdog.solve_deadline_seconds = 1e-9;  // expires immediately
  options.watchdog.max_retries = 2;
  options.watchdog.backoff_base_seconds = 1e-4;  // keep the test fast
  AsyncPlanner planner(sc, FaultSchedule{}, live, options);

  WaitsForCancelPolicy policy;
  const RunResult run = planner.solve_async(policy, 3).get();

  // The first attempt (rungs 1-2) and the first retry (rung 2) wait for
  // the token, so both expire. The last retry solves nothing and may
  // finish before its watchdog observes the expiry, so the expiration
  // count is >= 2, not == 3. Each retry descends one effort rung, and
  // the stale window spans the whole retry phase.
  const AsyncPlanner::WatchdogStats stats = planner.watchdog_stats();
  EXPECT_GE(stats.deadline_expirations, 2u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_GT(stats.stale_plan_ns, 0u);

  // Graceful degradation, not an outage: the returned run is the final
  // attempt, capped at kPreviousPlan effort — rungs 1-2 skipped — and
  // every slot still carries an applied, audited plan, with the live
  // handle following along.
  ASSERT_EQ(run.plans.size(), 3u);
  for (const int rung : run.fallback_rungs) {
    EXPECT_GE(rung, static_cast<int>(FallbackRung::kPreviousPlan));
  }
  EXPECT_GT(live.version(), 0u);
}

/// Plans like BalancedPolicy and records the cancel token installed on
/// it, and whether one was installed while it planned.
class RecordsCancelPolicy : public Policy {
 public:
  const std::string& name() const override { return name_; }
  DispatchPlan plan_slot(const Topology& topology,
                         const SlotInput& input) override {
    if (cancel_ != nullptr) saw_token_ = true;
    return inner_.plan_slot(topology, input);
  }
  void set_cancel(const std::atomic<bool>* cancel) override {
    cancel_ = cancel;
  }
  const std::atomic<bool>* cancel() const { return cancel_; }
  bool saw_token() const { return saw_token_; }

 private:
  std::string name_ = "RecordsCancel";
  BalancedPolicy inner_;
  const std::atomic<bool>* cancel_ = nullptr;
  bool saw_token_ = false;
};

/// A planner whose watchdog arms a token on its solve thread's stack for
/// every job but never fires within a test.
AsyncPlanner::Options generous_deadline() {
  AsyncPlanner::Options options;
  options.watchdog.solve_deadline_seconds = 30.0;
  return options;
}

TEST(Watchdog, CancelTokenIsUninstalledAfterTheJob) {
  // The token dies with the job's stack frame, so the policy must not
  // hold it once the job is done.
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  PlanHandle live;
  AsyncPlanner planner(sc, FaultSchedule{}, live, generous_deadline());
  RecordsCancelPolicy policy;
  const RunResult run = planner.solve_async(policy, 1).get();
  ASSERT_EQ(run.plans.size(), 1u);
  EXPECT_TRUE(policy.saw_token());
  EXPECT_EQ(policy.cancel(), nullptr);
}

TEST(Watchdog, PolicyPlansDirectlyAfterAWatchdogJob) {
  // A direct plan_slot after a watchdog job must not poll the finished
  // job's token (a stack-use-after-return under ASan) and must plan as
  // a fresh policy does.
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  PlanHandle live;
  AsyncPlanner planner(sc, FaultSchedule{}, live, generous_deadline());
  OptimizedPolicy policy;
  (void)planner.solve_async(policy, 1).get();
  const SlotInput input = sc.slot_input(0);
  OptimizedPolicy fresh;
  EXPECT_EQ(plan_json::to_json(policy.plan_slot(sc.topology, input)).dump(),
            plan_json::to_json(fresh.plan_slot(sc.topology, input)).dump());
}

TEST(Watchdog, DisabledWatchdogRunsCleanly) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  PlanHandle live;
  AsyncPlanner planner(sc, FaultSchedule{}, live);  // deadline 0 = off
  BalancedPolicy policy;
  const RunResult run = planner.solve_async(policy, 2).get();
  EXPECT_EQ(run.plans.size(), 2u);
  const AsyncPlanner::WatchdogStats stats = planner.watchdog_stats();
  EXPECT_EQ(stats.deadline_expirations, 0u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.stale_plan_ns, 0u);
}

}  // namespace
}  // namespace palb
