#include "fault/resilient_controller.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "check/plan_checker.hpp"
#include "cloud/accounting.hpp"
#include "cloud/plan.hpp"
#include "core/balanced_policy.hpp"
#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "core/plan_json.hpp"
#include "fault/fault.hpp"
#include "util/error.hpp"

namespace palb {
namespace {

/// A policy whose rung 1 (and rung 2, via degraded() = nullptr) always
/// fails — every slot must fall through to the lower rungs.
class AlwaysThrowingPolicy : public Policy {
 public:
  const std::string& name() const override {
    static const std::string kName = "AlwaysThrowing";
    return kName;
  }
  DispatchPlan plan_slot(const Topology&, const SlotInput&) override {
    throw NumericalError("synthetic planner crash");
  }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<AlwaysThrowingPolicy>();
  }
};

double shed_all_baseline(const Scenario& sc, const FaultSchedule& schedule,
                         std::size_t slots) {
  double profit = 0.0;
  for (std::size_t t = 0; t < slots; ++t) {
    const FaultedSlot world = schedule.materialize(sc, t);
    profit += evaluate_plan(world.topology, world.input,
                            DispatchPlan::zero(world.topology))
                  .net_profit();
  }
  return profit;
}

// The ISSUE's acceptance run: basic-low under the canned 24-slot
// schedule (DC 0 dark 8-11, corrupted rate trace at 3 and 15, a forced
// solver failure at 19).
TEST(ResilientController, CannedScheduleCompletesAuditedAndProfitable) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  const FaultSchedule schedule = fault_gen::canned_acceptance();
  const ResilientController controller(sc, schedule);
  OptimizedPolicy policy;

  RunResult run;
  ASSERT_NO_THROW(run = controller.run(policy, 24));
  ASSERT_EQ(run.plans.size(), 24u);
  ASSERT_EQ(run.fallback_rungs.size(), 24u);
  EXPECT_EQ(run.faulted_slots, 7u);

  // Every applied plan passes the full constraint audit against the
  // faulted world it was applied to.
  const PlanChecker checker;
  for (std::size_t t = 0; t < 24; ++t) {
    const FaultedSlot world = schedule.materialize(sc, t);
    const PlanCheckReport report =
        checker.check(world.topology, world.input, run.plans[t]);
    EXPECT_TRUE(report.ok()) << "slot " << t << ":\n" << report.summary();
  }

  // Recorded rungs match the schedule: the forced solver failure at 19
  // lands on the reduced-effort re-solve; everything else (including
  // the imputed-gap and dark-DC slots, which rung 1 handles from the
  // sanitized world) stays on the full solve.
  for (std::size_t t = 0; t < 24; ++t) {
    const FallbackRung expected =
        t == 19 ? FallbackRung::kReducedResolve : FallbackRung::kFullSolve;
    EXPECT_EQ(run.fallback_rungs[t], static_cast<int>(expected))
        << "slot " << t;
  }

  // Worth more than giving up: the ladder must beat shedding the whole
  // horizon.
  EXPECT_GE(run.total.net_profit(), shed_all_baseline(sc, schedule, 24));
}

TEST(ResilientController, UnwrappedPolicyFailsTheSameRun) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  const FaultSchedule schedule = fault_gen::canned_acceptance();
  OptimizedPolicy policy;
  // Slot 3's raw telemetry is NaN: a policy driven without the ladder
  // (and without the sanitized input) dies on its own input validation.
  const FaultedSlot world = schedule.materialize(sc, 3);
  EXPECT_THROW((void)policy.plan_slot(world.topology, world.raw_input),
               std::exception);
}

TEST(ResilientController, ByteIdenticalAcrossWorkerCounts) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  const FaultSchedule schedule = fault_gen::canned_acceptance();
  const ResilientController controller(sc, schedule);

  ResilientController::Options serial_opt;
  serial_opt.workers = 1;
  OptimizedPolicy serial_policy;
  const RunResult serial = controller.run(serial_policy, 24, 0, serial_opt);

  ResilientController::Options parallel_opt;
  parallel_opt.workers = 4;
  OptimizedPolicy parallel_policy;
  const RunResult parallel =
      controller.run(parallel_policy, 24, 0, parallel_opt);

  EXPECT_EQ(plan_json::run_to_json(serial).dump(),
            plan_json::run_to_json(parallel).dump());
  EXPECT_EQ(serial.fallback_rungs, parallel.fallback_rungs);
  EXPECT_EQ(serial.repair_adjustments, parallel.repair_adjustments);
  EXPECT_EQ(serial.faulted_slots, parallel.faulted_slots);
}

TEST(ResilientController, LadderFallsToHeuristicWhenThePolicyDies) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  const ResilientController controller(sc, FaultSchedule());
  AlwaysThrowingPolicy policy;
  const RunResult run = controller.run(policy, 4);
  // Slot 0 has no previous plan, so the first failure lands on the
  // heuristic; later slots reuse that plan at rung 3 (previous-plan
  // outranks re-running the heuristic).
  EXPECT_EQ(run.fallback_rungs[0],
            static_cast<int>(FallbackRung::kHeuristic));
  for (std::size_t t = 1; t < 4; ++t) {
    EXPECT_EQ(run.fallback_rungs[t],
              static_cast<int>(FallbackRung::kPreviousPlan))
        << "slot " << t;
  }
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_GT(run.slots[t].dispatched_requests, 0.0) << "slot " << t;
  }
}

TEST(ResilientController, LadderBottomsOutAtShedAllThenPreviousPlan) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  const ResilientController controller(sc, FaultSchedule());
  AlwaysThrowingPolicy policy;
  AlwaysThrowingPolicy broken_heuristic;
  ResilientController::Options opt;
  opt.heuristic = &broken_heuristic;
  const RunResult run = controller.run(policy, 3, 0, opt);
  // Slot 0 has no previous plan: only the shed-all floor remains. From
  // slot 1 on, re-applying the previous (zero) plan is rung 3.
  EXPECT_EQ(run.fallback_rungs[0], static_cast<int>(FallbackRung::kShedAll));
  for (std::size_t t = 1; t < 3; ++t) {
    EXPECT_EQ(run.fallback_rungs[t],
              static_cast<int>(FallbackRung::kPreviousPlan))
        << "slot " << t;
  }
  EXPECT_DOUBLE_EQ(run.total.dispatched_requests, 0.0);
}

TEST(ResilientController, FallbackRungNamesAreStable) {
  EXPECT_STREQ(to_string(FallbackRung::kFullSolve), "full-solve");
  EXPECT_STREQ(to_string(FallbackRung::kReducedResolve), "reduced-resolve");
  EXPECT_STREQ(to_string(FallbackRung::kPreviousPlan), "previous-plan");
  EXPECT_STREQ(to_string(FallbackRung::kHeuristic), "heuristic");
  EXPECT_STREQ(to_string(FallbackRung::kShedAll), "shed-all");
}

TEST(ResilientController, RejectsInvalidConfiguration) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  FaultEvent out_of_range;
  out_of_range.kind = FaultKind::kDcOutage;
  out_of_range.dc = 99;
  EXPECT_THROW(ResilientController(sc, FaultSchedule({out_of_range})),
               InvalidArgument);
}

}  // namespace
}  // namespace palb
