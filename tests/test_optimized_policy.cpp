#include "core/optimized_policy.hpp"

#include <gtest/gtest.h>

#include "cloud/accounting.hpp"
#include "core/balanced_policy.hpp"
#include "core/controller.hpp"
#include "core/paper_scenarios.hpp"
#include "scenario_fixtures.hpp"

namespace palb {
namespace {

using testing_fixtures::small_input;
using testing_fixtures::small_topology;

TEST(OptimizedPolicy, ProducesValidPlan) {
  OptimizedPolicy policy;
  const Topology topo = small_topology();
  const SlotInput input = small_input();
  const DispatchPlan plan = policy.plan_slot(topo, input);
  EXPECT_TRUE(plan.is_valid(topo, input)) << [&] {
    std::string all;
    for (const auto& v : plan.violations(topo, input)) all += v + "; ";
    return all;
  }();
  EXPECT_GT(policy.profiles_examined(), 0u);
}

TEST(OptimizedPolicy, NetProfitIsNonNegative) {
  // The all-off plan (profit 0) is always in the search space.
  OptimizedPolicy policy;
  const Topology topo = small_topology();
  for (double scale : {0.0, 0.5, 1.0, 5.0, 20.0}) {
    const SlotInput input = small_input(scale);
    const DispatchPlan plan = policy.plan_slot(topo, input);
    const SlotMetrics m = evaluate_plan(topo, input, plan);
    EXPECT_GE(m.net_profit(), -1e-6) << "scale=" << scale;
  }
}

TEST(OptimizedPolicy, BeatsBalancedOnTheFixture) {
  OptimizedPolicy optimized;
  BalancedPolicy balanced;
  const Topology topo = small_topology();
  for (double scale : {0.5, 1.0, 2.0, 4.0}) {
    const SlotInput input = small_input(scale);
    const double opt =
        evaluate_plan(topo, input, optimized.plan_slot(topo, input))
            .net_profit();
    const double bal =
        evaluate_plan(topo, input, balanced.plan_slot(topo, input))
            .net_profit();
    EXPECT_GE(opt, bal - 1e-6) << "scale=" << scale;
  }
}

TEST(OptimizedPolicy, AllRoutedQueuesAreStableAndInBand) {
  OptimizedPolicy policy;
  const Topology topo = small_topology();
  const SlotInput input = small_input(3.0);
  const DispatchPlan plan = policy.plan_slot(topo, input);
  const SlotMetrics m = evaluate_plan(topo, input, plan);
  for (const auto& per_class : m.outcomes) {
    for (const auto& outcome : per_class) {
      if (outcome.rate <= 0.0) continue;
      EXPECT_TRUE(outcome.stable);
      // Every served stream lands inside some paying band.
      EXPECT_GE(outcome.tuf_level, 0);
    }
  }
}

TEST(OptimizedPolicy, ServesEverythingWhenCapacityIsAmple) {
  OptimizedPolicy policy;
  const Topology topo = small_topology();
  const SlotInput input = small_input(0.4);
  const DispatchPlan plan = policy.plan_slot(topo, input);
  const SlotMetrics m = evaluate_plan(topo, input, plan);
  // With utilities orders of magnitude above costs, dropping traffic is
  // never optimal at light load.
  EXPECT_NEAR(m.completed_fraction(), 1.0, 1e-9);
}

TEST(OptimizedPolicy, PowersOffIdleDataCenters) {
  OptimizedPolicy policy;
  const Topology topo = small_topology();
  SlotInput input = small_input(0.0);
  const DispatchPlan plan = policy.plan_slot(topo, input);
  for (const auto& dc : plan.dc) EXPECT_EQ(dc.servers_on, 0);
}

TEST(OptimizedPolicy, ChasesCheapElectricityWhenCostsDominate) {
  // Strip wire costs and make energy the whole story: with equal muscle,
  // the optimizer must prefer the cheap-price DC.
  Topology topo = small_topology();
  topo.classes = {{"heavy", StepTuf::constant(0.02, 0.1), 0.0}};
  topo.datacenters[0].service_rate = {100.0};
  topo.datacenters[1].service_rate = {100.0};
  topo.datacenters[0].energy_per_request_kwh = {0.05};
  topo.datacenters[1].energy_per_request_kwh = {0.05};

  SlotInput input;
  input.arrival_rate = {{80.0, 80.0}};  // fits comfortably in one DC
  input.price = {0.03, 0.15};
  input.slot_seconds = 3600.0;

  OptimizedPolicy policy;
  const DispatchPlan plan = policy.plan_slot(topo, input);
  EXPECT_GT(plan.class_dc_rate(0, 0), plan.class_dc_rate(0, 1));
}

TEST(OptimizedPolicy, AvoidsFarDataCenterWhenWireCostsDominate) {
  Topology topo = small_topology();
  topo.classes = {{"chatty", StepTuf::constant(0.01, 0.1), 4e-6}};
  topo.datacenters[0].service_rate = {100.0};
  topo.datacenters[1].service_rate = {100.0};
  topo.datacenters[0].energy_per_request_kwh = {0.001};
  topo.datacenters[1].energy_per_request_kwh = {0.001};
  topo.distance_miles = {{100.0, 2500.0}, {100.0, 2500.0}};

  SlotInput input;
  input.arrival_rate = {{60.0, 60.0}};
  input.price = {0.05, 0.05};
  input.slot_seconds = 3600.0;

  OptimizedPolicy policy;
  const DispatchPlan plan = policy.plan_slot(topo, input);
  EXPECT_GT(plan.class_dc_rate(0, 0), plan.class_dc_rate(0, 1));
}

TEST(OptimizedPolicy, DegradesToLowerBandUnderPressure) {
  // Load exceeding top-band capacity: the two-level class should (partly)
  // run in its second band rather than drop traffic.
  OptimizedPolicy policy;
  const Topology topo = small_topology();
  const SlotInput input = small_input(6.0);
  const DispatchPlan plan = policy.plan_slot(topo, input);
  const SlotMetrics m = evaluate_plan(topo, input, plan);
  EXPECT_GT(m.dispatched_requests, 0.0);
  EXPECT_GE(m.net_profit(), 0.0);
}

TEST(OptimizedPolicy, SpareShareImprovesOrMatchesRealizedProfit) {
  const Topology topo = small_topology();
  const SlotInput input = small_input(0.6);
  OptimizedPolicy::Options with;
  with.distribute_spare_share = true;
  OptimizedPolicy::Options without;
  without.distribute_spare_share = false;
  OptimizedPolicy p_with(with), p_without(without);
  const double profit_with =
      evaluate_plan(topo, input, p_with.plan_slot(topo, input)).net_profit();
  const double profit_without =
      evaluate_plan(topo, input, p_without.plan_slot(topo, input))
          .net_profit();
  EXPECT_GE(profit_with, profit_without - 1e-9);
}

TEST(OptimizedPolicy, SerialAndParallelSweepsAgree) {
  const Topology topo = small_topology();
  const SlotInput input = small_input(1.3);
  OptimizedPolicy::Options serial;
  serial.parallel = false;
  OptimizedPolicy p_serial(serial), p_parallel;
  const double a =
      evaluate_plan(topo, input, p_serial.plan_slot(topo, input))
          .net_profit();
  const double b =
      evaluate_plan(topo, input, p_parallel.plan_slot(topo, input))
          .net_profit();
  EXPECT_NEAR(a, b, 1e-9);
}

TEST(OptimizedPolicy, LocalSearchFindsEnumerationOptimumHere) {
  // Force the local-search path on a space small enough to also
  // enumerate; on this instance the hill climb should reach the optimum.
  const Topology topo = small_topology();
  const SlotInput input = small_input(1.0);
  OptimizedPolicy::Options enumerate_all;
  OptimizedPolicy::Options force_search;
  force_search.max_enumerated_profiles = 1;  // space (3*2)^... > 1
  OptimizedPolicy full(enumerate_all), search(force_search);
  const double best =
      evaluate_plan(topo, input, full.plan_slot(topo, input)).net_profit();
  const double found =
      evaluate_plan(topo, input, search.plan_slot(topo, input)).net_profit();
  EXPECT_GT(found, 0.0);
  EXPECT_GE(found, 0.85 * best);
}

TEST(OptimizedPolicy, TracksLpIterationCounters) {
  OptimizedPolicy policy;
  const Topology topo = small_topology();
  policy.plan_slot(topo, small_input());
  EXPECT_GT(policy.lp_iterations(), 0u);

  // The support-walking pivot kernel fires on the paper's high-arrival
  // scenario, and its skips reach the cumulative PolicyStats.
  const SlotController controller(
      paper::basic_synthetic(paper::ArrivalSet::kHigh));
  OptimizedPolicy paper_policy;
  (void)controller.run(paper_policy, 2);
  EXPECT_GT(paper_policy.stats().sparse_price_skips, 0u);
}

TEST(OptimizedPolicy, StarvedPivotBudgetStillPlansEverySlot) {
  // A 3-pivot budget starves almost every profile LP. A starved profile
  // counts as infeasible and the all-off plan is always available, so
  // every slot still gets a valid plan.
  const Scenario scenario = paper::basic_synthetic(paper::ArrivalSet::kLow);
  OptimizedPolicy::Options tight;
  tight.lp_max_iterations = 3;
  OptimizedPolicy starved(tight);
  const RunResult run = SlotController(scenario).run(starved, 2);
  ASSERT_EQ(run.plans.size(), 2u);
  for (std::size_t t = 0; t < run.plans.size(); ++t) {
    EXPECT_TRUE(
        run.plans[t].is_valid(scenario.topology, scenario.slot_input(t)))
        << "slot " << t;
  }
}

}  // namespace
}  // namespace palb
