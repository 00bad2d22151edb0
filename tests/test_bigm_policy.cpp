#include "core/bigm_nlp_policy.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

#include "cloud/accounting.hpp"
#include "core/controller.hpp"
#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "core/plan_json.hpp"
#include "scenario_fixtures.hpp"

namespace palb {
namespace {

using testing_fixtures::small_input;
using testing_fixtures::small_topology;

BigMNlpPolicy fast_policy() {
  BigMNlpPolicy::Options opt;
  opt.multistarts = 3;
  opt.nlp.max_outer = 15;
  opt.nlp.max_inner = 120;
  return BigMNlpPolicy(opt);
}

TEST(BigMNlpPolicy, ProducesValidPlan) {
  BigMNlpPolicy policy = fast_policy();
  const Topology topo = small_topology();
  const SlotInput input = small_input();
  const DispatchPlan plan = policy.plan_slot(topo, input);
  EXPECT_TRUE(plan.is_valid(topo, input)) << [&] {
    std::string all;
    for (const auto& v : plan.violations(topo, input)) all += v + "; ";
    return all;
  }();
  EXPECT_GT(policy.inner_iterations(), 0);
}

TEST(BigMNlpPolicy, EarnsPositiveProfitOnEasyInstance) {
  BigMNlpPolicy policy = fast_policy();
  const Topology topo = small_topology();
  const SlotInput input = small_input(0.5);
  const SlotMetrics m =
      evaluate_plan(topo, input, policy.plan_slot(topo, input));
  EXPECT_GT(m.net_profit(), 0.0);
}

TEST(BigMNlpPolicy, StableWhereverItRoutes) {
  BigMNlpPolicy policy = fast_policy();
  const Topology topo = small_topology();
  const SlotInput input = small_input(2.0);
  const SlotMetrics m =
      evaluate_plan(topo, input, policy.plan_slot(topo, input));
  for (const auto& per_class : m.outcomes) {
    for (const auto& outcome : per_class) {
      if (outcome.rate > 0.0) {
        EXPECT_TRUE(outcome.stable);
      }
    }
  }
}

TEST(BigMNlpPolicy, WithinReachOfTheExactEnumerator) {
  // The NLP path is "near optimal" (paper's wording); hold it to a loose
  // fraction of the exact profile-enumeration optimum.
  BigMNlpPolicy nlp = fast_policy();
  OptimizedPolicy exact;
  const Topology topo = small_topology();
  const SlotInput input = small_input(0.8);
  const double nlp_profit =
      evaluate_plan(topo, input, nlp.plan_slot(topo, input)).net_profit();
  const double exact_profit =
      evaluate_plan(topo, input, exact.plan_slot(topo, input)).net_profit();
  EXPECT_GT(exact_profit, 0.0);
  EXPECT_GE(nlp_profit, 0.5 * exact_profit);
  EXPECT_LE(nlp_profit, exact_profit + 1e-6);
}

TEST(BigMNlpPolicy, DeterministicUnderFixedSeed) {
  const Topology topo = small_topology();
  const SlotInput input = small_input(1.0);
  BigMNlpPolicy a = fast_policy(), b = fast_policy();
  const double pa =
      evaluate_plan(topo, input, a.plan_slot(topo, input)).net_profit();
  const double pb =
      evaluate_plan(topo, input, b.plan_slot(topo, input)).net_profit();
  EXPECT_DOUBLE_EQ(pa, pb);
}

TEST(BigMNlpPolicy, PlansAndStatsMatchAcrossWorkerCounts) {
  // No state crosses slots, so a per-slot clone plans every slot exactly
  // as the serial instance does, and the counters sum to the same totals.
  BigMNlpPolicy::Options opt;
  opt.multistarts = 2;
  opt.nlp.max_outer = 6;
  opt.nlp.max_inner = 60;
  const SlotController controller(
      paper::basic_synthetic(paper::ArrivalSet::kLow));
  BigMNlpPolicy serial_policy(opt), wide_policy(opt);
  const RunResult serial = controller.run(serial_policy, 3, 0, {.workers = 1});
  const RunResult wide = controller.run(wide_policy, 3, 0, {.workers = 3});
  EXPECT_EQ(plan_json::run_to_json(serial).dump(2),
            plan_json::run_to_json(wide).dump(2));
  EXPECT_GT(serial.stats.nlp_iterations, 0u);
  EXPECT_TRUE(serial.stats == wide.stats);
  // Pinned bytes: a change to the formulation's constants, the start
  // points or the solver moves the plans or the iteration count.
  EXPECT_EQ(
      testing_fixtures::fnv1a(plan_json::run_to_json(serial).dump(2)),
      0x717f2909d1e17372ull);
  EXPECT_EQ(serial.stats.nlp_iterations, 720u);
}

TEST(BigMNlpPolicy, OptionValidation) {
  BigMNlpPolicy::Options opt;
  opt.multistarts = 0;
  EXPECT_THROW(BigMNlpPolicy{opt}, InvalidArgument);
}

}  // namespace
}  // namespace palb
