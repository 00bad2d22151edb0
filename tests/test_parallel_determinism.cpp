// The slot fan-out's parallel-run contract: for any worker count, the
// plans (and therefore the ledger) are byte-identical to the 1-worker
// run. 16 scenarios — the four built-ins plus twelve generated worlds —
// each serialized via plan_json and compared as strings; the resilient
// ladder and the closed-loop replications are held to the same
// contract. The tsan preset runs this suite to certify the pipeline
// data-race-free.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/balanced_policy.hpp"
#include "core/controller.hpp"
#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "core/plan_json.hpp"
#include "core/right_sizing_policy.hpp"
#include "core/scenario_gen.hpp"
#include "core/simple_policies.hpp"
#include "fault/fault.hpp"
#include "fault/resilient_controller.hpp"
#include "sim/closed_loop.hpp"

namespace palb {
namespace {

struct Case {
  std::string name;
  Scenario scenario;
  std::size_t slots;
};

/// Generated worlds kept small enough that OptimizedPolicy stays on the
/// exhaustive-enumeration path (the bit-identical guarantee covers that
/// path plus the deterministic local search; small spaces keep the
/// 16-scenario sweep fast even under TSan).
scenario_gen::Options small_world() {
  scenario_gen::Options opt;
  opt.max_classes = 2;
  opt.max_frontends = 3;
  opt.max_datacenters = 3;
  opt.max_servers = 6;
  opt.max_tuf_levels = 2;
  opt.slots = 6;
  return opt;
}

std::vector<Case> sixteen_scenarios() {
  std::vector<Case> cases;
  cases.push_back({"basic-low",
                   paper::basic_synthetic(paper::ArrivalSet::kLow), 3});
  cases.push_back({"basic-high",
                   paper::basic_synthetic(paper::ArrivalSet::kHigh), 3});
  cases.push_back({"worldcup", paper::worldcup_study(), 4});
  cases.push_back({"google", paper::google_study(), 3});
  const scenario_gen::Options opt = small_world();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    cases.push_back({"random:" + std::to_string(seed),
                     scenario_gen::generate(seed, opt), 4});
  }
  return cases;
}

std::string plans_fingerprint(const RunResult& run) {
  return plan_json::run_to_json(run).dump(2);
}

/// Runs `make_policy()` twice over every scenario — once serial, once
/// with `workers` — and requires byte-identical plan JSON.
template <typename MakePolicy>
void expect_worker_invariant(std::size_t workers, MakePolicy make_policy) {
  for (const Case& c : sixteen_scenarios()) {
    const SlotController controller(c.scenario);
    auto serial_policy = make_policy();
    auto parallel_policy = make_policy();
    const RunResult serial =
        controller.run(*serial_policy, c.slots, 0, {.workers = 1});
    const RunResult parallel =
        controller.run(*parallel_policy, c.slots, 0, {.workers = workers});
    EXPECT_EQ(plans_fingerprint(serial), plans_fingerprint(parallel))
        << c.name << " diverged at " << workers << " workers";
    EXPECT_DOUBLE_EQ(serial.total.net_profit(),
                     parallel.total.net_profit())
        << c.name;
  }
}

TEST(ParallelDeterminism, OptimizedFourWorkersMatchesSerial) {
  expect_worker_invariant(4, [] {
    return std::make_unique<OptimizedPolicy>();
  });
}

TEST(ParallelDeterminism, OptimizedHardwareWorkersMatchesSerial) {
  expect_worker_invariant(0, [] {
    return std::make_unique<OptimizedPolicy>();
  });
}

TEST(ParallelDeterminism, BalancedManyWorkersMatchesSerial) {
  expect_worker_invariant(3, [] {
    return std::make_unique<BalancedPolicy>();
  });
}

TEST(ParallelDeterminism, SimplePoliciesMatchSerial) {
  expect_worker_invariant(2, [] {
    return std::make_unique<NearestPolicy>();
  });
  expect_worker_invariant(5, [] {
    return std::make_unique<CostMinPolicy>();
  });
}

TEST(ParallelDeterminism, SingleSlotRunsSerially) {
  // Regression: workers > slots must shrink the pool to the job count
  // (one slot => pure serial path), not spin up idle threads.
  const Scenario sc = paper::google_study();
  const SlotController controller(sc);
  OptimizedPolicy a, b;
  const RunResult serial = controller.run(a, 1, 0, {.workers = 1});
  const RunResult wide = controller.run(b, 1, 0, {.workers = 16});
  EXPECT_EQ(plans_fingerprint(serial), plans_fingerprint(wide));
}

TEST(ParallelDeterminism, UncloneablePolicyFallsBackToSerial) {
  // RightSizingPolicy is stateful across slots and opts out of clone();
  // the controller must run it serially (same plans) instead of failing.
  const Scenario sc = paper::worldcup_study();
  const SlotController controller(sc);
  RightSizingPolicy::Options opt;
  opt.switch_cost = 0.02;
  RightSizingPolicy serial_policy(opt), wide_policy(opt);
  const RunResult serial = controller.run(serial_policy, 4, 0, {.workers = 1});
  const RunResult wide = controller.run(wide_policy, 4, 0, {.workers = 8});
  EXPECT_EQ(plans_fingerprint(serial), plans_fingerprint(wide));
}

TEST(ParallelDeterminism, StatsAggregateAcrossWorkers) {
  // Parallel runs must surface the summed solver counters of all the
  // per-slot clones. A slot's search carries no state from earlier
  // slots, so every field matches the serial run.
  const Scenario sc = paper::google_study();
  const SlotController controller(sc);
  OptimizedPolicy a, b;
  const RunResult serial = controller.run(a, 4, 0, {.workers = 1});
  const RunResult wide = controller.run(b, 4, 0, {.workers = 4});
  EXPECT_GT(serial.stats.profiles_examined, 0u);
  EXPECT_TRUE(serial.stats == wide.stats);
}

TEST(ParallelDeterminism, FaultInjectedRunsMatchAcrossWorkerCounts) {
  // The resilient path inherits the contract: materialize() is a pure
  // function of (scenario, schedule, slot) and the ladder's serial
  // phase B sees identical candidates whatever the phase-A partition,
  // so a fault-injected run is byte-identical for workers in {1, N} —
  // rungs and repair counters included.
  for (const Case& c : sixteen_scenarios()) {
    fault_gen::Options gopt;
    gopt.slots = c.slots;
    gopt.fault_rate = 0.4;
    const FaultSchedule schedule =
        fault_gen::generate(c.scenario.topology, 21, gopt);
    const ResilientController controller(c.scenario, schedule);

    ResilientController::Options serial_opt;
    serial_opt.workers = 1;
    OptimizedPolicy serial_policy;
    const RunResult serial =
        controller.run(serial_policy, c.slots, 0, serial_opt);

    for (const std::size_t workers : {std::size_t{4}, std::size_t{0}}) {
      ResilientController::Options wide_opt;
      wide_opt.workers = workers;
      OptimizedPolicy wide_policy;
      const RunResult wide =
          controller.run(wide_policy, c.slots, 0, wide_opt);
      EXPECT_EQ(plans_fingerprint(serial), plans_fingerprint(wide))
          << c.name << " diverged at " << workers << " workers";
      EXPECT_EQ(serial.fallback_rungs, wide.fallback_rungs) << c.name;
      EXPECT_EQ(serial.repair_adjustments, wide.repair_adjustments)
          << c.name;
      EXPECT_EQ(serial.faulted_slots, wide.faulted_slots) << c.name;
    }
  }
}

TEST(ParallelDeterminism, CannedScheduleMatchesAcrossWorkerCounts) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  const ResilientController controller(sc,
                                       fault_gen::canned_acceptance());
  ResilientController::Options serial_opt;
  serial_opt.workers = 1;
  OptimizedPolicy serial_policy;
  const RunResult serial = controller.run(serial_policy, 24, 0, serial_opt);
  ResilientController::Options wide_opt;
  wide_opt.workers = 4;
  OptimizedPolicy wide_policy;
  const RunResult wide = controller.run(wide_policy, 24, 0, wide_opt);
  EXPECT_EQ(plans_fingerprint(serial), plans_fingerprint(wide));
  EXPECT_EQ(serial.fallback_rungs, wide.fallback_rungs);
  EXPECT_EQ(serial.repair_adjustments, wide.repair_adjustments);
}

TEST(ParallelDeterminism, ClosedLoopReplicationsMatchAcrossWorkerCounts) {
  // run_replications fans out through the same slot fan-out: replication
  // r's sample path depends only on its seed, never on which worker (or
  // which clone) simulated it.
  Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  sc.slot_seconds = 60.0;
  ClosedLoopSimulator::Options opt;
  opt.seed = 11;
  OptimizedPolicy serial_policy, wide_policy;
  const std::vector<ClosedLoopResult> serial =
      ClosedLoopSimulator(opt).run_replications(sc, serial_policy, 2, 3, 1);
  const std::vector<ClosedLoopResult> wide =
      ClosedLoopSimulator(opt).run_replications(sc, wide_policy, 2, 3, 3);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(wide.size(), 3u);
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].total_profit(), wide[r].total_profit()) << r;
    EXPECT_EQ(serial[r].stranded, wide[r].stranded) << r;
    ASSERT_EQ(serial[r].slots.size(), 2u);
    ASSERT_EQ(wide[r].slots.size(), 2u);
    for (std::size_t t = 0; t < serial[r].slots.size(); ++t) {
      EXPECT_EQ(serial[r].slots[t].arrivals, wide[r].slots[t].arrivals)
          << r << "/" << t;
      EXPECT_EQ(serial[r].slots[t].completions,
                wide[r].slots[t].completions)
          << r << "/" << t;
    }
  }
  // Distinct seeds, distinct sample paths.
  EXPECT_NE(serial[0].total_profit(), serial[1].total_profit());
}

}  // namespace
}  // namespace palb
