// Golden pins for OptimizedPolicy's profile search. Each case plans a
// scenario slot by slot on one policy and pins an FNV-1a digest over
// every plan's rates, shares and server counts, together with the
// profiles_examined / profiles_pruned / lp_iterations totals.
//
// The per-slot coefficient table and the value-bound prunes are
// lossless: every digest, and every enumerated-sweep counter, is the
// one a search produces that recomputes each coefficient per profile
// and solves every local-search neighbor. Local search prunes neighbors
// that such a search would have solved, so its cases also check that
// examined + pruned equals that search's examined count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>

#include "core/controller.hpp"
#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "core/scenario_gen.hpp"

namespace palb {
namespace {

struct SearchRecord {
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  std::uint64_t examined = 0;
  std::uint64_t pruned = 0;
  std::uint64_t lp_iterations = 0;
};

void mix(std::uint64_t& digest, std::uint64_t word) {
  digest = (digest ^ word) * 0x100000001b3ull;  // FNV-1a prime
}

void mix(std::uint64_t& digest, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  mix(digest, bits);
}

/// Plans slots [0, slots) of `scenario` in order on one policy, so the
/// warm-start cache carries from slot to slot as it does in production.
SearchRecord plan_slots(Policy& policy, const Scenario& scenario,
                        std::size_t slots) {
  SearchRecord record;
  const PolicyStats before = policy.stats();
  for (std::size_t t = 0; t < slots; ++t) {
    const DispatchPlan plan =
        policy.plan_slot(scenario.topology, scenario.slot_input(t));
    for (const auto& per_frontend : plan.rate) {
      for (const auto& per_dc : per_frontend) {
        for (const double rate : per_dc) mix(record.digest, rate);
      }
    }
    for (const DcAllocation& dc : plan.dc) {
      mix(record.digest, static_cast<std::uint64_t>(dc.servers_on));
      for (const double share : dc.share) mix(record.digest, share);
    }
  }
  const PolicyStats spent = policy.stats() - before;
  record.examined = spent.profiles_examined;
  record.pruned = spent.profiles_pruned;
  record.lp_iterations = spent.lp_iterations;
  return record;
}

void expect_record(const SearchRecord& got, const SearchRecord& want) {
  EXPECT_EQ(got.digest, want.digest) << std::hex << "got 0x" << got.digest;
  EXPECT_EQ(got.examined, want.examined);
  EXPECT_EQ(got.pruned, want.pruned);
  EXPECT_EQ(got.lp_iterations, want.lp_iterations);
}

OptimizedPolicy::Options serial_options() {
  OptimizedPolicy::Options opt;
  opt.parallel = false;
  return opt;
}

// ---- Enumerated sweep: paper::worldcup_study() and three variants. ----

constexpr std::size_t kWorldcupSlots = 24;
constexpr SearchRecord kWorldcup{0xb2ee369c654793e7ull, 195, 12093, 1804};

TEST(OptimizedPolicyGolden, WorldcupSerialSweep) {
  OptimizedPolicy policy(serial_options());
  expect_record(plan_slots(policy, paper::worldcup_study(), kWorldcupSlots),
                kWorldcup);
}

TEST(OptimizedPolicyGolden, WorldcupParallelSweep) {
  // The sweep's prune threshold is fixed before it fans out and every
  // LP's pivot path depends only on (topology, input, profile), so the
  // counters match the serial sweep's as exactly as the plans do.
  OptimizedPolicy policy;
  expect_record(plan_slots(policy, paper::worldcup_study(), kWorldcupSlots),
                kWorldcup);
}

TEST(OptimizedPolicyGolden, WorldcupWithIdlePower) {
  Scenario scenario = paper::worldcup_study();
  for (std::size_t l = 0; l < scenario.topology.num_datacenters(); ++l) {
    scenario.topology.datacenters[l].idle_power_kw =
        3000.0 * static_cast<double>(l + 1);
  }
  OptimizedPolicy policy(serial_options());
  expect_record(plan_slots(policy, scenario, kWorldcupSlots),
                SearchRecord{0xc8cd94975dfd3a46ull, 907, 11381, 11822});
}

TEST(OptimizedPolicyGolden, WorldcupWithTailPercentile) {
  OptimizedPolicy::Options opt = serial_options();
  opt.delay_metric = OptimizedPolicy::DelayMetric::kTailPercentile;
  OptimizedPolicy policy(opt);
  expect_record(plan_slots(policy, paper::worldcup_study(), kWorldcupSlots),
                SearchRecord{0x95e0590a70f01b17ull, 3476, 8812, 64960});
}

TEST(OptimizedPolicyGolden, WorldcupWithPropagation) {
  // 4e-5 s/mile puts 0.1 s on the 2,500-mile wire: it uses up the whole
  // 0.10 s band of request3 into datacenter2, so some bands become
  // unreachable while the rest only tighten. The unreachable band makes
  // the all-on anchor infeasible, so nothing seeds the prune.
  Scenario scenario = paper::worldcup_study();
  scenario.topology.network_latency_s_per_mile = 4e-5;
  OptimizedPolicy policy(serial_options());
  expect_record(plan_slots(policy, scenario, kWorldcupSlots),
                SearchRecord{0x8483e43b2f86b5c4ull, 12288, 0, 92848});
}

// ---- Local search: a generated fleet past the enumeration budgets. ----

/// 2 classes x 3 front-ends x 6 DCs with up to 3 TUF levels and idle
/// power on some DCs: at least 2^12 profiles, past degraded()'s 1,024.
Scenario local_search_fleet() {
  scenario_gen::Options shape;
  shape.min_classes = shape.max_classes = 2;
  shape.min_frontends = shape.max_frontends = 3;
  shape.min_datacenters = shape.max_datacenters = 6;
  shape.max_tuf_levels = 3;
  shape.zero_rate_probability = 0.0;
  shape.slots = 4;
  return scenario_gen::generate(17, shape);
}

/// Pins one local-search run: the digest and the new counters exactly,
/// and examined + pruned against the examined count of the search that
/// solved every neighbor.
void expect_local_search(const SearchRecord& got, const SearchRecord& want,
                         std::uint64_t examined_without_prune) {
  expect_record(got, want);
  EXPECT_EQ(got.examined + got.pruned, examined_without_prune);
}

TEST(OptimizedPolicyGolden, LocalSearch) {
  const Scenario scenario = local_search_fleet();
  OptimizedPolicy::Options opt;
  opt.max_enumerated_profiles = 1;
  OptimizedPolicy policy(opt);
  expect_local_search(plan_slots(policy, scenario, 4),
                      SearchRecord{0x428026cbb0f607cfull, 791, 574, 2503}, 1365);
}

TEST(OptimizedPolicyGolden, LocalSearchDegraded) {
  const Scenario scenario = local_search_fleet();
  const std::unique_ptr<Policy> policy = OptimizedPolicy().degraded();
  expect_local_search(plan_slots(*policy, scenario, 4),
                      SearchRecord{0x428026cbb0f607cfull, 390, 208, 4874}, 598);
}

TEST(OptimizedPolicyGolden, LocalSearchWithTailAndPropagation) {
  Scenario scenario = local_search_fleet();
  scenario.topology.network_latency_s_per_mile = 2e-6;
  OptimizedPolicy::Options opt;
  opt.max_enumerated_profiles = 1;
  opt.delay_metric = OptimizedPolicy::DelayMetric::kTailPercentile;
  OptimizedPolicy policy(opt);
  expect_local_search(plan_slots(policy, scenario, 4),
                      SearchRecord{0xdddb07fe71c1338eull, 1125, 183, 5345}, 1308);
}

// ---- Local search at the fleet shape: 192-arc profile LPs. ----

constexpr std::size_t kFleetSlots = 4;
constexpr SearchRecord kFleet{0xc6e8c0f57ec69619ull, 6437, 1857, 12430};

/// The first four slots of micro_solver's local-search fixture: 2
/// classes x 8 front-ends x 12 DCs with up to 3 TUF levels, at least
/// 2^24 profiles. With every cell on, a profile LP has 192 routing arcs,
/// the size at which the policy used to hand its LPs to a Dantzig-Wolfe
/// driver. The digest and the examined/pruned counts are the ones that
/// driver produced; the pivot count is the monolithic simplex's.
TEST(OptimizedPolicyGolden, LocalSearchAtFleetShape) {
  scenario_gen::Options shape;
  shape.min_classes = shape.max_classes = 2;
  shape.min_frontends = shape.max_frontends = 8;
  shape.min_datacenters = shape.max_datacenters = 12;
  shape.max_tuf_levels = 3;
  shape.zero_rate_probability = 0.0;
  shape.slots = kFleetSlots;
  const Scenario scenario = scenario_gen::generate(9, shape);
  OptimizedPolicy first(serial_options());
  expect_record(plan_slots(first, scenario, kFleetSlots), kFleet);
  // The search is serial and every LP's pivot path is deterministic, so
  // a second fresh policy records exactly the same run.
  OptimizedPolicy second(serial_options());
  expect_record(plan_slots(second, scenario, kFleetSlots), kFleet);
}

}  // namespace
}  // namespace palb
