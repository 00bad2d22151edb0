#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "core/paper_scenarios.hpp"
#include "fault/fault_json.hpp"
#include "market/price_library.hpp"
#include "scenario_fixtures.hpp"
#include "util/error.hpp"
#include "workload/generators.hpp"

namespace palb {
namespace {

Scenario small_scenario() {
  Scenario sc;
  sc.topology = testing_fixtures::small_topology();
  sc.arrivals.resize(2);
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t s = 0; s < 2; ++s) {
      sc.arrivals[k].push_back(RateTrace(
          "t", {40.0 + 10.0 * static_cast<double>(k + s), 70.0, 30.0,
                55.0}));
    }
  }
  sc.prices = {prices::flat("a", 0.04, 4), prices::flat("b", 0.08, 4)};
  sc.slot_seconds = 3600.0;
  return sc;
}

FaultEvent event(FaultKind kind, std::size_t first, std::size_t last) {
  FaultEvent e;
  e.kind = kind;
  e.first_slot = first;
  e.last_slot = last;
  return e;
}

TEST(FaultSchedule, FaultedAndCountFaulted) {
  FaultEvent outage = event(FaultKind::kDcOutage, 1, 2);
  outage.dc = 0;
  const FaultSchedule schedule({outage});
  EXPECT_FALSE(schedule.faulted(0));
  EXPECT_TRUE(schedule.faulted(1));
  EXPECT_TRUE(schedule.faulted(2));
  EXPECT_FALSE(schedule.faulted(3));
  EXPECT_EQ(schedule.count_faulted(4), 2u);
  EXPECT_EQ(schedule.count_faulted(2, 2), 1u);
  EXPECT_TRUE(FaultSchedule().empty());
}

TEST(FaultSchedule, ValidateRejectsBadEvents) {
  const Topology topo = testing_fixtures::small_topology();

  FaultEvent inverted = event(FaultKind::kSolverFailure, 3, 1);
  EXPECT_THROW(FaultSchedule({inverted}).validate(topo), InvalidArgument);

  FaultEvent out_of_range = event(FaultKind::kDcOutage, 0, 0);
  out_of_range.dc = 7;
  EXPECT_THROW(FaultSchedule({out_of_range}).validate(topo),
               InvalidArgument);

  FaultEvent anonymous_outage = event(FaultKind::kDcOutage, 0, 0);
  EXPECT_THROW(FaultSchedule({anonymous_outage}).validate(topo),
               InvalidArgument);

  FaultEvent bad_fraction = event(FaultKind::kDcOutage, 0, 0);
  bad_fraction.dc = 0;
  bad_fraction.magnitude = 1.5;
  EXPECT_THROW(FaultSchedule({bad_fraction}).validate(topo),
               InvalidArgument);

  FaultEvent bad_spike = event(FaultKind::kPriceSpike, 0, 0);
  bad_spike.magnitude = 0.0;
  EXPECT_THROW(FaultSchedule({bad_spike}).validate(topo), InvalidArgument);
}

TEST(FaultSchedule, OutageRemovesServersAndPartialOutagesStack) {
  const Scenario sc = small_scenario();
  FaultEvent half = event(FaultKind::kDcOutage, 0, 0);
  half.dc = 0;
  half.magnitude = 0.5;
  // Two overlapping half outages of the *original* 4-server fleet stack
  // to a full blackout, not 0.5 * 0.5 = a quarter fleet.
  const FaultSchedule schedule({half, half});
  schedule.validate(sc.topology);
  const FaultedSlot world = schedule.materialize(sc, 0);
  EXPECT_EQ(world.topology.datacenters[0].num_servers, 0);
  EXPECT_EQ(world.topology.datacenters[1].num_servers, 4);
  EXPECT_TRUE(world.faulted);
  EXPECT_FALSE(world.solver_failure);
}

TEST(FaultSchedule, PriceSpikeMultipliesOneOrAllDataCenters) {
  const Scenario sc = small_scenario();
  FaultEvent one = event(FaultKind::kPriceSpike, 0, 0);
  one.dc = 1;
  one.magnitude = 10.0;
  FaultedSlot world = FaultSchedule({one}).materialize(sc, 0);
  EXPECT_DOUBLE_EQ(world.input.price[0], 0.04);
  EXPECT_DOUBLE_EQ(world.input.price[1], 0.8);

  FaultEvent all = event(FaultKind::kPriceSpike, 0, 0);
  all.magnitude = 2.0;
  world = FaultSchedule({all}).materialize(sc, 0);
  EXPECT_DOUBLE_EQ(world.input.price[0], 0.08);
  EXPECT_DOUBLE_EQ(world.input.price[1], 0.16);
}

TEST(FaultSchedule, LinkCutMarksBlockedPairs) {
  const Scenario sc = small_scenario();
  FaultEvent cut = event(FaultKind::kLinkCut, 0, 0);
  cut.frontend = 1;
  cut.dc = 0;
  const FaultedSlot world = FaultSchedule({cut}).materialize(sc, 0);
  EXPECT_TRUE(world.has_blocked_link);
  EXPECT_TRUE(world.blocked(1, 0));
  EXPECT_FALSE(world.blocked(0, 0));
  EXPECT_FALSE(world.blocked(1, 1));

  // kNoIndex fans out over the whole axis.
  FaultEvent dark_dc = event(FaultKind::kLinkCut, 0, 0);
  dark_dc.dc = 1;
  const FaultedSlot fanned = FaultSchedule({dark_dc}).materialize(sc, 0);
  EXPECT_TRUE(fanned.blocked(0, 1));
  EXPECT_TRUE(fanned.blocked(1, 1));
  EXPECT_FALSE(fanned.blocked(0, 0));
}

TEST(FaultSchedule, TraceGapLeavesNaNRawAndImputesSanitized) {
  const Scenario sc = small_scenario();
  FaultEvent gap = event(FaultKind::kTraceGap, 1, 2);
  gap.frontend = 0;
  const FaultSchedule schedule({gap});

  const FaultedSlot world = schedule.materialize(sc, 2);
  for (std::size_t k = 0; k < 2; ++k) {
    // Raw telemetry carries the corruption...
    EXPECT_TRUE(std::isnan(world.raw_input.arrival_rate[k][0]));
    // ...the sanitized input imputes the last clean reading, skipping
    // the also-gapped slot 1 back to slot 0.
    EXPECT_DOUBLE_EQ(world.input.arrival_rate[k][0],
                     sc.arrivals[k][0].at(0));
    // Untouched streams pass through.
    EXPECT_DOUBLE_EQ(world.input.arrival_rate[k][1],
                     sc.arrivals[k][1].at(2));
    EXPECT_FALSE(std::isnan(world.raw_input.arrival_rate[k][1]));
  }
}

TEST(FaultSchedule, GapAtHorizonStartImputesZero) {
  const Scenario sc = small_scenario();
  FaultEvent gap = event(FaultKind::kTraceGap, 0, 0);
  const FaultedSlot world = FaultSchedule({gap}).materialize(sc, 0);
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_TRUE(std::isnan(world.raw_input.arrival_rate[k][s]));
      EXPECT_DOUBLE_EQ(world.input.arrival_rate[k][s], 0.0);
    }
  }
}

TEST(FaultSchedule, SolverFailureSetsTheFlagOnly) {
  const Scenario sc = small_scenario();
  const FaultSchedule schedule({event(FaultKind::kSolverFailure, 1, 1)});
  EXPECT_FALSE(schedule.materialize(sc, 0).solver_failure);
  const FaultedSlot world = schedule.materialize(sc, 1);
  EXPECT_TRUE(world.solver_failure);
  EXPECT_EQ(world.topology.datacenters[0].num_servers, 4);
}

TEST(FaultSchedule, PlannerStallAndPublishDelaySetFlagsOnly) {
  const Scenario sc = small_scenario();
  const FaultSchedule schedule({event(FaultKind::kPlannerStall, 1, 1),
                                event(FaultKind::kPublishDelay, 1, 2)});
  schedule.validate(sc.topology);

  const FaultedSlot calm = schedule.materialize(sc, 0);
  EXPECT_FALSE(calm.planner_stall);
  EXPECT_FALSE(calm.publish_delayed);

  const FaultedSlot both = schedule.materialize(sc, 1);
  EXPECT_TRUE(both.planner_stall);
  EXPECT_TRUE(both.publish_delayed);
  // Serving-path kinds never touch the planning world itself.
  EXPECT_EQ(both.topology.datacenters[0].num_servers, 4);
  EXPECT_FALSE(both.solver_failure);
  EXPECT_DOUBLE_EQ(both.input.arrival_rate[0][0],
                   sc.arrivals[0][0].at(1));

  const FaultedSlot delayed = schedule.materialize(sc, 2);
  EXPECT_FALSE(delayed.planner_stall);
  EXPECT_TRUE(delayed.publish_delayed);
}

TEST(FaultSchedule, DemandSurgeMultipliesBothViewsAndHonorsPins) {
  const Scenario sc = small_scenario();
  FaultEvent global = event(FaultKind::kDemandSurge, 1, 1);
  global.magnitude = 3.0;
  const FaultedSlot surged = FaultSchedule({global}).materialize(sc, 1);
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t s = 0; s < 2; ++s) {
      // Real demand, not a telemetry artifact: the sanitized planning
      // input AND the raw observed telemetry both carry the 3x.
      EXPECT_DOUBLE_EQ(surged.input.arrival_rate[k][s], 3.0 * 70.0);
      EXPECT_DOUBLE_EQ(surged.raw_input.arrival_rate[k][s], 3.0 * 70.0);
    }
  }

  // Front-end / class pins confine the surge to one stream.
  FaultEvent pinned = event(FaultKind::kDemandSurge, 0, 0);
  pinned.frontend = 1;
  pinned.klass = 0;
  pinned.magnitude = 2.0;
  const FaultedSlot partial = FaultSchedule({pinned}).materialize(sc, 0);
  EXPECT_DOUBLE_EQ(partial.input.arrival_rate[0][1],
                   2.0 * sc.arrivals[0][1].at(0));
  EXPECT_DOUBLE_EQ(partial.input.arrival_rate[0][0],
                   sc.arrivals[0][0].at(0));
  EXPECT_DOUBLE_EQ(partial.input.arrival_rate[1][1],
                   sc.arrivals[1][1].at(0));

  // Overlapping surges stack multiplicatively.
  FaultEvent twice = event(FaultKind::kDemandSurge, 0, 0);
  twice.magnitude = 2.0;
  const FaultedSlot stacked =
      FaultSchedule({twice, twice}).materialize(sc, 0);
  EXPECT_DOUBLE_EQ(stacked.input.arrival_rate[1][1],
                   4.0 * sc.arrivals[1][1].at(0));
}

TEST(FaultSchedule, GapHidesTheSurgeFromImputation) {
  // The double fault: a surged stream whose telemetry is also gapped
  // imputes from the *unsurged* scenario history — the planner
  // under-sizes, and the ladder (plus admission) must absorb it.
  const Scenario sc = small_scenario();
  FaultEvent surge = event(FaultKind::kDemandSurge, 1, 1);
  surge.magnitude = 3.0;
  FaultEvent gap = event(FaultKind::kTraceGap, 1, 1);
  gap.frontend = 0;
  const FaultedSlot world = FaultSchedule({surge, gap}).materialize(sc, 1);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_TRUE(std::isnan(world.raw_input.arrival_rate[k][0]));
    EXPECT_DOUBLE_EQ(world.input.arrival_rate[k][0],
                     sc.arrivals[k][0].at(0));  // unsurged slot 0
    EXPECT_DOUBLE_EQ(world.input.arrival_rate[k][1], 3.0 * 70.0);
  }
}

TEST(FaultSchedule, ValidateRejectsBadSurgeMagnitude) {
  const Topology topo = testing_fixtures::small_topology();
  FaultEvent zero = event(FaultKind::kDemandSurge, 0, 0);
  zero.magnitude = 0.0;
  EXPECT_THROW(FaultSchedule({zero}).validate(topo), InvalidArgument);
  FaultEvent inf = event(FaultKind::kDemandSurge, 0, 0);
  inf.magnitude = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FaultSchedule({inf}).validate(topo), InvalidArgument);
}

TEST(FaultJson, RoundTripsEverySchemaField) {
  FaultEvent outage = event(FaultKind::kDcOutage, 8, 11);
  outage.dc = 0;
  outage.magnitude = 0.75;
  FaultEvent gap = event(FaultKind::kTraceGap, 3, 3);
  gap.frontend = 1;
  gap.klass = 0;
  const FaultSchedule schedule(
      {outage, gap, event(FaultKind::kSolverFailure, 19, 19)});

  const FaultSchedule reread =
      fault_json::from_json(fault_json::to_json(schedule));
  ASSERT_EQ(reread.events().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const FaultEvent& a = schedule.events()[i];
    const FaultEvent& b = reread.events()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.first_slot, b.first_slot);
    EXPECT_EQ(a.last_slot, b.last_slot);
    EXPECT_EQ(a.dc, b.dc);
    EXPECT_EQ(a.frontend, b.frontend);
    EXPECT_EQ(a.klass, b.klass);
    EXPECT_DOUBLE_EQ(a.magnitude, b.magnitude);
  }
}

TEST(FaultJson, RejectsWrongSchemaAndUnknownKind) {
  Json doc = fault_json::to_json(FaultSchedule());
  doc.set("schema", Json("palb-bench-v1"));
  EXPECT_THROW(fault_json::from_json(doc), IoError);

  Json bad_kind = Json::object();
  bad_kind.set("kind", Json("meteor-strike"));
  bad_kind.set("first_slot", Json(std::size_t{0}));
  bad_kind.set("last_slot", Json(std::size_t{0}));
  Json events = Json::array();
  events.push_back(std::move(bad_kind));
  Json schedule = Json::object();
  schedule.set("schema", Json(fault_json::kSchema));
  schedule.set("events", std::move(events));
  EXPECT_THROW(fault_json::from_json(schedule), IoError);
}

TEST(FaultJson, SaveLoadRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "palb_fault_roundtrip.json";
  fault_json::save(fault_gen::canned_acceptance(), path);
  const FaultSchedule reread = fault_json::load(path);
  EXPECT_EQ(reread.events().size(),
            fault_gen::canned_acceptance().events().size());
  EXPECT_TRUE(reread.faulted(9));
  EXPECT_TRUE(reread.faulted(19));
  EXPECT_FALSE(reread.faulted(20));
  std::remove(path.c_str());
}

TEST(FaultGen, DeterministicPerSeedAndValid) {
  const Topology topo = testing_fixtures::small_topology();
  fault_gen::Options opt;
  opt.slots = 48;
  opt.fault_rate = 0.5;
  const FaultSchedule a = fault_gen::generate(topo, 11, opt);
  const FaultSchedule b = fault_gen::generate(topo, 11, opt);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].first_slot, b.events()[i].first_slot);
    EXPECT_DOUBLE_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
  }
  EXPECT_NO_THROW(a.validate(topo));

  const FaultSchedule other = fault_gen::generate(topo, 12, opt);
  EXPECT_NO_THROW(other.validate(topo));

  fault_gen::Options quiet;
  quiet.fault_rate = 0.0;
  EXPECT_TRUE(fault_gen::generate(topo, 11, quiet).empty());

  // Pinned bytes: a change to any draw, range, duration or kind order
  // moves these digests. The second input is the e2e benchmark's
  // paper_faults schedule, the third bench/chaos_driver's random storm.
  const auto digest = [](const FaultSchedule& schedule) {
    return testing_fixtures::fnv1a(fault_json::to_json(schedule).dump());
  };
  EXPECT_EQ(digest(a), 0x92093a8efdb87c07ull);
  const Topology worldcup = paper::worldcup_study().topology;
  fault_gen::Options paper_faults;
  paper_faults.slots = 401;
  paper_faults.fault_rate = 0.25;
  paper_faults.planner_stalls = true;
  paper_faults.demand_surges = true;
  EXPECT_EQ(digest(fault_gen::generate(worldcup, 3, paper_faults)),
            0x56492b012e2efcb1ull);
  fault_gen::Options storm;
  storm.slots = 24;
  storm.fault_rate = 0.35;
  storm.planner_stalls = true;
  storm.publish_delays = true;
  storm.demand_surges = true;
  EXPECT_EQ(digest(fault_gen::generate(worldcup, 1002, storm)),
            0x7495f0751333ac03ull);
}

TEST(FaultGen, CannedAcceptanceMatchesTheIssueSchedule) {
  const FaultSchedule schedule = fault_gen::canned_acceptance();
  // DC 0 dark 8-11, trace gaps at 3 and 15, solver failure at 19.
  EXPECT_EQ(schedule.count_faulted(24), 7u);
  for (const std::size_t t : {8u, 9u, 10u, 11u, 3u, 15u, 19u}) {
    EXPECT_TRUE(schedule.faulted(t)) << "slot " << t;
  }
  EXPECT_FALSE(schedule.faulted(12));
  const Scenario sc = small_scenario();
  EXPECT_EQ(schedule.materialize(sc, 8).topology.datacenters[0].num_servers,
            0);
  EXPECT_TRUE(schedule.materialize(sc, 19).solver_failure);
  EXPECT_TRUE(
      std::isnan(schedule.materialize(sc, 3).raw_input.arrival_rate[0][0]));
}

TEST(FaultJson, RoundTripsTheChaosKinds) {
  FaultEvent surge = event(FaultKind::kDemandSurge, 4, 9);
  surge.frontend = 1;
  surge.magnitude = 3.0;
  const FaultSchedule schedule({surge,
                                event(FaultKind::kPlannerStall, 6, 8),
                                event(FaultKind::kPublishDelay, 12, 15)});
  const FaultSchedule reread =
      fault_json::from_json(fault_json::to_json(schedule));
  ASSERT_EQ(reread.events().size(), 3u);
  EXPECT_EQ(reread.events()[0].kind, FaultKind::kDemandSurge);
  EXPECT_EQ(reread.events()[0].frontend, 1u);
  EXPECT_DOUBLE_EQ(reread.events()[0].magnitude, 3.0);
  EXPECT_EQ(reread.events()[1].kind, FaultKind::kPlannerStall);
  EXPECT_EQ(reread.events()[2].kind, FaultKind::kPublishDelay);
  EXPECT_STREQ(to_string(FaultKind::kPlannerStall), "planner-stall");
  EXPECT_STREQ(to_string(FaultKind::kPublishDelay), "publish-delay");
  EXPECT_STREQ(to_string(FaultKind::kDemandSurge), "demand-surge");
}

TEST(FaultGen, CannedChaosMatchesTheOverloadSchedule) {
  const FaultSchedule schedule = fault_gen::canned_chaos();
  const Scenario sc = small_scenario();
  schedule.validate(sc.topology);
  // Surge 4-9, stall 6-8, delays 4-6 and 12-15, price spike at 18:
  // eleven distinct faulted slots in the 24-slot horizon.
  EXPECT_EQ(schedule.count_faulted(24), 11u);

  // Surge onset under a suppressed publish — the shed window.
  const FaultedSlot onset = schedule.materialize(sc, 5);
  EXPECT_TRUE(onset.publish_delayed);
  EXPECT_FALSE(onset.planner_stall);
  EXPECT_DOUBLE_EQ(onset.input.arrival_rate[0][0],
                   3.0 * sc.arrivals[0][0].at(5));

  // Mid-surge the planner stalls too.
  const FaultedSlot stalled = schedule.materialize(sc, 7);
  EXPECT_TRUE(stalled.planner_stall);
  EXPECT_DOUBLE_EQ(stalled.input.arrival_rate[1][1],
                   3.0 * sc.arrivals[1][1].at(7));

  // The calm delay window: stale plan, unchanged demand, no shedding.
  const FaultedSlot calm = schedule.materialize(sc, 13);
  EXPECT_TRUE(calm.publish_delayed);
  EXPECT_DOUBLE_EQ(calm.input.arrival_rate[0][0],
                   sc.arrivals[0][0].at(13));

  const FaultedSlot spiked = schedule.materialize(sc, 18);
  EXPECT_DOUBLE_EQ(spiked.input.price[0], 5.0 * 0.04);
}

TEST(FaultGen, ChaosKindsStayOffUnlessOptedIn) {
  const Topology topo = testing_fixtures::small_topology();
  fault_gen::Options opt;
  opt.slots = 96;
  opt.fault_rate = 0.6;
  // Defaults: no serving-path chaos kinds ever drawn, so schedules from
  // pre-existing seeds stay byte-identical.
  const FaultSchedule legacy = fault_gen::generate(topo, 7, opt);
  for (const FaultEvent& e : legacy.events()) {
    EXPECT_NE(e.kind, FaultKind::kPlannerStall);
    EXPECT_NE(e.kind, FaultKind::kPublishDelay);
    EXPECT_NE(e.kind, FaultKind::kDemandSurge);
  }
  // Opted in, the new kinds appear and the schedule still validates.
  opt.planner_stalls = true;
  opt.publish_delays = true;
  opt.demand_surges = true;
  const FaultSchedule chaotic = fault_gen::generate(topo, 7, opt);
  EXPECT_NO_THROW(chaotic.validate(topo));
  bool any_chaos = false;
  for (const FaultEvent& e : chaotic.events()) {
    if (e.kind == FaultKind::kPlannerStall ||
        e.kind == FaultKind::kPublishDelay ||
        e.kind == FaultKind::kDemandSurge) {
      any_chaos = true;
      if (e.kind == FaultKind::kDemandSurge) {
        EXPECT_GE(e.magnitude, fault_gen::kMinSurge);
        EXPECT_LE(e.magnitude, fault_gen::kMaxSurge);
      }
    }
  }
  EXPECT_TRUE(any_chaos);
}

}  // namespace
}  // namespace palb
