#include "core/scenario_gen.hpp"

#include <gtest/gtest.h>

#include "core/balanced_policy.hpp"
#include "core/optimized_policy.hpp"
#include "core/scenario_json.hpp"
#include "scenario_fixtures.hpp"
#include "util/error.hpp"

namespace palb {
namespace {

TEST(ScenarioGen, DeterministicPerSeed) {
  const Scenario a = scenario_gen::generate(42);
  const Scenario b = scenario_gen::generate(42);
  const Scenario c = scenario_gen::generate(43);
  EXPECT_EQ(a.topology.num_classes(), b.topology.num_classes());
  EXPECT_EQ(a.topology.num_datacenters(), b.topology.num_datacenters());
  EXPECT_DOUBLE_EQ(a.arrivals[0][0].at(5), b.arrivals[0][0].at(5));
  EXPECT_DOUBLE_EQ(a.prices[0].at(7), b.prices[0].at(7));
  // Different seed, different world (with overwhelming probability).
  const bool differs =
      a.topology.num_classes() != c.topology.num_classes() ||
      a.topology.num_datacenters() != c.topology.num_datacenters() ||
      a.arrivals[0][0].at(5) != c.arrivals[0][0].at(5);
  EXPECT_TRUE(differs);

  // Pinned bytes: a change to any draw moves these digests. The last
  // input is the e2e benchmark's fleet_hourly shape.
  const auto digest = [](const Scenario& scenario) {
    return testing_fixtures::fnv1a(scenario_json::to_json(scenario).dump());
  };
  EXPECT_EQ(digest(a), 0x88d71dff709f0babull);
  EXPECT_EQ(digest(c), 0x28e527a8be456744ull);
  scenario_gen::Options fleet;
  fleet.min_classes = fleet.max_classes = 2;
  fleet.min_frontends = fleet.max_frontends = 8;
  fleet.min_datacenters = fleet.max_datacenters = 12;
  fleet.max_tuf_levels = 3;
  fleet.zero_rate_probability = 0.0;
  EXPECT_EQ(digest(scenario_gen::generate(9, fleet)), 0xdc7d1fdeb2c576cbull);
}

TEST(ScenarioGen, RespectsBounds) {
  scenario_gen::Options opt;
  opt.min_classes = opt.max_classes = 2;
  opt.min_frontends = opt.max_frontends = 3;
  opt.min_datacenters = opt.max_datacenters = 5;
  opt.min_servers = 4;
  opt.max_servers = 4;
  opt.slots = 12;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Scenario sc = scenario_gen::generate(seed, opt);
    EXPECT_EQ(sc.topology.num_classes(), 2u);
    EXPECT_EQ(sc.topology.num_frontends(), 3u);
    EXPECT_EQ(sc.topology.num_datacenters(), 5u);
    for (const auto& dc : sc.topology.datacenters) {
      EXPECT_EQ(dc.num_servers, 4);
    }
    EXPECT_EQ(sc.arrivals[0][0].slots(), 12u);
    EXPECT_EQ(sc.prices[0].size(), 12u);
  }
}

TEST(ScenarioGen, EveryWorldIsRunnable) {
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    const Scenario sc = scenario_gen::generate(seed);
    const SlotController controller(sc);
    OptimizedPolicy optimized;
    BalancedPolicy balanced;
    const RunResult opt = controller.run(optimized, 2);
    const RunResult bal = controller.run(balanced, 2);
    EXPECT_GE(opt.total.net_profit(), -1e-6) << "seed " << seed;
    EXPECT_GE(opt.total.net_profit(), bal.total.net_profit() - 1e-6)
        << "seed " << seed;
  }
}

TEST(ScenarioGen, OptionValidation) {
  scenario_gen::Options opt;
  opt.min_classes = 3;
  opt.max_classes = 2;
  EXPECT_THROW(scenario_gen::generate(1, opt), InvalidArgument);
  opt = {};
  opt.slots = 0;
  EXPECT_THROW(scenario_gen::generate(1, opt), InvalidArgument);
  opt = {};
  opt.max_tuf_levels = 0;
  EXPECT_THROW(scenario_gen::generate(1, opt), InvalidArgument);
}

}  // namespace
}  // namespace palb
