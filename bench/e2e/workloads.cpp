#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/paper_scenarios.hpp"
#include "core/scenario_gen.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/rate_trace.hpp"

namespace palb::e2e {

namespace {

/// The paper offers one slot per hour; the benchmark compresses an hour
/// into this period so the request path and the plan swaps dominate.
constexpr double kPaperPeriodSeconds = 0.05;
/// fleet_hourly slots take about 0.13 s on a 4-vCPU VM; the period leaves
/// headroom so a slow slot delays the next one instead of the run.
constexpr double kFleetPeriodSeconds = 0.16;
constexpr std::size_t kMinSlots = 10;

/// The seed only varies the traces. Solve time depends far more on the
/// fleet's shape and on which slots fault than on the traces, so both are
/// drawn from fixed seeds: otherwise seeds alone would move slot times by
/// 3x (fleet) and the share of slow slots across the p50 and p90
/// boundaries (faults).
constexpr std::uint64_t kFleetShapeSeed = 9;
constexpr std::uint64_t kFaultScheduleSeed = 3;
/// Mean-one lognormal burst noise on every fleet rate, as in
/// workload::worldcup_like.
constexpr double kFleetBurstSigma = 0.15;

std::size_t slots_for(double seconds, double period) {
  return std::max(kMinSlots,
                  static_cast<std::size_t>(std::floor(seconds / period)));
}

/// §VI WorldCup topology over enough days for `slots` + 1 slots. Each
/// day's traces come from their own seed, so no input repeats.
Scenario stitched_worldcup(std::uint64_t seed, std::size_t slots) {
  const std::size_t days = (slots + 24) / 24;
  Scenario out = paper::worldcup_study(seed * 1000);
  const std::size_t K = out.topology.num_classes();
  const std::size_t S = out.topology.num_frontends();
  std::vector<std::vector<std::vector<double>>> rates(
      K, std::vector<std::vector<double>>(S));
  for (std::size_t d = 0; d < days; ++d) {
    const Scenario day =
        d == 0 ? out : paper::worldcup_study(seed * 1000 + d);
    for (std::size_t k = 0; k < K; ++k) {
      for (std::size_t s = 0; s < S; ++s) {
        const std::vector<double>& v = day.arrivals[k][s].values();
        rates[k][s].insert(rates[k][s].end(), v.begin(), v.end());
      }
    }
  }
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < S; ++s) {
      out.arrivals[k][s] =
          RateTrace(out.arrivals[k][s].name(), std::move(rates[k][s]));
    }
  }
  out.validate();
  return out;
}

/// A 2-class, 8-front-end, 12-DC fleet with TUFs of up to 3 levels: its
/// 192 routing arcs put profile LPs at OptimizedPolicy's Dantzig-Wolfe
/// threshold and its profile space beyond enumeration.
Scenario fleet(std::uint64_t seed, std::size_t slots) {
  scenario_gen::Options shape;
  shape.min_classes = shape.max_classes = 2;
  shape.min_frontends = shape.max_frontends = 8;
  shape.min_datacenters = shape.max_datacenters = 12;
  shape.max_tuf_levels = 3;
  shape.zero_rate_probability = 0.0;
  shape.slots = slots;
  Scenario out = scenario_gen::generate(kFleetShapeSeed, shape);
  const Rng noise(seed);
  const double mu = -0.5 * kFleetBurstSigma * kFleetBurstSigma;
  for (std::size_t k = 0; k < out.arrivals.size(); ++k) {
    for (std::size_t s = 0; s < out.arrivals[k].size(); ++s) {
      Rng stream = noise.substream(k * out.arrivals[k].size() + s);
      std::vector<double> rates = out.arrivals[k][s].values();
      for (double& rate : rates) {
        rate *= stream.lognormal(mu, kFleetBurstSigma);
      }
      out.arrivals[k][s] =
          RateTrace(out.arrivals[k][s].name(), std::move(rates));
    }
  }
  out.validate();
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_hourly",
                                                 "fleet_hourly",
                                                 "paper_faults"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds) {
  Workload w;
  w.name = name;
  if (name == "paper_hourly" || name == "paper_faults") {
    w.period_seconds = kPaperPeriodSeconds;
    w.num_slots = slots_for(seconds, w.period_seconds);
    w.scenario = stitched_worldcup(seed, w.num_slots);
    if (name == "paper_faults") {
      fault_gen::Options faults;
      faults.slots = w.num_slots + 1;
      // With this schedule about a quarter of the slots are slow: rung-2
      // re-solves (12%), surge and outage solves. So p50 lands inside the
      // fast full solves and p90 inside the slow slots, each away from
      // the edge between them.
      faults.fault_rate = 0.25;
      faults.planner_stalls = true;
      faults.demand_surges = true;
      // Publish delays stay off: every job is one slot long, which resets
      // the stale-plan TTL bookkeeping, so each delay would escalate at
      // once and measure nothing.
      faults.publish_delays = false;
      w.schedule = fault_gen::generate(w.scenario.topology,
                                       kFaultScheduleSeed, faults);
    }
  } else if (name == "fleet_hourly") {
    w.period_seconds = kFleetPeriodSeconds;
    w.num_slots = slots_for(seconds, w.period_seconds);
    w.scenario = fleet(seed, w.num_slots + 1);
  } else {
    throw InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace palb::e2e
