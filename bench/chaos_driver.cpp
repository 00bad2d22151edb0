// Overload-hardening chaos bench (docs/OVERLOAD.md): the serving stack
// replayed through the canned overload schedule — a 3x demand surge
// under suppressed publishes with the planner stalled mid-surge — plus
// a seeded random schedule with every chaos kind enabled, as a second,
// differently-shaped storm. Each run must keep the dispatcher serving:
// zero stalled routes, decisions byte-identical across driver-thread
// counts, stale-plan exposure within the TTL, and a bounded shed
// fraction. The canned run is emitted as the palb-chaos-v1 section of
// BENCH_palb.json (or argv[1]); argv[2] overrides the timed-pass
// seconds (0 = skip it, which is what the ctest smoke uses so the
// whole report stays deterministic).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/balanced_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "fault/fault.hpp"
#include "serve/chaos.hpp"
#include "util/table.hpp"

using namespace palb;

namespace {

constexpr std::size_t kSlots = 24;
constexpr std::size_t kTtlSlots = 3;
constexpr double kMaxShedFraction = 0.5;

struct NamedRun {
  std::string schedule;
  serve::ChaosReport report;
};

serve::ChaosReport run_one(const Scenario& sc, const FaultSchedule& schedule,
                           double timed_seconds) {
  BalancedPolicy policy;
  serve::ChaosOptions opt;
  opt.num_slots = kSlots;
  opt.stale_plan_ttl_slots = kTtlSlots;
  opt.timed_seconds = timed_seconds;
  return run_chaos(sc, schedule, policy, opt);
}

FaultSchedule random_storm(const Topology& topology) {
  fault_gen::Options opt;
  opt.slots = kSlots;
  opt.fault_rate = 0.35;
  opt.planner_stalls = true;
  opt.publish_delays = true;
  opt.demand_surges = true;
  return fault_gen::generate(topology, /*seed=*/1002, opt);
}

/// The acceptance gates, applied to every storm. Returns false (and
/// prints why) when one fails.
bool gate(const std::string& name, const serve::ChaosReport& r) {
  bool ok = true;
  if (r.stalled_routes != 0) {
    std::fprintf(stderr, "FAIL[%s]: %llu routes stalled on a plan swap "
                         "(contract: zero)\n",
                 name.c_str(),
                 static_cast<unsigned long long>(r.stalled_routes));
    ok = false;
  }
  if (!r.decisions_identical) {
    std::fprintf(stderr, "FAIL[%s]: decisions diverge across driver "
                         "thread counts\n", name.c_str());
    ok = false;
  }
  if (r.max_stale_slots > kTtlSlots) {
    std::fprintf(stderr, "FAIL[%s]: stale-plan exposure %zu slots "
                         "exceeds the TTL (%zu)\n",
                 name.c_str(), r.max_stale_slots, kTtlSlots);
    ok = false;
  }
  if (r.shed_fraction() > kMaxShedFraction) {
    std::fprintf(stderr, "FAIL[%s]: shed fraction %.4f exceeds %.2f — "
                         "degradation is not graceful\n",
                 name.c_str(), r.shed_fraction(), kMaxShedFraction);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_palb.json");
  const double timed_seconds = argc > 2 ? std::atof(argv[2]) : 0.25;
  const Scenario sc = paper::worldcup_study();

  std::printf("---- chaos: overload-hardened serving under fault "
              "schedules (worldcup, %zu slots, TTL %zu) ----\n",
              kSlots, kTtlSlots);

  std::vector<NamedRun> runs;
  runs.push_back({"canned-chaos",
                  run_one(sc, fault_gen::canned_chaos(), timed_seconds)});
  runs.push_back({"random:1002", run_one(sc, random_storm(sc.topology),
                                         /*timed_seconds=*/0.0)});

  TextTable t({"schedule", "faulted", "stalls", "delays", "ttl-esc",
               "shed", "stale-max", "route-stalls", "identical"});
  bool all_ok = true;
  for (const NamedRun& run : runs) {
    const serve::ChaosReport& r = run.report;
    t.add_row({run.schedule, std::to_string(r.faulted_slots),
               std::to_string(r.stalled_solves),
               std::to_string(r.delayed_publishes),
               std::to_string(r.ttl_escalations),
               format_double(r.shed_fraction(), 4),
               std::to_string(r.max_stale_slots),
               std::to_string(r.stalled_routes),
               r.decisions_identical ? "yes" : "NO"});
    all_ok = gate(run.schedule, r) && all_ok;
  }
  std::printf("%s", t.render().c_str());

  const serve::ChaosReport& canned = runs.front().report;
  benchjson::ChaosResult result;
  result.scenario = "worldcup";
  result.schedule = runs.front().schedule;
  result.slots = canned.slots;
  result.faulted_slots = canned.faulted_slots;
  result.stalled_solves = canned.stalled_solves;
  result.delayed_publishes = canned.delayed_publishes;
  result.ttl_escalations = canned.ttl_escalations;
  result.fallback_rungs = canned.fallback_rungs;
  result.requests = canned.requests;
  result.routed = canned.routed;
  result.no_route = canned.no_route;
  result.shed = canned.shed;
  result.shed_fraction = canned.shed_fraction();
  result.max_stale_slots = canned.max_stale_slots;
  result.mean_stale_slots = canned.mean_stale_slots;
  result.stale_plan_ttl_slots = kTtlSlots;
  result.stalled_routes = canned.stalled_routes;
  result.decisions_identical = canned.decisions_identical;
  result.thread_counts.assign(serve::kChaosThreadCounts.begin(),
                              serve::kChaosThreadCounts.end());
  result.timed_qps = canned.timed_qps;
  result.p50_ns = canned.p50_ns;
  result.p99_ns = canned.p99_ns;
  result.p999_ns = canned.p999_ns;
  result.max_ns = canned.max_ns;
  result.latency_samples = canned.latency_samples;
  benchjson::write_file(out_path,
                        benchjson::with_chaos_section(out_path, result));
  std::printf("wrote %s\n", out_path.c_str());

  return all_ok ? 0 : 1;
}
