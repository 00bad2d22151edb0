// Resilience extension (docs/RESILIENCE.md): net profit as the fault
// rate rises. Each sweep point draws a deterministic schedule from
// fault_gen (same seed, rising per-slot fault probability), drives
// OptimizedPolicy through the ResilientController's fallback ladder,
// and reports the profit retained against two anchors: the fault-free
// run (what the faults cost) and the shed-all baseline (what the ladder
// saves). The sweep is emitted as palb-bench-v1 workloads into
// BENCH_palb.json (or argv[1]) — `fallback_rungs`, `repairs`, and
// `faulted_slots` per point — so CI can track ladder behavior the same
// way it tracks solver counters.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "cloud/accounting.hpp"
#include "cloud/plan.hpp"
#include "core/paper_scenarios.hpp"
#include "core/plan_json.hpp"
#include "fault/fault.hpp"
#include "fault/resilient_controller.hpp"

using namespace palb;

namespace {

constexpr std::size_t kSlots = 24;
constexpr std::uint64_t kSeed = 7;

FaultSchedule sweep_schedule(const Scenario& sc, double fault_rate) {
  fault_gen::Options gopt;
  gopt.slots = kSlots;
  gopt.fault_rate = fault_rate;
  return fault_gen::generate(sc.topology, kSeed, gopt);
}

struct SweepPoint {
  benchjson::WorkloadResult report;
  RunResult run;  ///< the parallel arm, for the rung histogram
};

SweepPoint sweep_point(const Scenario& sc, double fault_rate,
                       std::size_t workers) {
  const FaultSchedule schedule = sweep_schedule(sc, fault_rate);
  const ResilientController controller(sc, schedule);

  SweepPoint out;
  out.report.name = "fig_resilience_r" + format_double(fault_rate, 2);
  out.report.scenario = "basic-low";
  out.report.slots = kSlots;
  out.report.workers = workers;

  using Clock = std::chrono::steady_clock;
  const auto elapsed_ms = [](Clock::time_point since) {
    return std::chrono::duration<double, std::milli>(Clock::now() - since)
        .count();
  };

  ResilientController::Options serial_opt;
  serial_opt.workers = 1;
  OptimizedPolicy serial_policy;
  auto t0 = Clock::now();
  const RunResult serial =
      controller.run(serial_policy, kSlots, 0, serial_opt);
  out.report.serial_ms = elapsed_ms(t0);

  ResilientController::Options parallel_opt;
  parallel_opt.workers = workers;
  OptimizedPolicy parallel_policy;
  t0 = Clock::now();
  out.run = controller.run(parallel_policy, kSlots, 0, parallel_opt);
  out.report.parallel_ms = elapsed_ms(t0);

  out.report.plans_identical =
      plan_json::run_to_json(serial).dump() ==
          plan_json::run_to_json(out.run).dump() &&
      serial.fallback_rungs == out.run.fallback_rungs;
  out.report.solver = out.run.stats;
  out.report.faulted_slots = out.run.faulted_slots;
  out.report.repairs = out.run.total_repairs();
  out.report.fallback_rungs = out.run.fallback_rungs;
  return out;
}

double shed_all_profit(const Scenario& sc, const FaultSchedule& schedule) {
  double profit = 0.0;
  for (std::size_t t = 0; t < kSlots; ++t) {
    const FaultedSlot world = schedule.materialize(sc, t);
    profit += evaluate_plan(world.topology, world.input,
                            DispatchPlan::zero(world.topology))
                  .net_profit();
  }
  return profit;
}

std::string rung_histogram(const std::vector<int>& rungs) {
  std::map<int, std::size_t> histogram;
  for (const int r : rungs) ++histogram[r];
  std::string out;
  for (const auto& [rung, count] : histogram) {
    if (!out.empty()) out += " ";
    out += std::string(to_string(static_cast<FallbackRung>(rung))) + "x" +
           std::to_string(count);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_palb.json");
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::vector<double> rates = {0.0, 0.05, 0.15, 0.30, 0.50};

  std::printf("---- Resilience: net profit vs fault rate "
              "(basic-low, %zu slots, seed %llu) ----\n",
              kSlots, static_cast<unsigned long long>(kSeed));

  std::vector<benchjson::WorkloadResult> results;
  TextTable t({"fault rate", "faulted slots", "repairs", "rungs used",
               "net profit $", "vs fault-free %", "shed-all $",
               "plans identical"});
  double fault_free = 0.0;
  for (const double rate : rates) {
    SweepPoint point = sweep_point(sc, rate, hardware);
    const double profit = point.run.total.net_profit();
    if (rate == 0.0) fault_free = profit;
    t.add_row({format_double(rate, 2),
               std::to_string(point.report.faulted_slots),
               std::to_string(point.report.repairs),
               rung_histogram(point.run.fallback_rungs),
               format_double(profit, 2),
               format_double(
                   fault_free != 0.0 ? 100.0 * profit / fault_free : 100.0,
                   1),
               format_double(shed_all_profit(sc, sweep_schedule(sc, rate)),
                             2),
               point.report.plans_identical ? "yes" : "NO"});
    results.push_back(std::move(point.report));
  }
  std::printf("%s", t.render().c_str());

  benchjson::write_file(
      out_path, benchjson::document(hardware, hardware, false, results));
  std::printf("wrote %s\n", out_path.c_str());

  for (const auto& r : results) {
    if (!r.plans_identical) {
      std::fprintf(stderr,
                   "FAIL: %s parallel plans diverge from the 1-worker "
                   "baseline\n",
                   r.name.c_str());
      return 1;
    }
  }
  return 0;
}
