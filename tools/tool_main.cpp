// palb — command-line driver for the profit-aware load-balancing library.
//
//   palb scenarios                         list the built-in scenarios
//   palb export <scenario> <file.json>     dump a built-in scenario to JSON
//   palb run <scenario|file.json> [opts]   run policies over a scenario
//       --slots N        number of control slots (default: trace length)
//       --first N        first slot index (default 0)
//       --policy NAME    optimized | balanced | bigm | all (default all)
//       --csv FILE       also write the per-slot ledger as CSV
//   palb simulate <scenario|file.json> [--slots N] [--seed S]
//       plan with Optimized, then stochastically replay each slot and
//       report analytic-vs-simulated profit
//   palb forecast <scenario|file.json> [--model M] [--inflation X]
//       causal operation: plan from forecasts, settle against reality
//   palb replay <scenario|file.json> <plans.json>
//       audit stored plans against a scenario
//   palb check-plan <scenario|file.json> <plans.json> [--tol X] [--no-deadline]
//       verify stored plans against the paper's constraint system
//       (Eq. 6/7/8, stability, rate sanity); exit 1 on any violation
//   palb inject <scenario|file.json> <canned|random:SEED|faults.json>
//       [--slots N] [--policy optimized|balanced] [--workers N]
//       drive the policy through the fault schedule behind the
//       ResilientController and print the per-slot rung/profit table
//       (docs/RESILIENCE.md), plus the shed-all baseline and what the
//       *unwrapped* policy would have done with the same faults
//   palb bench [--smoke] [--out FILE] [--workers N] [--min-speedup X]
//       time the parallel slot pipeline against the 1-worker baseline
//       and write a machine-readable palb-bench-v1 report
//       (BENCH_palb.json by default); exit 1 if any workload's plans
//       diverge or the fig06 workload misses --min-speedup
//   palb qps [scenario] [--threads N] [--seconds X] [--slots N] [--seed S]
//       [--policy optimized|balanced] [--out FILE] [--min-qps X]
//       [--admission]
//       drive the online dispatcher (src/serve/): solve the scenario
//       asynchronously, hot-swap plans into the routing tables, and
//       hammer route() from N closed-loop driver threads; reports
//       sustained routing decisions/sec, p50/p99/p999 latency and
//       plan-swap stalls into a palb-qps-v1 section of the bench
//       report; exit 1 when decisions differ across thread counts,
//       any route stalled on a swap, or throughput misses --min-qps.
//       --admission puts the AdmissionController in front of routing
//       (docs/OVERLOAD.md) and reports shed counts
//   palb chaos [scenario] [schedule] [--slots N] [--workers N]
//       [--policy optimized|balanced] [--requests N] [--ttl N] [--seed S]
//       [--out FILE] [--max-shed X] [--timed X]
//       the overload-hardening gate (docs/OVERLOAD.md): run the
//       ResilientController through a fault schedule with planner
//       stalls, publish delays and demand surges, then replay the
//       admission-gated fast path slot by slot; reports shed fraction,
//       stale-plan exposure and ladder usage into a palb-chaos-v1
//       section; exit 1 when any route stalled, decisions differ
//       across driver thread counts, staleness exceeds the TTL, or
//       shed fraction exceeds --max-shed. Default schedule:
//       canned-chaos
//
// Built-in scenario names: basic-low, basic-high, worldcup, google;
// "random:SEED" generates a deterministic random world.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "check/plan_checker.hpp"
#include "cloud/accounting.hpp"
#include "core/balanced_policy.hpp"
#include "core/bigm_nlp_policy.hpp"
#include "core/controller.hpp"
#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "core/plan_json.hpp"
#include "core/scenario_gen.hpp"
#include "core/scenario_json.hpp"
#include "fault/fault.hpp"
#include "fault/fault_json.hpp"
#include "fault/resilient_controller.hpp"
#include "forecast/forecasting_controller.hpp"
#include "serve/admission.hpp"
#include "serve/async_planner.hpp"
#include "serve/chaos.hpp"
#include "serve/dispatcher.hpp"
#include "serve/load_driver.hpp"
#include "sim/slot_simulator.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

using namespace palb;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  palb scenarios\n"
               "  palb export <scenario> <file.json>\n"
               "  palb run <scenario|file.json> [--slots N] [--first N] "
               "[--policy optimized|balanced|bigm|all] [--csv FILE] [--plans FILE]\n"
               "  palb simulate <scenario|file.json> [--slots N] [--seed S]\n"
               "  palb forecast <scenario|file.json> [--model naive|ewma|seasonal|kalman] [--inflation X] [--slots N] [--first N]\n"
               "  palb replay <scenario|file.json> <plans.json>\n"
               "  palb check-plan <scenario|file.json> <plans.json> "
               "[--tol X] [--no-deadline]\n"
               "  palb inject <scenario|file.json> "
               "<canned|random:SEED|faults.json> [--slots N] "
               "[--policy optimized|balanced] [--workers N]\n"
               "  palb bench [--smoke] [--out FILE] [--workers N] "
               "[--min-speedup X]\n"
               "  palb qps [scenario] [--threads N] [--seconds X] "
               "[--slots N] [--seed S] [--policy optimized|balanced] "
               "[--out FILE] [--min-qps X] [--admission]\n"
               "  palb chaos [scenario] [schedule] [--slots N] "
               "[--workers N] [--policy optimized|balanced] [--requests N] "
               "[--ttl N] [--seed S] [--out FILE] [--max-shed X] "
               "[--timed X]\n"
               "built-ins: basic-low basic-high worldcup google; also random:SEED\n");
  return 2;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Scenario resolve_scenario(const std::string& name) {
  if (name == "basic-low") {
    return paper::basic_synthetic(paper::ArrivalSet::kLow);
  }
  if (name == "basic-high") {
    return paper::basic_synthetic(paper::ArrivalSet::kHigh);
  }
  if (name == "worldcup") return paper::worldcup_study();
  if (name == "google") return paper::google_study();
  if (ends_with(name, ".json")) return scenario_json::load(name);
  if (name.rfind("random:", 0) == 0) {
    return scenario_gen::generate(std::stoull(name.substr(7)));
  }
  throw InvalidArgument("unknown scenario '" + name +
                        "' (not a built-in, not random:SEED, not a .json "
                        "file)");
}

std::size_t default_slots(const Scenario& sc) {
  std::size_t slots = sc.arrivals.front().front().slots();
  for (const auto& row : sc.arrivals) {
    for (const auto& trace : row) slots = std::min(slots, trace.slots());
  }
  return slots;
}

struct Args {
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;
};

Args parse_args(int argc, char** argv, int first) {
  // Valueless switches; everything else starting with "--" takes the
  // next argument as its value.
  static const std::vector<std::string> kFlags = {"no-deadline", "smoke",
                                                  "admission"};
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (std::find(kFlags.begin(), kFlags.end(), key) != kFlags.end()) {
        args.options[key] = "1";
        continue;
      }
      if (i + 1 >= argc) throw InvalidArgument("missing value for " + arg);
      args.options[key] = argv[++i];
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

int cmd_scenarios() {
  TextTable t({"name", "classes", "front-ends", "data centers", "slots"});
  for (const char* name :
       {"basic-low", "basic-high", "worldcup", "google"}) {
    const Scenario sc = resolve_scenario(name);
    t.add_row({name, std::to_string(sc.topology.num_classes()),
               std::to_string(sc.topology.num_frontends()),
               std::to_string(sc.topology.num_datacenters()),
               std::to_string(default_slots(sc))});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_export(const std::string& name, const std::string& path) {
  scenario_json::save(resolve_scenario(name), path);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

void write_csv(const std::string& path, const Scenario& sc,
               const std::map<std::string, RunResult>& runs,
               std::size_t slots) {
  CsvTable csv({"slot", "policy", "revenue", "energy_cost", "transfer_cost",
                "penalty_cost", "net_profit", "servers_on",
                "completed_fraction"});
  for (const auto& [policy, run] : runs) {
    for (std::size_t t = 0; t < slots; ++t) {
      const SlotMetrics& m = run.slots[t];
      csv.add_row({std::to_string(t), policy, format_double(m.revenue, 6),
                   format_double(m.energy_cost, 6),
                   format_double(m.transfer_cost, 6),
                   format_double(m.penalty_cost, 6),
                   format_double(m.net_profit(), 6),
                   std::to_string(m.servers_on),
                   format_double(m.completed_fraction(), 6)});
    }
  }
  csv.write_file(path);
  (void)sc;
}

int cmd_run(const Args& args) {
  if (args.positional.empty()) return usage();
  const Scenario sc = resolve_scenario(args.positional[0]);
  const std::size_t slots =
      args.options.count("slots")
          ? static_cast<std::size_t>(std::stoul(args.options.at("slots")))
          : default_slots(sc);
  const std::size_t first =
      args.options.count("first")
          ? static_cast<std::size_t>(std::stoul(args.options.at("first")))
          : 0;
  const std::string which = args.options.count("policy")
                                ? args.options.at("policy")
                                : std::string("all");

  const SlotController controller(sc);
  std::map<std::string, RunResult> runs;
  if (which == "optimized" || which == "all") {
    OptimizedPolicy policy;
    runs["Optimized"] = controller.run(policy, slots, first);
  }
  if (which == "balanced" || which == "all") {
    BalancedPolicy policy;
    runs["Balanced"] = controller.run(policy, slots, first);
  }
  if (which == "bigm" || which == "all") {
    BigMNlpPolicy::Options opt;
    opt.multistarts = 3;
    opt.nlp.max_outer = 15;
    opt.nlp.max_inner = 120;
    BigMNlpPolicy policy(opt);
    runs["BigM-NLP"] = controller.run(policy, slots, first);
  }
  if (runs.empty()) return usage();

  TextTable t({"policy", "revenue $", "energy $", "transfer $",
               "net profit $", "completed %"});
  for (const auto& [name, run] : runs) {
    t.add_row({name, format_double(run.total.revenue, 2),
               format_double(run.total.energy_cost, 2),
               format_double(run.total.transfer_cost, 2),
               format_double(run.total.net_profit(), 2),
               format_double(100.0 * run.total.completed_fraction(), 2)});
  }
  std::printf("%zu slot(s) starting at %zu\n%s", slots, first,
              t.render().c_str());

  if (args.options.count("csv")) {
    write_csv(args.options.at("csv"), sc, runs, slots);
    std::printf("per-slot ledger written to %s\n",
                args.options.at("csv").c_str());
  }
  if (args.options.count("plans")) {
    Json doc = Json::object();
    for (const auto& [name, run] : runs) {
      doc.set(name, plan_json::run_to_json(run));
    }
    std::ofstream os(args.options.at("plans"));
    if (!os) throw IoError("cannot open " + args.options.at("plans"));
    os << doc.dump(2) << "\n";
    std::printf("per-slot plans written to %s\n",
                args.options.at("plans").c_str());
  }
  return 0;
}

int cmd_replay(const Args& args) {
  // Audit stored plans against a scenario: read a --plans export, apply
  // each slot's plan verbatim, and re-settle the ledger.
  if (args.positional.size() != 2) return usage();
  const Scenario sc = resolve_scenario(args.positional[0]);
  std::ifstream is(args.positional[1]);
  if (!is) throw IoError("cannot open " + args.positional[1]);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const Json doc = Json::parse(buffer.str());

  TextTable t({"policy", "slots", "net profit $", "completed %"});
  for (const auto& [policy_name, run_doc] : doc.as_object()) {
    const Json& slots = run_doc.at("slots");
    double profit = 0.0, offered = 0.0, completed = 0.0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const std::size_t slot = slots[i].at("slot").as_index();
      const SlotInput input = sc.slot_input(slot);
      const DispatchPlan plan =
          plan_json::from_json(slots[i].at("plan"), sc.topology);
      const SlotMetrics m = evaluate_plan(sc.topology, input, plan);
      profit += m.net_profit();
      offered += m.offered_requests;
      completed += m.completed_requests;
    }
    t.add_row({policy_name, std::to_string(slots.size()),
               format_double(profit, 2),
               format_double(100.0 * completed / std::max(1.0, offered),
                             2)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_check_plan(const Args& args) {
  // Audit stored plans against the paper's constraint system (Eq. 6/7/8,
  // stability, rate sanity). Reads the same {policy: {slots: [...]}}
  // document `palb run --plans` writes. Exits 0 iff every plan is clean.
  if (args.positional.size() != 2) return usage();
  const Scenario sc = resolve_scenario(args.positional[0]);
  std::ifstream is(args.positional[1]);
  if (!is) throw IoError("cannot open " + args.positional[1]);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const Json doc = Json::parse(buffer.str());

  PlanChecker::Options opt;
  if (args.options.count("tol")) opt.tol = std::stod(args.options.at("tol"));
  if (args.options.count("no-deadline")) opt.check_deadline = false;
  const PlanChecker checker(opt);

  TextTable t({"policy", "slot", "violations", "first code"});
  std::size_t total_violations = 0;
  std::vector<std::string> details;
  for (const auto& [policy_name, run_doc] : doc.as_object()) {
    const Json& slots = run_doc.at("slots");
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const std::size_t slot = slots[i].at("slot").as_index();
      const SlotInput input = sc.slot_input(slot);
      const DispatchPlan plan =
          plan_json::from_json(slots[i].at("plan"), sc.topology);
      const PlanCheckReport report = checker.check(sc.topology, input, plan);
      t.add_row({policy_name, std::to_string(slot),
                 std::to_string(report.violations.size()),
                 report.ok() ? std::string("-")
                             : to_string(report.violations.front().code)});
      if (!report.ok()) {
        total_violations += report.violations.size();
        details.push_back(policy_name + " slot " + std::to_string(slot) +
                          ":\n" + report.summary());
      }
    }
  }
  std::printf("%s", t.render().c_str());
  for (const auto& d : details) std::printf("%s\n", d.c_str());
  if (total_violations == 0) {
    std::printf("all plans satisfy the constraint system\n");
    return 0;
  }
  std::printf("%zu constraint violation(s) found\n", total_violations);
  return 1;
}

FaultSchedule resolve_schedule(const std::string& name, const Scenario& sc,
                               std::size_t slots) {
  if (name == "canned") return fault_gen::canned_acceptance();
  if (name == "canned-chaos") return fault_gen::canned_chaos();
  if (ends_with(name, ".json")) return fault_json::load(name);
  if (name.rfind("random:", 0) == 0) {
    fault_gen::Options opt;
    opt.slots = slots;
    return fault_gen::generate(sc.topology, std::stoull(name.substr(7)),
                               opt);
  }
  throw InvalidArgument("unknown fault schedule '" + name +
                        "' (not \"canned\", not \"canned-chaos\", not "
                        "random:SEED, not a .json file)");
}

int cmd_inject(const Args& args) {
  // Run schedule x policy behind the ResilientController and print the
  // rung/profit table; then show what the *unwrapped* policy would have
  // done facing the same raw telemetry.
  if (args.positional.size() != 2) return usage();
  const Scenario sc = resolve_scenario(args.positional[0]);
  const std::size_t slots =
      args.options.count("slots")
          ? static_cast<std::size_t>(std::stoul(args.options.at("slots")))
          : std::min<std::size_t>(24, default_slots(sc));
  const FaultSchedule schedule =
      resolve_schedule(args.positional[1], sc, slots);
  const std::string which = args.options.count("policy")
                                ? args.options.at("policy")
                                : std::string("optimized");

  std::unique_ptr<Policy> policy;
  if (which == "optimized") {
    policy = std::make_unique<OptimizedPolicy>();
  } else if (which == "balanced") {
    policy = std::make_unique<BalancedPolicy>();
  } else {
    throw InvalidArgument("unknown policy '" + which +
                          "' (optimized|balanced)");
  }

  ResilientController controller(sc, schedule);
  ResilientController::Options ropt;
  if (args.options.count("workers")) {
    ropt.workers =
        static_cast<std::size_t>(std::stoul(args.options.at("workers")));
  }
  const RunResult run = controller.run(*policy, slots, 0, ropt);

  TextTable t({"slot", "faulted", "rung", "repairs", "net profit $"});
  for (std::size_t i = 0; i < slots; ++i) {
    t.add_row({std::to_string(i),
               schedule.faulted(i) ? std::string("yes") : std::string("-"),
               to_string(static_cast<FallbackRung>(run.fallback_rungs[i])),
               std::to_string(run.repair_adjustments[i]),
               format_double(run.slots[i].net_profit(), 2)});
  }
  std::printf("%zu slot(s), %zu faulted | policy %s\n%s", slots,
              run.faulted_slots, which.c_str(), t.render().c_str());

  // Shed-all baseline: the zero plan applied to every faulted world —
  // the profit floor the ladder must beat to be worth having.
  double shed_profit = 0.0;
  for (std::size_t i = 0; i < slots; ++i) {
    const FaultedSlot world = schedule.materialize(sc, i);
    shed_profit +=
        evaluate_plan(world.topology, world.input,
                      DispatchPlan::zero(world.topology))
            .net_profit();
  }
  std::printf(
      "resilient net profit $%s | shed-all baseline $%s | repairs %zu\n",
      format_double(run.total.net_profit(), 2).c_str(),
      format_double(shed_profit, 2).c_str(), run.total_repairs());

  // The same faults without the ladder: feed the raw telemetry (NaN
  // gaps and all) straight to a fresh policy instance.
  std::unique_ptr<Policy> naked = policy->clone();
  Policy& unwrapped = naked ? *naked : *policy;
  bool failed = false;
  for (std::size_t i = 0; i < slots && !failed; ++i) {
    const FaultedSlot world = schedule.materialize(sc, i);
    try {
      if (world.solver_failure) {
        throw NumericalError("injected solver failure");
      }
      (void)unwrapped.plan_slot(world.topology, world.raw_input);
    } catch (const std::exception& e) {
      std::printf("unwrapped %s fails at slot %zu: %s\n", which.c_str(), i,
                  e.what());
      failed = true;
    }
  }
  if (!failed) {
    std::printf("unwrapped %s survived this schedule (no corrupt inputs "
                "or solver failures hit it)\n",
                which.c_str());
  }
  return 0;
}

int cmd_forecast(const Args& args) {
  if (args.positional.empty()) return usage();
  const Scenario sc = resolve_scenario(args.positional[0]);
  const std::size_t total = default_slots(sc);
  const std::size_t first = args.options.count("first")
                                ? static_cast<std::size_t>(
                                      std::stoul(args.options.at("first")))
                                : std::min<std::size_t>(24, total / 2);
  const std::size_t slots =
      args.options.count("slots")
          ? static_cast<std::size_t>(std::stoul(args.options.at("slots")))
          : total - first;
  const double inflation =
      args.options.count("inflation")
          ? std::stod(args.options.at("inflation"))
          : 1.15;
  const std::string model = args.options.count("model")
                                ? args.options.at("model")
                                : std::string("kalman");

  std::unique_ptr<Forecaster> proto;
  if (model == "naive") {
    proto = std::make_unique<NaiveForecaster>();
  } else if (model == "ewma") {
    proto = std::make_unique<EwmaForecaster>(0.4);
  } else if (model == "seasonal") {
    proto = std::make_unique<SeasonalNaiveForecaster>(24);
  } else if (model == "kalman") {
    proto = std::make_unique<KalmanForecaster>(25.0, 400.0);
  } else {
    throw InvalidArgument("unknown forecast model '" + model +
                          "' (naive|ewma|seasonal|kalman)");
  }

  ForecastingController::Options opt;
  opt.forecast_inflation = inflation;
  opt.warmup_slots = first;
  ForecastingController controller(sc, *proto, opt);
  OptimizedPolicy causal;
  const ForecastRunResult causal_run = controller.run(causal, slots, first);

  OptimizedPolicy oracle_policy;
  const RunResult oracle =
      SlotController(sc).run(oracle_policy, slots, first);

  double rmse = 0.0;
  for (const auto& e : causal_run.errors) rmse += e.rmse();
  rmse /= static_cast<double>(causal_run.errors.size());

  TextTable t({"operator", "net profit $", "completed %"});
  t.add_row({"oracle Optimized",
             format_double(oracle.total.net_profit(), 2),
             format_double(100.0 * oracle.total.completed_fraction(), 2)});
  t.add_row({"causal (" + model + " x" + format_double(inflation, 2) + ")",
             format_double(causal_run.run.total.net_profit(), 2),
             format_double(
                 100.0 * causal_run.run.total.completed_fraction(), 2)});
  std::printf("%zu slot(s) from %zu | forecast RMSE %.1f req/s\n%s", slots,
              first, rmse, t.render().c_str());
  return 0;
}

// ---- palb bench -----------------------------------------------------------

struct BenchWorkload {
  std::string name;      ///< stable key (CI thresholds refer to it)
  std::string scenario;  ///< resolve_scenario() input
  std::size_t slots;
};

benchjson::WorkloadResult run_bench_workload(const BenchWorkload& wl,
                                             std::size_t workers) {
  const Scenario sc = resolve_scenario(wl.scenario);
  const SlotController controller(sc);

  benchjson::WorkloadResult out;
  out.name = wl.name;
  out.scenario = wl.scenario;
  out.slots = wl.slots;
  out.workers = workers;

  using Clock = std::chrono::steady_clock;
  const auto elapsed_ms = [](Clock::time_point since) {
    return std::chrono::duration<double, std::milli>(Clock::now() - since)
        .count();
  };

  OptimizedPolicy serial_policy;
  auto t0 = Clock::now();
  const RunResult serial =
      controller.run(serial_policy, wl.slots, 0, {.workers = 1});
  out.serial_ms = elapsed_ms(t0);

  OptimizedPolicy parallel_policy;
  t0 = Clock::now();
  const RunResult parallel =
      controller.run(parallel_policy, wl.slots, 0, {.workers = workers});
  out.parallel_ms = elapsed_ms(t0);

  out.plans_identical = plan_json::run_to_json(serial).dump() ==
                        plan_json::run_to_json(parallel).dump();
  out.solver = parallel.stats;
  return out;
}

/// The fault-injected arm of the bench: the canned acceptance schedule
/// (DC 0 dark 8-11, trace gaps at 3 and 15, a forced solver failure at
/// 19) driven through the ResilientController, serial vs parallel, so
/// the report tracks both the ladder's overhead and its determinism.
benchjson::WorkloadResult run_resilience_workload(std::size_t workers) {
  const Scenario sc = resolve_scenario("basic-low");
  const FaultSchedule schedule = fault_gen::canned_acceptance();
  const ResilientController controller(sc, schedule);

  benchjson::WorkloadResult out;
  out.name = "resilience_basic";
  out.scenario = "basic-low";
  out.slots = 24;
  out.workers = workers;

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
      controller.run(serial_policy, out.slots, 0, serial_opt);
  out.serial_ms = elapsed_ms(t0);

  ResilientController::Options parallel_opt;
  parallel_opt.workers = workers;
  OptimizedPolicy parallel_policy;
  t0 = Clock::now();
  const RunResult parallel =
      controller.run(parallel_policy, out.slots, 0, parallel_opt);
  out.parallel_ms = elapsed_ms(t0);

  out.plans_identical = plan_json::run_to_json(serial).dump() ==
                            plan_json::run_to_json(parallel).dump() &&
                        serial.fallback_rungs == parallel.fallback_rungs;
  out.solver = parallel.stats;
  out.faulted_slots = parallel.faulted_slots;
  out.repairs = parallel.total_repairs();
  out.fallback_rungs = parallel.fallback_rungs;
  return out;
}

int cmd_bench(const Args& args) {
  const bool smoke = args.options.count("smoke") > 0;
  const std::string out_path = args.options.count("out")
                                   ? args.options.at("out")
                                   : std::string("BENCH_palb.json");
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers =
      args.options.count("workers")
          ? static_cast<std::size_t>(std::stoul(args.options.at("workers")))
          : hardware;

  std::vector<BenchWorkload> workloads = {
      {"micro_basic", "basic-low", 4},
      {"fig06_worldcup", "worldcup", 24},
  };
  if (!smoke) {
    workloads.push_back({"fig08_google", "google", 6});
    // Week-scale horizon: the 24-slot traces wrap modulo their length.
    workloads.push_back({"week_worldcup", "worldcup", 168});
  }

  std::vector<benchjson::WorkloadResult> results;
  results.reserve(workloads.size());
  for (const auto& wl : workloads) {
    std::fprintf(stderr, "bench: %s (%zu slots, %zu workers)...\n",
                 wl.name.c_str(), wl.slots, workers);
    results.push_back(run_bench_workload(wl, workers));
  }
  std::fprintf(stderr, "bench: resilience_basic (24 slots, %zu workers)...\n",
               workers);
  results.push_back(run_resilience_workload(workers));

  benchjson::write_file(out_path,
                        benchjson::document(hardware, workers, smoke,
                                            results));

  TextTable t({"workload", "slots", "serial ms", "parallel ms", "speedup",
               "slots/s", "pruned", "plans identical"});
  for (const auto& r : results) {
    t.add_row({r.name, std::to_string(r.slots),
               format_double(r.serial_ms, 1),
               format_double(r.parallel_ms, 1),
               format_double(r.speedup(), 2),
               format_double(r.slots_per_sec(), 1),
               std::to_string(r.solver.profiles_pruned),
               r.plans_identical ? "yes" : "NO"});
  }
  std::printf("%swrote %s\n", t.render().c_str(), out_path.c_str());

  int rc = 0;
  for (const auto& r : results) {
    if (!r.plans_identical) {
      std::fprintf(stderr,
                   "FAIL: %s parallel plans diverge from the 1-worker "
                   "baseline\n",
                   r.name.c_str());
      rc = 1;
    }
  }
  if (args.options.count("min-speedup")) {
    // The gate reads the fig06 workload: large enough to parallelize,
    // small enough for CI. Sub-threshold runs on single-core machines
    // are expected — CI supplies the flag only on multi-core runners.
    const double min_speedup = std::stod(args.options.at("min-speedup"));
    for (const auto& r : results) {
      if (r.name == "fig06_worldcup" && r.speedup() < min_speedup) {
        std::fprintf(stderr,
                     "FAIL: fig06_worldcup speedup %.2fx below the "
                     "--min-speedup %.2fx gate\n",
                     r.speedup(), min_speedup);
        rc = 1;
      }
    }
  }
  return rc;
}

// ---- palb qps -------------------------------------------------------------

int cmd_qps(const Args& args) {
  const std::string name =
      args.positional.empty() ? std::string("worldcup") : args.positional[0];
  const Scenario sc = resolve_scenario(name);
  const std::size_t slots =
      args.options.count("slots")
          ? static_cast<std::size_t>(std::stoul(args.options.at("slots")))
          : std::min<std::size_t>(24, default_slots(sc));
  const std::size_t threads =
      args.options.count("threads")
          ? static_cast<std::size_t>(std::stoul(args.options.at("threads")))
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const double seconds = args.options.count("seconds")
                             ? std::stod(args.options.at("seconds"))
                             : 1.0;
  const std::uint64_t seed =
      args.options.count("seed") ? std::stoull(args.options.at("seed")) : 1;
  const std::string out_path = args.options.count("out")
                                   ? args.options.at("out")
                                   : std::string("BENCH_palb.json");
  const std::string which = args.options.count("policy")
                                ? args.options.at("policy")
                                : std::string("balanced");

  std::unique_ptr<Policy> policy;
  if (which == "optimized") {
    policy = std::make_unique<OptimizedPolicy>();
  } else if (which == "balanced") {
    policy = std::make_unique<BalancedPolicy>();
  } else {
    throw InvalidArgument("unknown policy '" + which +
                          "' (optimized|balanced)");
  }

  // Slow path: the planner solves asynchronously and hot-swaps each
  // applied plan into `live`; the dispatcher compiles routing tables off
  // those snapshots. The fast path starts the moment slot 0's plan lands
  // and keeps routing through every subsequent mid-stream swap.
  PlanHandle live;
  serve::Dispatcher dispatcher(sc.topology, live);
  serve::AsyncPlanner planner(sc, FaultSchedule{}, live);
  std::future<RunResult> run = planner.solve_async(*policy, slots);
  if (serve::wait_for_version(dispatcher, 1, 120.0) == 0) {
    run.get();  // surfaces the solve failure that kept version at 0
    throw NumericalError("no plan published within 120 s");
  }

  const serve::RequestStream stream =
      serve::RequestStream::compile(sc.topology, sc.slot_input(0), seed);

  // --admission: the overload gate in front of routing, sized against
  // the same offered mix the request stream draws from.
  const bool with_admission = args.options.count("admission") > 0;
  std::unique_ptr<serve::AdmissionController> admission;
  if (with_admission) {
    admission = std::make_unique<serve::AdmissionController>(
        sc.topology, live, sc.slot_input(0));
  }

  std::fprintf(stderr,
               "qps: %s, %zu driver thread(s), %.1f s timed run%s\n",
               name.c_str(), threads, seconds,
               with_admission ? ", admission on" : "");
  serve::QpsOptions timed_opt;
  timed_opt.threads = threads;
  timed_opt.seconds = seconds;
  timed_opt.admission = admission.get();
  const serve::QpsReport timed = run_qps(dispatcher, stream, timed_opt);

  const RunResult solved = run.get();  // plan stream is now quiescent
  dispatcher.refresh();

  // Determinism arm: with the plan quiescent, the recorded decisions of
  // a 1-thread run and an N-thread run must be byte-identical.
  serve::QpsOptions fixed_opt;
  fixed_opt.total_requests = 1u << 16;
  fixed_opt.record_decisions = true;
  fixed_opt.admission = admission.get();
  fixed_opt.threads = 1;
  const serve::QpsReport lone = run_qps(dispatcher, stream, fixed_opt);
  fixed_opt.threads = std::max<std::size_t>(2, threads);
  const serve::QpsReport many = run_qps(dispatcher, stream, fixed_opt);
  const bool identical = lone.decisions == many.decisions;

  benchjson::QpsResult result;
  result.scenario = name;
  result.slots = slots;
  result.threads = timed.threads;
  result.requests = timed.requests;
  result.routed = timed.routed;
  result.no_route = timed.no_route;
  result.elapsed_seconds = timed.elapsed_seconds;
  result.qps = timed.qps();
  result.p50_ns = timed.p50_ns;
  result.p90_ns = timed.p90_ns;
  result.p99_ns = timed.p99_ns;
  result.p999_ns = timed.p999_ns;
  result.max_ns = timed.max_ns;
  result.latency_samples = timed.latency_samples;
  result.min_plan_version = timed.min_plan_version;
  result.max_plan_version = timed.max_plan_version;
  result.rebuilds = timed.dispatcher.rebuilds;
  result.refresh_skips = timed.dispatcher.refresh_skips;
  result.stalled_routes = timed.dispatcher.stalled_routes;
  result.identical_across_threads = identical;
  result.shed_requests = timed.shed;
  const serve::AsyncPlanner::WatchdogStats watchdog =
      planner.watchdog_stats();
  result.retry_count = watchdog.retries;
  result.stale_plan_ns = watchdog.stale_plan_ns;
  benchjson::write_file(out_path,
                        benchjson::with_qps_section(out_path, result));

  TextTable t({"metric", "value"});
  t.add_row({"routing decisions/s", format_double(timed.qps(), 0)});
  t.add_row({"requests routed", std::to_string(timed.routed)});
  t.add_row({"no-route", std::to_string(timed.no_route)});
  if (with_admission) t.add_row({"shed", std::to_string(timed.shed)});
  t.add_row({"p50 latency ns", format_double(timed.p50_ns, 0)});
  t.add_row({"p99 latency ns", format_double(timed.p99_ns, 0)});
  t.add_row({"p999 latency ns", format_double(timed.p999_ns, 0)});
  t.add_row({"plan versions seen",
             std::to_string(timed.min_plan_version) + ".." +
                 std::to_string(timed.max_plan_version)});
  t.add_row({"table rebuilds", std::to_string(timed.dispatcher.rebuilds)});
  t.add_row({"refresh skips",
             std::to_string(timed.dispatcher.refresh_skips)});
  t.add_row({"plan-swap stalls",
             std::to_string(timed.dispatcher.stalled_routes)});
  t.add_row({"identical across threads", identical ? "yes" : "NO"});
  std::printf("%zu slot(s) solved (net profit $%s) | %zu driver thread(s)"
              "\n%swrote %s\n",
              slots, format_double(solved.total.net_profit(), 2).c_str(),
              timed.threads, t.render().c_str(), out_path.c_str());

  int rc = 0;
  if (!identical) {
    std::fprintf(stderr, "FAIL: routing decisions differ between 1 and "
                         "%zu driver threads\n",
                 many.threads);
    rc = 1;
  }
  if (timed.dispatcher.stalled_routes != 0) {
    std::fprintf(stderr, "FAIL: %llu route(s) stalled on a plan swap "
                         "(contract: zero)\n",
                 static_cast<unsigned long long>(
                     timed.dispatcher.stalled_routes));
    rc = 1;
  }
  if (args.options.count("min-qps")) {
    const double min_qps = std::stod(args.options.at("min-qps"));
    if (timed.qps() < min_qps) {
      std::fprintf(stderr,
                   "FAIL: %.0f routing decisions/s below the --min-qps "
                   "%.0f gate\n",
                   timed.qps(), min_qps);
      rc = 1;
    }
  }
  return rc;
}

// ---- palb chaos -----------------------------------------------------------

int cmd_chaos(const Args& args) {
  const std::string name =
      args.positional.empty() ? std::string("worldcup") : args.positional[0];
  const std::string schedule_name = args.positional.size() > 1
                                        ? args.positional[1]
                                        : std::string("canned-chaos");
  const Scenario sc = resolve_scenario(name);
  const std::size_t slots =
      args.options.count("slots")
          ? static_cast<std::size_t>(std::stoul(args.options.at("slots")))
          : std::min<std::size_t>(24, default_slots(sc));
  const FaultSchedule schedule = resolve_schedule(schedule_name, sc, slots);
  const std::string which = args.options.count("policy")
                                ? args.options.at("policy")
                                : std::string("balanced");
  const std::string out_path = args.options.count("out")
                                   ? args.options.at("out")
                                   : std::string("BENCH_palb.json");

  std::unique_ptr<Policy> policy;
  if (which == "optimized") {
    policy = std::make_unique<OptimizedPolicy>();
  } else if (which == "balanced") {
    policy = std::make_unique<BalancedPolicy>();
  } else {
    throw InvalidArgument("unknown policy '" + which +
                          "' (optimized|balanced)");
  }

  serve::ChaosOptions opt;
  opt.num_slots = slots;
  if (args.options.count("workers")) {
    opt.solve_workers =
        static_cast<std::size_t>(std::stoul(args.options.at("workers")));
  }
  if (args.options.count("requests")) {
    opt.requests_per_slot = std::stoull(args.options.at("requests"));
  }
  if (args.options.count("ttl")) {
    opt.stale_plan_ttl_slots =
        static_cast<std::size_t>(std::stoul(args.options.at("ttl")));
  }
  if (args.options.count("seed")) {
    opt.stream_seed = std::stoull(args.options.at("seed"));
  }
  if (args.options.count("timed")) {
    opt.timed_seconds = std::stod(args.options.at("timed"));
  }

  std::fprintf(stderr, "chaos: %s x %s, %zu slot(s), policy %s\n",
               name.c_str(), schedule_name.c_str(), slots, which.c_str());
  const serve::ChaosReport report =
      serve::run_chaos(sc, schedule, *policy, opt);

  benchjson::ChaosResult result;
  result.scenario = name;
  result.schedule = schedule_name;
  result.slots = report.slots;
  result.faulted_slots = report.faulted_slots;
  result.stalled_solves = report.stalled_solves;
  result.delayed_publishes = report.delayed_publishes;
  result.ttl_escalations = report.ttl_escalations;
  result.fallback_rungs = report.fallback_rungs;
  result.requests = report.requests;
  result.routed = report.routed;
  result.no_route = report.no_route;
  result.shed = report.shed;
  result.shed_fraction = report.shed_fraction();
  result.max_stale_slots = report.max_stale_slots;
  result.mean_stale_slots = report.mean_stale_slots;
  result.stale_plan_ttl_slots = opt.stale_plan_ttl_slots;
  result.stalled_routes = report.stalled_routes;
  result.decisions_identical = report.decisions_identical;
  result.thread_counts.assign(serve::kChaosThreadCounts.begin(),
                              serve::kChaosThreadCounts.end());
  result.timed_qps = report.timed_qps;
  result.p50_ns = report.p50_ns;
  result.p99_ns = report.p99_ns;
  result.p999_ns = report.p999_ns;
  result.max_ns = report.max_ns;
  result.latency_samples = report.latency_samples;
  benchjson::write_file(out_path,
                        benchjson::with_chaos_section(out_path, result));

  TextTable t({"metric", "value"});
  t.add_row({"slots / faulted", std::to_string(report.slots) + " / " +
                                    std::to_string(report.faulted_slots)});
  t.add_row({"stalled solves", std::to_string(report.stalled_solves)});
  t.add_row({"delayed publishes",
             std::to_string(report.delayed_publishes)});
  t.add_row({"ttl escalations", std::to_string(report.ttl_escalations)});
  t.add_row({"requests replayed", std::to_string(report.requests)});
  t.add_row({"shed fraction",
             format_double(report.shed_fraction(), 4)});
  t.add_row({"max stale slots", std::to_string(report.max_stale_slots)});
  t.add_row({"plan-swap stalls", std::to_string(report.stalled_routes)});
  t.add_row({"identical across threads",
             report.decisions_identical ? "yes" : "NO"});
  if (report.latency_samples > 0) {
    t.add_row({"timed decisions/s", format_double(report.timed_qps, 0)});
    t.add_row({"p99 latency ns", format_double(report.p99_ns, 0)});
    t.add_row({"p999 latency ns", format_double(report.p999_ns, 0)});
  }
  std::printf("%swrote %s\n", t.render().c_str(), out_path.c_str());

  // Graceful-degradation gates: serving never stalls, decisions stay
  // deterministic, staleness stays within the TTL, shedding stays
  // bounded.
  int rc = 0;
  if (report.stalled_routes != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu route(s) stalled on a plan swap "
                 "(contract: zero)\n",
                 static_cast<unsigned long long>(report.stalled_routes));
    rc = 1;
  }
  if (!report.decisions_identical) {
    std::fprintf(stderr,
                 "FAIL: decisions differ across driver thread counts\n");
    rc = 1;
  }
  if (report.max_stale_slots > opt.stale_plan_ttl_slots) {
    std::fprintf(stderr,
                 "FAIL: stale-plan exposure %zu slot(s) exceeds the TTL "
                 "of %zu\n",
                 report.max_stale_slots, opt.stale_plan_ttl_slots);
    rc = 1;
  }
  if (args.options.count("max-shed")) {
    const double max_shed = std::stod(args.options.at("max-shed"));
    if (report.shed_fraction() > max_shed) {
      std::fprintf(stderr,
                   "FAIL: shed fraction %.4f exceeds the --max-shed %.4f "
                   "gate\n",
                   report.shed_fraction(), max_shed);
      rc = 1;
    }
  }
  return rc;
}

int cmd_simulate(const Args& args) {
  if (args.positional.empty()) return usage();
  const Scenario sc = resolve_scenario(args.positional[0]);
  const std::size_t slots =
      args.options.count("slots")
          ? static_cast<std::size_t>(std::stoul(args.options.at("slots")))
          : default_slots(sc);
  const std::uint64_t seed =
      args.options.count("seed") ? std::stoull(args.options.at("seed")) : 1;

  const SlotController controller(sc);
  OptimizedPolicy policy;
  const RunResult run = controller.run(policy, slots);
  SlotSimulator sim;
  Rng rng(seed);
  double analytic = 0.0, simulated = 0.0;
  for (std::size_t t = 0; t < slots; ++t) {
    analytic += run.slots[t].net_profit();
    simulated += sim.simulate(sc.topology, sc.slot_input(t), run.plans[t],
                              rng)
                     .net_profit_mean_delay();
  }
  std::printf("analytic net profit:  $%.2f\n", analytic);
  std::printf("simulated net profit: $%.2f  (gap %.2f%%)\n", simulated,
              100.0 * relative_difference(analytic, simulated));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "scenarios") return cmd_scenarios();
    if (cmd == "export") {
      if (argc != 4) return usage();
      return cmd_export(argv[2], argv[3]);
    }
    if (cmd == "run") return cmd_run(parse_args(argc, argv, 2));
    if (cmd == "simulate") return cmd_simulate(parse_args(argc, argv, 2));
    if (cmd == "forecast") return cmd_forecast(parse_args(argc, argv, 2));
    if (cmd == "replay") return cmd_replay(parse_args(argc, argv, 2));
    if (cmd == "check-plan") {
      return cmd_check_plan(parse_args(argc, argv, 2));
    }
    if (cmd == "inject") return cmd_inject(parse_args(argc, argv, 2));
    if (cmd == "bench") return cmd_bench(parse_args(argc, argv, 2));
    if (cmd == "qps") return cmd_qps(parse_args(argc, argv, 2));
    if (cmd == "chaos") return cmd_chaos(parse_args(argc, argv, 2));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
