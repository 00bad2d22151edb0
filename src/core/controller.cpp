#include "core/controller.hpp"

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/plan_checker.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace palb {

void Scenario::validate() const {
  PALB_REQUIRE(!topology.classes.empty() && !topology.frontends.empty() &&
                   !topology.datacenters.empty(),
               "scenario topology must have at least one class, front-end "
               "and data center");
  topology.validate();
  PALB_REQUIRE(arrivals.size() == topology.num_classes(),
               "one arrival-trace row per class required");
  // All arrival traces must agree on the horizon: a short trace would
  // otherwise silently wrap (RateTrace::at is modular) out of phase with
  // the others. Prices likewise, though the two horizons may differ
  // (e.g. 24 price slots under a week of arrivals).
  std::size_t arrival_slots = 0;
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    const auto& row = arrivals[k];
    PALB_REQUIRE(row.size() == topology.num_frontends(),
                 "one arrival trace per front-end required");
    for (std::size_t s = 0; s < row.size(); ++s) {
      const auto& trace = row[s];
      const std::string where = "arrival trace (class " + std::to_string(k) +
                                ", front-end " + std::to_string(s) + ")";
      PALB_REQUIRE(!trace.empty(), where + " must not be empty");
      if (arrival_slots == 0) arrival_slots = trace.slots();
      PALB_REQUIRE(trace.slots() == arrival_slots,
                   where + " has " + std::to_string(trace.slots()) +
                       " slots; other traces have " +
                       std::to_string(arrival_slots));
      for (std::size_t t = 0; t < trace.slots(); ++t) {
        const double r = trace.at(t);
        PALB_REQUIRE(std::isfinite(r) && r >= 0.0,
                     where + " slot " + std::to_string(t) +
                         " is not a finite non-negative rate: " +
                         std::to_string(r));
      }
    }
  }
  PALB_REQUIRE(prices.size() == topology.num_datacenters(),
               "one price trace per data center required");
  std::size_t price_slots = 0;
  for (std::size_t l = 0; l < prices.size(); ++l) {
    const auto& trace = prices[l];
    const std::string where =
        "price trace (data center " + std::to_string(l) + ")";
    PALB_REQUIRE(!trace.empty(), where + " must not be empty");
    if (price_slots == 0) price_slots = trace.size();
    PALB_REQUIRE(trace.size() == price_slots,
                 where + " has " + std::to_string(trace.size()) +
                     " slots; other price traces have " +
                     std::to_string(price_slots));
    for (std::size_t t = 0; t < trace.size(); ++t) {
      const double p = trace.at(t);
      PALB_REQUIRE(std::isfinite(p) && p >= 0.0,
                   where + " slot " + std::to_string(t) +
                       " is not a finite non-negative price: " +
                       std::to_string(p));
    }
  }
  PALB_REQUIRE(slot_seconds > 0.0, "slot length must be > 0");
}

SlotInput Scenario::slot_input(std::size_t t) const {
  SlotInput input;
  input.slot_seconds = slot_seconds;
  input.arrival_rate.assign(topology.num_classes(),
                            std::vector<double>(topology.num_frontends()));
  for (std::size_t k = 0; k < topology.num_classes(); ++k) {
    for (std::size_t s = 0; s < topology.num_frontends(); ++s) {
      const double r = arrivals[k][s].at(t);
      PALB_REQUIRE(std::isfinite(r) && r >= 0.0,
                   "arrival rate (class " + std::to_string(k) +
                       ", front-end " + std::to_string(s) + ", slot " +
                       std::to_string(t) +
                       ") is not a finite non-negative rate: " +
                       std::to_string(r));
      input.arrival_rate[k][s] = r;
    }
  }
  input.price.resize(topology.num_datacenters());
  for (std::size_t l = 0; l < topology.num_datacenters(); ++l) {
    const double p = prices[l].at(t);
    PALB_REQUIRE(std::isfinite(p) && p >= 0.0,
                 "price (data center " + std::to_string(l) + ", slot " +
                     std::to_string(t) +
                     ") is not a finite non-negative price: " +
                     std::to_string(p));
    input.price[l] = p;
  }
  return input;
}

std::size_t RunResult::total_repairs() const {
  std::size_t n = 0;
  for (const std::size_t a : repair_adjustments) n += a;
  return n;
}

std::vector<double> RunResult::net_profit_series() const {
  std::vector<double> out;
  out.reserve(slots.size());
  for (const auto& s : slots) out.push_back(s.net_profit());
  return out;
}

std::vector<double> RunResult::class_dc_rate_series(std::size_t k,
                                                    std::size_t l) const {
  std::vector<double> out;
  out.reserve(plans.size());
  for (const auto& p : plans) out.push_back(p.class_dc_rate(k, l));
  return out;
}

PolicyStats for_each_slot(
    Policy& policy, std::size_t n, std::size_t workers,
    const std::function<void(Policy&, std::size_t)>& fn) {
  const std::size_t resolved = bounded_workers(workers, n);
  // A policy that cannot clone itself runs serially: same results, one
  // core.
  if (resolved <= 1 || policy.clone() == nullptr) {
    const PolicyStats before = policy.stats();
    for (std::size_t i = 0; i < n; ++i) fn(policy, i);
    return policy.stats() - before;
  }
  std::vector<PolicyStats> spent(n);
  ThreadPool pool(resolved);
  parallel_for(pool, n, [&](std::size_t i) {
    const std::unique_ptr<Policy> own = policy.clone();
    fn(*own, i);
    spent[i] = own->stats();
  });
  PolicyStats total;
  for (const PolicyStats& s : spent) total += s;
  return total;
}

SlotController::SlotController(Scenario scenario)
    : scenario_(std::move(scenario)) {
  scenario_.validate();
}

RunResult SlotController::run(Policy& policy, std::size_t num_slots,
                              std::size_t first_slot) const {
  return run(policy, num_slots, first_slot, RunOptions{});
}

RunResult SlotController::run(Policy& policy, std::size_t num_slots,
                              std::size_t first_slot,
                              const RunOptions& options) const {
  PALB_REQUIRE(num_slots > 0, "need at least one slot");
  RunResult result;
  result.slots.resize(num_slots);
  result.plans.resize(num_slots);
  result.stats = for_each_slot(
      policy, num_slots, options.workers, [&](Policy& p, std::size_t t) {
        const SlotInput input = scenario_.slot_input(first_slot + t);
        DispatchPlan plan = p.plan_slot(scenario_.topology, input);
        // Policies self-check, but third-party Policy implementations
        // enter the run loop here — audit at the hand-off too.
        check::maybe_check_plan(scenario_.topology, input, plan,
                                "SlotController");
        result.slots[t] = evaluate_plan(scenario_.topology, input, plan);
        result.plans[t] = std::move(plan);
      });
  result.total = accumulate(result.slots);
  return result;
}

}  // namespace palb
