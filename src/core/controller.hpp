#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cloud/accounting.hpp"
#include "core/policy.hpp"
#include "market/price_trace.hpp"
#include "workload/rate_trace.hpp"

namespace palb {

/// A multi-slot scenario: static topology + per-(class, front-end) rate
/// traces + per-data-center price traces. The controller re-plans at the
/// start of every slot, exactly like the paper's hourly loop (§III).
struct Scenario {
  Topology topology;
  /// arrivals[k][s]: the rate trace feeding class k at front-end s.
  std::vector<std::vector<RateTrace>> arrivals;
  /// prices[l]: the price trace at data center l.
  std::vector<PriceTrace> prices;
  double slot_seconds = 3600.0;

  void validate() const;
  /// Materializes the inputs of slot `t`.
  SlotInput slot_input(std::size_t t) const;
};

/// Everything a run produced, slot by slot.
struct RunResult {
  std::vector<SlotMetrics> slots;
  std::vector<DispatchPlan> plans;
  SlotMetrics total;
  /// Solver-effort counters spent producing the plans (profiles swept,
  /// LP pivots, NLP iterations), as for_each_slot returns them: the
  /// delta of the policy's cumulative PolicyStats on a serial run, the
  /// sum over the per-slot clones on a parallel one.
  PolicyStats stats;

  /// Resilience telemetry, filled by the ResilientController (empty /
  /// zero on plain SlotController runs). fallback_rungs[t] is the ladder
  /// rung that produced slot t's applied plan (1 = full solve ... 5 =
  /// shed-all; see docs/RESILIENCE.md), repair_adjustments[t] the number
  /// of PlanChecker::repair() fixes applied on top of it.
  std::vector<int> fallback_rungs;
  std::vector<std::size_t> repair_adjustments;
  std::size_t faulted_slots = 0;

  /// Overload telemetry (docs/OVERLOAD.md), filled by the
  /// ResilientController when Options::live is wired up. live_slots[t]
  /// is the index of the slot whose applied plan was *live* (published)
  /// after slot t's ladder ran — equal to t normally, an earlier slot
  /// while a publish-delay fault suppresses publishes, and -1 before
  /// the first publish. The stale-plan age of slot t is thus
  /// t - live_slots[t]. Empty when no live handle was attached.
  std::vector<std::int64_t> live_slots;
  /// Slots whose rung-1 full solve was skipped by a planner-stall fault
  /// (deadline consumed before the solve could finish).
  std::size_t stalled_solves = 0;
  /// Publishes suppressed by publish-delay faults.
  std::size_t delayed_publishes = 0;
  /// Publishes forced through a publish-delay window because the live
  /// plan's age exceeded Options::stale_plan_ttl_slots.
  std::size_t ttl_escalations = 0;

  /// Total repair() adjustments across the run.
  std::size_t total_repairs() const;

  /// Convenience series for the figure benches.
  std::vector<double> net_profit_series() const;
  std::vector<double> class_dc_rate_series(std::size_t k,
                                           std::size_t l) const;
};

/// The one slot fan-out every controller shares: runs fn(p, i) for i in
/// [0, n) and returns the PolicyStats spent. When `workers` resolves to
/// 1 (bounded_workers: 0 = one per hardware thread, capped at n) or
/// `policy` cannot clone itself (clone() returns nullptr), it runs
/// serially on `policy` in index order and returns the delta of its
/// stats. Otherwise each index gets its own Policy::clone() on one
/// pool and the clones' stats are summed. Slots are independent
/// optimizations (the paper solves Eqs. 6-8 once per hour with no
/// carried state) and no cloneable policy carries state between
/// slots, so fn sees the same policy whichever way the index runs.
/// Exceptions follow parallel_for's fault contract.
PolicyStats for_each_slot(Policy& policy, std::size_t n, std::size_t workers,
                          const std::function<void(Policy&, std::size_t)>& fn);

/// Drives a policy across `num_slots` slots of a scenario.
class SlotController {
 public:
  /// How a run fans across cores: every slot goes through for_each_slot,
  /// and every policy's solve is deterministic per (topology, input), so
  /// plans are byte-identical to the 1-worker run
  /// (tests/test_parallel_determinism.cpp holds all 16 paper scenarios
  /// to that under TSan).
  struct RunOptions {
    /// 1 = serial on the calling thread (no clone needed); 0 = one
    /// worker per hardware thread; otherwise capped at num_slots.
    std::size_t workers = 1;
  };

  explicit SlotController(Scenario scenario);

  const Scenario& scenario() const { return scenario_; }

  RunResult run(Policy& policy, std::size_t num_slots,
                std::size_t first_slot = 0) const;
  RunResult run(Policy& policy, std::size_t num_slots,
                std::size_t first_slot, const RunOptions& options) const;

 private:
  Scenario scenario_;
};

}  // namespace palb
