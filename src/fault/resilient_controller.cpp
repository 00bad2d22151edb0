#include "fault/resilient_controller.hpp"

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cloud/accounting.hpp"
#include "core/balanced_policy.hpp"
#include "util/error.hpp"

namespace palb {

const char* to_string(FallbackRung rung) {
  switch (rung) {
    case FallbackRung::kFullSolve:
      return "full-solve";
    case FallbackRung::kReducedResolve:
      return "reduced-resolve";
    case FallbackRung::kPreviousPlan:
      return "previous-plan";
    case FallbackRung::kHeuristic:
      return "heuristic";
    case FallbackRung::kShedAll:
      return "shed-all";
  }
  return "unknown";
}

std::optional<PlanRepairReport> accept_candidate(const PlanChecker& checker,
                                                 const FaultedSlot& world,
                                                 const SlotInput& input,
                                                 DispatchPlan candidate) {
  if (world.has_blocked_link) {
    const std::size_t K = world.topology.num_classes();
    const std::size_t S = world.topology.num_frontends();
    const std::size_t L = world.topology.num_datacenters();
    for (std::size_t k = 0; k < K; ++k) {
      for (std::size_t s = 0; s < S; ++s) {
        for (std::size_t l = 0; l < L; ++l) {
          if (world.blocked(s, l)) candidate.rate[k][s][l] = 0.0;
        }
      }
    }
  }
  PlanRepairReport repaired =
      checker.repair(world.topology, input, std::move(candidate));
  if (!checker.check(world.topology, input, repaired.plan).ok()) {
    return std::nullopt;
  }
  return repaired;
}

namespace {

/// Per-slot output of the parallel candidate phase. Everything the
/// serial ladder needs, computed from (scenario, schedule, slot) and the
/// slot's policy alone.
struct SlotCandidates {
  FaultedSlot world;
  std::optional<DispatchPlan> full;      ///< rung 1, absent if it failed
  std::optional<DispatchPlan> degraded;  ///< rung 2, only tried after 1
  PolicyStats degraded_stats;
};

/// Installs a cancel token on a policy for one scope and uninstalls it
/// on every exit path: the token may live on the caller's stack
/// (AsyncPlanner's solve thread), so the policy must not keep it.
class ScopedCancel {
 public:
  ScopedCancel(Policy& policy, const std::atomic<bool>* cancel)
      : policy_(policy) {
    policy_.set_cancel(cancel);
  }
  ~ScopedCancel() { policy_.set_cancel(nullptr); }
  ScopedCancel(const ScopedCancel&) = delete;
  ScopedCancel& operator=(const ScopedCancel&) = delete;

 private:
  Policy& policy_;
};

SlotCandidates solve_candidates(const Scenario& scenario,
                                const FaultSchedule& schedule,
                                std::size_t slot, Policy& policy,
                                FallbackRung max_effort) {
  SlotCandidates out;
  out.world = schedule.materialize(scenario, slot);
  // Rung 1: the wrapped policy at full effort, fed the *sanitized*
  // input. A forced solver failure or planner stall skips it outright,
  // as does a caller capping effort below kFullSolve (the watchdog's
  // descending retry ladder).
  if (!out.world.solver_failure && !out.world.planner_stall &&
      max_effort == FallbackRung::kFullSolve) {
    try {
      out.full = policy.plan_slot(out.world.topology, out.world.input);
    } catch (const std::exception&) {
      // Fall through to the ladder (SolveCancelled lands here too: a
      // cancelled full solve degrades instead of propagating).
    }
  }
  if (!out.full &&
      static_cast<int>(max_effort) <=
          static_cast<int>(FallbackRung::kReducedResolve)) {
    // Rung 2: bounded re-solve on a *fresh* degraded instance, so the
    // candidate depends only on (topology, input).
    if (std::unique_ptr<Policy> cheap = policy.degraded()) {
      try {
        out.degraded = cheap->plan_slot(out.world.topology, out.world.input);
      } catch (const std::exception&) {
        // Fall through to the serial rungs.
      }
      out.degraded_stats = cheap->stats();
    }
  }
  return out;
}

}  // namespace

ResilientController::ResilientController(Scenario scenario,
                                         FaultSchedule schedule)
    : scenario_(std::move(scenario)), schedule_(std::move(schedule)) {
  scenario_.validate();
  schedule_.validate(scenario_.topology);
}

RunResult ResilientController::run(Policy& policy, std::size_t num_slots,
                                   std::size_t first_slot) const {
  return run(policy, num_slots, first_slot, Options{});
}

RunResult ResilientController::run(Policy& policy, std::size_t num_slots,
                                   std::size_t first_slot,
                                   const Options& options) const {
  PALB_REQUIRE(num_slots > 0, "need at least one slot");

  // ---- Phase A: candidate solves, one slot fan-out. The watchdog's
  // cancellation token is installed before any clone is made so the
  // whole phase shares it (clone() copies it; a no-op for policies that
  // ignore set_cancel).
  std::vector<SlotCandidates> slots(num_slots);
  RunResult result;
  {
    const ScopedCancel scoped_cancel(policy, options.cancel);
    result.stats = for_each_slot(
        policy, num_slots, options.workers, [&](Policy& p, std::size_t t) {
          slots[t] = solve_candidates(scenario_, schedule_, first_slot + t,
                                      p, options.max_effort);
        });
  }
  for (const auto& slot : slots) result.stats += slot.degraded_stats;

  // ---- Phase B: the ladder, serial in slot order (rung 3 consumes the
  // previous slot's *applied* plan, so order is semantic here).
  // repair() and the acceptance check() share one checker: with
  // different tolerances, repair's fixed point could fail the audit.
  const PlanChecker checker;
  BalancedPolicy balanced;
  Policy& heuristic =
      options.heuristic != nullptr ? *options.heuristic : balanced;

  result.slots.resize(num_slots);
  result.plans.resize(num_slots);
  result.fallback_rungs.assign(num_slots, 0);
  result.repair_adjustments.assign(num_slots, 0);
  result.faulted_slots = schedule_.count_faulted(num_slots, first_slot);
  if (options.live != nullptr) result.live_slots.assign(num_slots, -1);

  const DispatchPlan* previous = nullptr;
  // Index of the last slot whose plan reached the live handle; -1 until
  // the first publish. Stale-plan age of slot t = t - last_published.
  std::int64_t last_published = -1;
  for (std::size_t t = 0; t < num_slots; ++t) {
    SlotCandidates& slot = slots[t];
    const FaultedSlot& world = slot.world;

    // Applies `candidate` if accept_candidate() passes it; fills the
    // slot's record and returns true.
    const auto try_rung = [&](FallbackRung rung, DispatchPlan candidate) {
      std::optional<PlanRepairReport> repaired = accept_candidate(
          checker, world, world.input, std::move(candidate));
      if (!repaired) return false;
      result.fallback_rungs[t] = static_cast<int>(rung);
      result.repair_adjustments[t] = repaired->adjustments();
      result.slots[t] =
          evaluate_plan(world.topology, world.input, repaired->plan);
      result.plans[t] = std::move(repaired->plan);
      return true;
    };

    bool applied = false;
    if (slot.full) {
      applied = try_rung(FallbackRung::kFullSolve, std::move(*slot.full));
    }
    if (!applied && slot.degraded) {
      applied =
          try_rung(FallbackRung::kReducedResolve, std::move(*slot.degraded));
    }
    if (!applied && previous != nullptr) {
      applied = try_rung(FallbackRung::kPreviousPlan, *previous);
    }
    if (!applied) {
      try {
        applied = try_rung(FallbackRung::kHeuristic,
                           heuristic.plan_slot(world.topology, world.input));
      } catch (const std::exception&) {
        // The safe plan below cannot fail.
      }
    }
    if (!applied) {
      try_rung(FallbackRung::kShedAll, DispatchPlan::zero(world.topology));
    }
    previous = &result.plans[t];
    if (world.planner_stall) ++result.stalled_solves;
    // Hot-swap the applied plan for concurrent readers. Publishing
    // *after* the ladder accepts means a reader can never acquire() a
    // plan that failed its audit. A publish-delay fault suppresses the
    // swap — readers keep the previous live plan — unless the live
    // plan's age would blow the stale-plan TTL, in which case the
    // publish is forced through (escalation).
    if (options.live != nullptr) {
      bool delayed = world.publish_delayed;
      if (delayed && options.stale_plan_ttl_slots > 0 &&
          static_cast<std::int64_t>(t) - last_published >
              static_cast<std::int64_t>(options.stale_plan_ttl_slots)) {
        delayed = false;
        ++result.ttl_escalations;
      }
      if (delayed) {
        ++result.delayed_publishes;
      } else {
        options.live->publish(result.plans[t]);
        last_published = static_cast<std::int64_t>(t);
      }
      result.live_slots[t] = last_published;
    }
  }

  result.total = accumulate(result.slots);
  return result;
}

}  // namespace palb
