#pragma once

#include <atomic>
#include <cstddef>
#include <optional>

#include "check/plan_checker.hpp"
#include "core/controller.hpp"
#include "core/plan_handle.hpp"
#include "fault/fault.hpp"

namespace palb {

/// Which rung of the ResilientController's fallback ladder produced a
/// slot's applied plan (docs/RESILIENCE.md "ladder semantics"). Lower is
/// better; the ladder never runs past kShedAll because the zero plan is
/// feasible by construction.
enum class FallbackRung : int {
  kFullSolve = 1,       ///< the wrapped policy, at full effort
  kReducedResolve = 2,  ///< Policy::degraded() re-solve, bounded pivots
  kPreviousPlan = 3,    ///< previous slot's applied plan, projected
  kHeuristic = 4,       ///< BalancedPolicy (or Options::heuristic)
  kShedAll = 5,         ///< zero plan: drop everything, power down
};

/// Stable kebab-case name ("full-solve", ...) for the CLI table and the
/// bench JSON; never reworded once released.
const char* to_string(FallbackRung rung);

/// One fallback-ladder rung's acceptance step, shared by the
/// ResilientController and ClosedLoopSimulator's in-loop ladder. Zeroes
/// every flow `candidate` routes over a cut front-end<->DC link (the one
/// fault repair() cannot see: a blocked link is feasible by the plan
/// constraints, just unusable this slot), pushes the result through
/// checker.repair(), and returns the repaired plan if it passes
/// checker.check() against the surviving topology and `input`;
/// std::nullopt otherwise.
std::optional<PlanRepairReport> accept_candidate(const PlanChecker& checker,
                                                 const FaultedSlot& world,
                                                 const SlotInput& input,
                                                 DispatchPlan candidate);

/// SlotController's fault-tolerant sibling: drives a policy across a
/// scenario perturbed by a FaultSchedule, and guarantees every slot an
/// applied plan that passes PlanChecker::check() against the slot's
/// *surviving* world — even when inputs are corrupted, data centers go
/// dark, or the solver itself fails. Each slot walks the fallback
/// ladder (FallbackRung), and the first rung whose candidate
/// accept_candidate() passes is applied. RunResult::fallback_rungs /
/// repair_adjustments / faulted_slots record what happened.
///
/// Determinism: candidate solves fan out through for_each_slot (one
/// Policy::clone() per slot), rung-2 re-solves use a fresh
/// Policy::degraded() instance per failed slot, and the ladder itself
/// runs serially in slot order — so fault-injected runs stay
/// byte-identical across worker counts
/// (tests/test_parallel_determinism.cpp holds it under faults too).
class ResilientController {
 public:
  struct Options {
    /// Worker fan-out for the candidate-solve phase; same semantics as
    /// SlotController::RunOptions::workers.
    std::size_t workers = 1;
    /// Rung-4 heuristic override (not owned; must outlive the
    /// controller). nullptr = an internal BalancedPolicy.
    Policy* heuristic = nullptr;
    /// Optional live-plan cell (not owned): every plan the ladder
    /// applies is publish()ed here the moment it is accepted, in slot
    /// order (version v = slot v-1), so concurrent readers — the
    /// serve::Dispatcher's routing tables, wired up by
    /// serve::AsyncPlanner — always acquire() a checked, coherent
    /// plan while the run is still in flight (docs/SERVING.md).
    PlanHandle* live = nullptr;
    /// Cooperative cancellation token (not owned; may be nullptr),
    /// installed on `policy` via Policy::set_cancel() for the candidate
    /// phase so clones inherit it, and uninstalled (set_cancel(nullptr))
    /// when that phase ends, however it ends. Once it reads true,
    /// in-flight full solves abort (SolveCancelled) and the ladder
    /// serves those slots from its cheaper rungs — the AsyncPlanner
    /// watchdog's deadline lever (docs/OVERLOAD.md).
    const std::atomic<bool>* cancel = nullptr;
    /// Highest-effort rung the candidate phase may attempt: kFullSolve
    /// (the default) tries everything; kReducedResolve skips rung 1
    /// outright; kPreviousPlan (or lower) skips rungs 1 and 2 — the
    /// descending-effort retry ladder the watchdog walks after repeated
    /// deadline expirations.
    FallbackRung max_effort = FallbackRung::kFullSolve;
    /// Stale-plan TTL in slots, active only with `live` attached and a
    /// publish-delay fault suppressing publishes: when the live plan's
    /// age (current slot minus last published slot) would exceed this
    /// bound, the publish is forced through anyway and counted in
    /// RunResult::ttl_escalations. 0 disables escalation (delays win).
    std::size_t stale_plan_ttl_slots = 0;
  };

  ResilientController(Scenario scenario, FaultSchedule schedule);

  const Scenario& scenario() const { return scenario_; }
  const FaultSchedule& schedule() const { return schedule_; }

  /// Never throws on faults: every slot gets an applied, audited plan.
  /// (Configuration errors — an invalid scenario or num_slots == 0 —
  /// still throw InvalidArgument up front.)
  RunResult run(Policy& policy, std::size_t num_slots,
                std::size_t first_slot = 0) const;
  RunResult run(Policy& policy, std::size_t num_slots,
                std::size_t first_slot, const Options& options) const;

 private:
  Scenario scenario_;
  FaultSchedule schedule_;
};

}  // namespace palb
