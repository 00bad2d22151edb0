#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

// Exported deliberately: the Policy interface trades in Topology /
// SlotInput / DispatchPlan, so including a policy header means using
// the cloud vocabulary — every policy implementation and caller relies
// on this seam.
#include "cloud/model.hpp"  // IWYU pragma: export
#include "cloud/plan.hpp"   // IWYU pragma: export

namespace palb {

/// Cumulative solver-effort counters a policy has spent since it was
/// constructed (or cloned). The SlotController reads the delta across a
/// run and surfaces it in RunResult, so week-scale benches can report
/// LP pivots, profile sweeps and warm-start cache behaviour without
/// knowing the concrete policy type. Fields a policy does not track
/// simply stay zero.
struct PolicyStats {
  /// Slots whose solve was seeded from the previous slot's solution
  /// (inputs drifted less than the warm-start tolerance).
  std::uint64_t warm_start_hits = 0;
  /// Slots solved cold (no cache, or the inputs moved too much).
  std::uint64_t warm_start_misses = 0;
  /// TUF band profiles LP-solved or found structurally infeasible by
  /// enumeration / local search.
  std::uint64_t profiles_examined = 0;
  /// Profiles skipped without an LP solve because their value bound fell
  /// strictly below a known objective (the enumerated sweep's incumbent,
  /// or local search's current profile). Disjoint from
  /// profiles_examined: the two sum to the profiles visited.
  std::uint64_t profiles_pruned = 0;
  /// LP simplex pivots across all profile solves.
  std::uint64_t lp_iterations = 0;
  /// NLP inner-minimizer iterations (BigM path).
  std::uint64_t nlp_iterations = 0;
  /// LP solves that needed no phase-1 work (structurally feasible cold
  /// start, or a warm basis that landed in-bounds).
  std::uint64_t phase1_skips = 0;
  /// LP solves that accepted a caller-supplied starting basis (the
  /// basis-level warm start, distinct from the profile-level cache
  /// behind warm_start_hits).
  std::uint64_t basis_warm_hits = 0;
  /// Dense column updates the simplex's support-walking pivot kernel
  /// skipped (work avoided relative to the dense kernel).
  std::uint64_t sparse_price_skips = 0;
  /// Dantzig-Wolfe master re-solves and block subproblem solves: always
  /// 0 and written by nothing, since no policy decomposes its LPs. Kept
  /// because the palb-bench-v1 report and the e2e harness read them.
  std::uint64_t master_iterations = 0;
  std::uint64_t subproblem_solves = 0;

  PolicyStats& operator+=(const PolicyStats& other) {
    warm_start_hits += other.warm_start_hits;
    warm_start_misses += other.warm_start_misses;
    profiles_examined += other.profiles_examined;
    profiles_pruned += other.profiles_pruned;
    lp_iterations += other.lp_iterations;
    nlp_iterations += other.nlp_iterations;
    phase1_skips += other.phase1_skips;
    basis_warm_hits += other.basis_warm_hits;
    sparse_price_skips += other.sparse_price_skips;
    return *this;
  }
  friend bool operator==(const PolicyStats&, const PolicyStats&) = default;
  PolicyStats operator-(const PolicyStats& other) const {
    PolicyStats d;
    d.warm_start_hits = warm_start_hits - other.warm_start_hits;
    d.warm_start_misses = warm_start_misses - other.warm_start_misses;
    d.profiles_examined = profiles_examined - other.profiles_examined;
    d.profiles_pruned = profiles_pruned - other.profiles_pruned;
    d.lp_iterations = lp_iterations - other.lp_iterations;
    d.nlp_iterations = nlp_iterations - other.nlp_iterations;
    d.phase1_skips = phase1_skips - other.phase1_skips;
    d.basis_warm_hits = basis_warm_hits - other.basis_warm_hits;
    d.sparse_price_skips = sparse_price_skips - other.sparse_price_skips;
    return d;
  }
  /// Fraction of slots served from the warm-start cache (0 when the
  /// policy never attempted one).
  double cache_hit_rate() const {
    const std::uint64_t attempts = warm_start_hits + warm_start_misses;
    return attempts == 0
               ? 0.0
               : static_cast<double>(warm_start_hits) /
                     static_cast<double>(attempts);
  }
};

/// A request-dispatching and resource-allocation strategy: given the
/// static topology and one slot's arrivals + prices, produce the slot's
/// DispatchPlan. Implementations must return plans that pass
/// DispatchPlan::violations (the test suite enforces it for every policy
/// on every scenario).
class Policy {
 public:
  virtual ~Policy() = default;
  virtual const std::string& name() const = 0;
  virtual DispatchPlan plan_slot(const Topology& topology,
                                 const SlotInput& input) = 0;

  /// Independent copy carrying the same configuration (warm-start caches
  /// and other per-run state start fresh on the copy's own chain). The
  /// parallel SlotController gives each worker its own clone; a policy
  /// returning nullptr (the default) opts out of parallel evaluation and
  /// the controller falls back to the serial path.
  virtual std::unique_ptr<Policy> clone() const { return nullptr; }

  /// Reduced-effort variant for the ResilientController's rung-2
  /// re-solve after the full solve fails: same objective, but bounded
  /// work per slot (e.g. a small pivot budget, no warm-start state) so
  /// it terminates quickly and deterministically. nullptr (the default)
  /// means the policy has no cheaper mode and the ladder skips straight
  /// to rung 3.
  virtual std::unique_ptr<Policy> degraded() const { return nullptr; }

  /// Installs a cooperative cancellation token (not owned; nullptr
  /// clears it; must outlive every subsequent plan_slot). A policy that
  /// honors it aborts an in-flight plan_slot with SolveCancelled soon
  /// after the token reads true — the AsyncPlanner watchdog's deadline
  /// lever (docs/OVERLOAD.md). Clones made *after* the call inherit the
  /// token so a whole parallel candidate phase can be cancelled at once;
  /// degraded() instances deliberately do not (their bounded pivot
  /// budget already guarantees quick termination, and the fallback rung
  /// must be allowed to finish). The default is a no-op: a policy that
  /// ignores the token just runs to completion.
  virtual void set_cancel(const std::atomic<bool>* cancel) { (void)cancel; }

  /// Cumulative effort counters since construction (see PolicyStats).
  virtual PolicyStats stats() const { return {}; }
};

}  // namespace palb
