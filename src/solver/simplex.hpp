#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "solver/linear_program.hpp"

namespace palb {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  /// The solve observed its Options::cancel token set and stopped at a
  /// pivot-batch boundary; the partial state certifies nothing.
  kCancelled,
};

const char* to_string(LpStatus status);

/// A simplex basis expressed in *model* space, so it can be carried from
/// one LinearProgram to another that shares variable/row identity (MILP
/// nodes differing only in bounds) or translated by the caller (profile
/// enumeration, where neighboring profiles share most columns).
///
/// `basic` lists the basic columns — either a model variable or the slack
/// of a model row; order carries no meaning. `at_upper` lists the model
/// variables that sit nonbasic at their *upper* bound; every other
/// nonbasic variable sits at its lower bound. Entries that do not exist
/// in the target LP are silently dropped on import, and rows left without
/// a basic column fall back to their own slack, so a partial basis is a
/// legal (if weaker) warm start. If the resulting point violates a bound
/// the solver discards the basis and cold-starts — a warm start can never
/// change the optimum, only the path to it.
struct SimplexBasis {
  enum class Kind : std::uint8_t { kVariable, kSlack };
  struct Entry {
    Kind kind = Kind::kSlack;
    int index = 0;  ///< variable id (kVariable) or row id (kSlack)
  };
  std::vector<Entry> basic;
  std::vector<int> at_upper;

  bool empty() const { return basic.empty() && at_upper.empty(); }
};

/// Result of an LP solve. `x` is in the original variable space of the
/// LinearProgram (bounds un-shifted), `objective` includes the model's
/// constant offset and respects the model's optimization sense.
struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
  /// Dual value (shadow price) per model constraint: the sensitivity
  /// d(objective)/d(rhs) at the optimum, in the model's own sense (for a
  /// maximization, a binding <= capacity row has a non-negative dual —
  /// "one more unit of rhs is worth this much"). Zero for non-binding
  /// and redundant rows. Read off the phase-2 reduced costs of the slack
  /// columns. Populated only at kOptimal.
  std::vector<double> duals;
  /// Pivot steps taken (basis changes plus bound flips) across both
  /// phases.
  int iterations = 0;
  /// Dense column updates the support-walking pivot kernel skipped: for
  /// each pivot that took the sparse path, the number of tableau columns
  /// outside the pivot row's nonzero support (each would have been a
  /// multiply-subtract per row in the dense kernel). Pivots whose row
  /// had filled in past half density run the dense loops and count
  /// nothing. Zero when Options::sparse_pivoting is off.
  std::uint64_t sparse_price_skips = 0;
  /// True when no phase-1 work was needed: either the model cold-started
  /// feasible (no artificial columns) or a warm basis landed in-bounds.
  bool phase1_skipped = false;
  /// True when a caller-supplied basis was installed and kept (i.e. it
  /// produced an in-bounds starting point); false on cold start or when
  /// the supplied basis was rejected.
  bool warm_start_used = false;
  /// Final basis at kOptimal, in model space; reusable via
  /// SimplexSolver::solve(lp, &basis).
  SimplexBasis basis;
  /// When Options::record_pivots is set: one entry per step, as
  /// (entering column, leaving column) in internal column indices;
  /// leaving == -1 marks a bound flip. Meant for determinism regression
  /// tests, not public consumption.
  std::vector<std::pair<int, int>> pivot_log;
};

/// Dense two-phase primal simplex for box-constrained ("bounded
/// variable") linear programs.
///
/// Scope: the dispatcher's per-profile LPs are small (tens of variables,
/// tens of rows) but solved by the hundreds per control slot, so the
/// implementation favours robustness (explicit phase 1, Bland fallback
/// against cycling, artificial-variable cleanup of redundant rows) and
/// constant-factor speed over asymptotic sophistication. Finite bounds
/// are handled implicitly by nonbasic-at-lower/upper status flags —
/// upper bounds never materialize as rows — the tableau lives in one
/// contiguous row-major arena, and pricing uses a candidate list
/// refreshed by full Dantzig scans (deterministic lowest-index
/// tie-breaks throughout, so pivot sequences — and therefore plans —
/// are reproducible across platforms and worker counts).
class SimplexSolver {
 public:
  struct Options {
    /// Hard cap on pivots across both phases.
    int max_iterations = 20000;
    /// Record the (entering, leaving) pivot sequence in
    /// LpSolution::pivot_log.
    bool record_pivots = false;
    /// Use the support-walking pivot kernel: per pivot, gather the
    /// pivot row's nonzero columns once and update only those. Pivot
    /// sequences, statuses, and every returned value are identical to
    /// the dense kernel (skipping an exact zero is an arithmetic
    /// no-op); LpSolution::sparse_price_skips counts the work avoided.
    bool sparse_pivoting = true;
    /// Cooperative cancellation token (not owned; may be nullptr). The
    /// pivot loop polls it every `cancel_check_every` pivots and returns
    /// LpStatus::kCancelled when it reads true — so a watchdog can stop
    /// a runaway solve at pivot-batch granularity without signals or
    /// thread kills. A solve that never observes the token set is
    /// bit-identical to one run without it (polling has no arithmetic
    /// effect).
    const std::atomic<bool>* cancel = nullptr;
    /// Pivots between cancellation polls (bounds the cancel latency to
    /// this many pivots per in-flight solve).
    int cancel_check_every = 256;
  };

  SimplexSolver() = default;
  explicit SimplexSolver(Options options) : options_(options) {}

  /// Solves `lp`, optionally warm-starting from `warm` (see
  /// SimplexBasis for the contract; pass nullptr to cold-start).
  LpSolution solve(const LinearProgram& lp,
                   const SimplexBasis* warm = nullptr) const;

 private:
  Options options_;
};

}  // namespace palb
