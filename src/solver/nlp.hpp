#pragma once

#include <functional>
#include <vector>

#include "util/rng.hpp"

namespace palb {

/// Box-constrained nonlinear program with inequality/equality constraints:
///
///   min f(x)   s.t.  g_i(x) <= 0,  h_j(x) == 0,  lb <= x <= ub.
///
/// Callbacks take the full point; gradients are estimated by central
/// finite differences unless an analytic gradient is supplied. This is the
/// in-tree stand-in for the commercial NLP/CLP solvers (CPLEX, AIMMS) the
/// paper used for its big-M multi-level-TUF formulation.
struct NlpProblem {
  using Fn = std::function<double(const std::vector<double>&)>;
  using Grad = std::function<std::vector<double>(const std::vector<double>&)>;

  std::size_t dimension = 0;
  std::vector<double> lower;  ///< size `dimension`
  std::vector<double> upper;  ///< size `dimension`
  Fn objective;
  Grad objective_gradient;             ///< optional
  std::vector<Fn> inequalities;        ///< g(x) <= 0
  std::vector<Fn> equalities;          ///< h(x) == 0

  void validate() const;
};

struct NlpResult {
  bool converged = false;
  /// Max constraint violation at the returned point.
  double infeasibility = 0.0;
  double objective = 0.0;
  std::vector<double> x;
  int outer_iterations = 0;
  int inner_iterations = 0;
};

/// Augmented-Lagrangian solver: the outer loop updates multipliers and the
/// penalty; the inner loop minimizes the augmented Lagrangian over the box
/// with projected gradient descent + Armijo backtracking.
class AugLagSolver {
 public:
  struct Options {
    int max_outer = 40;
    int max_inner = 400;
  };

  AugLagSolver() = default;
  explicit AugLagSolver(Options options) : options_(options) {}

  NlpResult solve(const NlpProblem& problem,
                  const std::vector<double>& x0) const;

  /// Runs `starts` solves from random points in the box (plus the supplied
  /// x0) and returns the best feasible result, or the least-infeasible one
  /// if none converged. The multi-start loop is embarrassingly parallel and
  /// fans across a thread pool.
  NlpResult solve_multistart(const NlpProblem& problem,
                             const std::vector<double>& x0, int starts,
                             Rng rng) const;

 private:
  Options options_;
};

}  // namespace palb
