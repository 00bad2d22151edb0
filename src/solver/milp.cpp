#include "solver/milp.hpp"

#include <algorithm>
#include <cmath>
#include <stack>

#include "util/error.hpp"

namespace palb {

const char* to_string(MilpStatus status) {
  switch (status) {
    case MilpStatus::kOptimal:
      return "optimal";
    case MilpStatus::kInfeasible:
      return "infeasible";
    case MilpStatus::kNodeLimit:
      return "node-limit";
    case MilpStatus::kUnbounded:
      return "unbounded";
  }
  return "?";
}

namespace {

constexpr double kIntegralityTolerance = 1e-6;
/// Prune nodes whose bound is within this absolute gap of the
/// incumbent.
constexpr double kAbsoluteGap = 1e-9;

struct Node {
  // Tightened bounds for the integer variables along this branch.
  std::vector<std::pair<int, std::pair<double, double>>> bounds;
  // Optimal basis of the parent relaxation. Children differ from the
  // parent only in one variable's bounds, so the parent basis is usually
  // one dual step from their optimum; the simplex falls back to a cold
  // start whenever the tightened bound makes it infeasible.
  SimplexBasis warm;
};
}  // namespace

MilpSolution MilpSolver::solve(const LinearProgram& model,
                               const std::vector<int>& integer_vars) const {
  for (int v : integer_vars) {
    PALB_REQUIRE(v >= 0 && v < model.num_variables(),
                 "integer variable index out of range");
  }
  SimplexSolver lp_solver(options_.lp);
  const bool maximizing = model.objective_sense() == Sense::kMaximize;

  MilpSolution best;
  best.status = MilpStatus::kInfeasible;
  bool have_incumbent = false;

  std::stack<Node> open;
  open.push(Node{});
  int nodes = 0;
  bool stopped_early = false;  // node cap, pivot cap or cancellation
  bool root_unbounded = false;

  while (!open.empty()) {
    if (nodes >= options_.max_nodes) {
      stopped_early = true;
      break;
    }
    Node node = std::move(open.top());
    open.pop();
    ++nodes;

    // Apply the branch bounds on a copy of the model.
    LinearProgram relaxed = model;
    bool bounds_consistent = true;
    for (const auto& [var, lb_ub] : node.bounds) {
      const double lb = std::max(lb_ub.first, model.lower_bound(var));
      const double ub = std::min(lb_ub.second, model.upper_bound(var));
      if (lb > ub) {
        bounds_consistent = false;
        break;
      }
      relaxed.set_bounds(var, lb, ub);
    }
    if (!bounds_consistent) continue;

    const LpSolution rel = lp_solver.solve(
        relaxed, node.warm.empty() ? nullptr : &node.warm);
    best.lp_iterations += rel.iterations;
    if (rel.warm_start_used) ++best.lp_basis_warm_hits;
    if (rel.status == LpStatus::kInfeasible) continue;
    if (rel.status == LpStatus::kUnbounded) {
      // Unbounded relaxation at the root means the MILP itself is
      // unbounded or pathological; report rather than loop.
      root_unbounded = true;
      break;
    }
    if (rel.status == LpStatus::kCancelled) {
      // The partial relaxation certifies nothing; the caller asked the
      // whole search to stop.
      stopped_early = true;
      break;
    }
    if (rel.status == LpStatus::kIterationLimit) {
      // The subtree stays unexplored, so the search can no longer prove
      // optimality or infeasibility.
      stopped_early = true;
      continue;
    }

    // Bound-based pruning.
    if (have_incumbent) {
      const bool dominated =
          maximizing ? rel.objective <= best.objective + kAbsoluteGap
                     : rel.objective >= best.objective - kAbsoluteGap;
      if (dominated) continue;
    }

    // Most-fractional branching variable.
    int branch_var = -1;
    double worst_frac = kIntegralityTolerance;
    for (int v : integer_vars) {
      const double x = rel.x[static_cast<std::size_t>(v)];
      const double frac = std::abs(x - std::round(x));
      if (frac > worst_frac) {
        worst_frac = frac;
        branch_var = v;
      }
    }

    if (branch_var < 0) {
      // Integral: candidate incumbent.
      const bool better = !have_incumbent ||
                          (maximizing ? rel.objective > best.objective
                                      : rel.objective < best.objective);
      if (better) {
        best.objective = rel.objective;
        best.x = rel.x;
        for (int v : integer_vars) {
          best.x[static_cast<std::size_t>(v)] =
              std::round(best.x[static_cast<std::size_t>(v)]);
        }
        have_incumbent = true;
      }
      continue;
    }

    const double x = rel.x[static_cast<std::size_t>(branch_var)];
    const double floor_x = std::floor(x);
    Node down = node;
    down.bounds.push_back({branch_var, {-kInfinity, floor_x}});
    down.warm = rel.basis;
    Node up = node;
    up.bounds.push_back({branch_var, {floor_x + 1.0, kInfinity}});
    up.warm = rel.basis;
    // Explore the side nearest the fractional value first.
    if (x - floor_x > 0.5) {
      open.push(std::move(down));
      open.push(std::move(up));
    } else {
      open.push(std::move(up));
      open.push(std::move(down));
    }
  }

  best.nodes_explored = nodes;
  if (root_unbounded) {
    best.status = MilpStatus::kUnbounded;
  } else if (stopped_early) {
    // An early stop still reports any incumbent, flagged as kNodeLimit
    // so callers know optimality is unproven.
    best.status = MilpStatus::kNodeLimit;
  } else {
    best.status =
        have_incumbent ? MilpStatus::kOptimal : MilpStatus::kInfeasible;
  }
  return best;
}

}  // namespace palb
