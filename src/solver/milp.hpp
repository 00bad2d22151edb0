#pragma once

#include <vector>

#include "solver/linear_program.hpp"
#include "solver/simplex.hpp"

namespace palb {

enum class MilpStatus {
  kOptimal,
  kInfeasible,
  /// Stopped early (node cap, pivot cap or cancellation): optimality
  /// unproven. Carries the incumbent when one was found.
  kNodeLimit,
  kUnbounded,
};

const char* to_string(MilpStatus status);

struct MilpSolution {
  MilpStatus status = MilpStatus::kNodeLimit;
  double objective = 0.0;
  std::vector<double> x;
  int nodes_explored = 0;
  /// Simplex pivots summed over every node relaxation.
  int lp_iterations = 0;
  /// Node relaxations that accepted the parent's basis as a warm start.
  int lp_basis_warm_hits = 0;
};

/// Branch-and-bound mixed-integer solver over the dense simplex.
///
/// Used for the exact (small-instance) variant of the dispatcher where
/// the TUF-level choice per (type, data center) is encoded with binary
/// selector variables — the formulation the paper sketches with Eq. 14/25 —
/// and in tests as an oracle for knapsack-style instances. Depth-first
/// with best-bound tie-breaking, most-fractional branching.
class MilpSolver {
 public:
  struct Options {
    int max_nodes = 100000;
    /// Every node relaxation's solver options. A relaxation that stops
    /// at `lp.max_iterations` leaves its subtree unexplored, and one
    /// that observes `lp.cancel` ends the search; either way the result
    /// is kNodeLimit.
    SimplexSolver::Options lp;
  };

  MilpSolver() = default;
  explicit MilpSolver(Options options) : options_(options) {}

  /// `integer_vars` lists the variable indices required to be integral.
  MilpSolution solve(const LinearProgram& lp,
                     const std::vector<int>& integer_vars) const;

 private:
  Options options_;
};

}  // namespace palb
