// Differential tests across the three solver layers. On one family of
// random knapsack-style instances the relaxation chain must hold:
//
//   LP relaxation >= MILP optimum >= any NLP-found integer-feasible point
//
// (each layer only *removes* feasible points, so the optima can only
// fall). The MILP claims optimality — the NLP acts as an independent
// adversary trying to beat it, the simplex as the upper bound it must
// stay under. The second half pits the paper's Lagrange level selector
// (Eq. 25/26) against brute-force enumeration of the TUF levels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "solver/lagrange_selector.hpp"
#include "solver/linear_program.hpp"
#include "solver/milp.hpp"
#include "solver/nlp.hpp"
#include "solver/simplex.hpp"
#include "util/rng.hpp"

namespace palb {
namespace {

struct Knapsack {
  std::vector<double> value;
  std::vector<double> weight;
  double budget = 0.0;

  std::size_t size() const { return value.size(); }

  double total(const std::vector<double>& x) const {
    double v = 0.0;
    for (std::size_t i = 0; i < size(); ++i) v += value[i] * x[i];
    return v;
  }
  double load(const std::vector<double>& x) const {
    double w = 0.0;
    for (std::size_t i = 0; i < size(); ++i) w += weight[i] * x[i];
    return w;
  }
};

Knapsack random_knapsack(std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  Knapsack ks;
  const std::size_t n = 4 + rng.uniform_index(5);  // 4..8 items
  for (std::size_t i = 0; i < n; ++i) {
    ks.value.push_back(rng.uniform(1.0, 10.0));
    ks.weight.push_back(rng.uniform(1.0, 6.0));
  }
  // Budget admits some but not all items, so the instance is non-trivial.
  const double total_weight =
      std::accumulate(ks.weight.begin(), ks.weight.end(), 0.0);
  ks.budget = rng.uniform(0.3, 0.7) * total_weight;
  return ks;
}

LinearProgram knapsack_lp(const Knapsack& ks) {
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  std::vector<std::pair<int, double>> row;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const int var = lp.add_variable(0.0, 1.0, ks.value[i]);
    row.emplace_back(var, ks.weight[i]);
  }
  lp.add_constraint(row, Relation::kLe, ks.budget);
  return lp;
}

/// The same knapsack as an NLP: maximize value (minimize its negation)
/// over the box, with the budget as an inequality and integrality forced
/// through the non-convex equalities x_i (1 - x_i) = 0. The augmented
/// Lagrangian has no optimality certificate here — it just has to find
/// *some* feasible 0/1 point, which the MILP optimum must then dominate.
NlpProblem knapsack_nlp(const Knapsack& ks) {
  NlpProblem problem;
  problem.dimension = ks.size();
  problem.lower.assign(ks.size(), 0.0);
  problem.upper.assign(ks.size(), 1.0);
  problem.objective = [ks](const std::vector<double>& x) {
    return -ks.total(x);
  };
  problem.inequalities.push_back([ks](const std::vector<double>& x) {
    return ks.load(x) - ks.budget;
  });
  for (std::size_t i = 0; i < ks.size(); ++i) {
    problem.equalities.push_back(
        [i](const std::vector<double>& x) { return x[i] * (1.0 - x[i]); });
  }
  return problem;
}

/// Rounds an NLP point to 0/1 and greedily sheds the worst value/weight
/// items until the budget holds — always lands on an integer-feasible
/// point, whatever the solver returned (the empty selection has zero
/// load, so the loop terminates feasible).
std::vector<double> repair_to_feasible(const Knapsack& ks,
                                       const std::vector<double>& x) {
  std::vector<double> repaired(ks.size(), 0.0);
  for (std::size_t i = 0; i < ks.size(); ++i) {
    repaired[i] = x[i] >= 0.5 ? 1.0 : 0.0;
  }
  while (ks.load(repaired) > ks.budget) {
    std::size_t worst = ks.size();
    double worst_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ks.size(); ++i) {
      if (repaired[i] == 0.0) continue;
      const double ratio = ks.value[i] / ks.weight[i];
      if (ratio < worst_ratio) {
        worst_ratio = ratio;
        worst = i;
      }
    }
    if (worst == ks.size()) break;  // unreachable: empty load is 0
    repaired[worst] = 0.0;
  }
  return repaired;
}

TEST(SolverDifferential, RelaxationChainHoldsOnRandomKnapsacks) {
  constexpr double kTol = 1e-6;
  const SimplexSolver simplex;
  const MilpSolver milp;
  const AugLagSolver nlp;
  int nlp_matched_milp = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Knapsack ks = random_knapsack(seed);
    const LinearProgram lp = knapsack_lp(ks);

    const LpSolution relaxed = simplex.solve(lp);
    ASSERT_EQ(relaxed.status, LpStatus::kOptimal) << "seed " << seed;

    std::vector<int> integer_vars(ks.size());
    std::iota(integer_vars.begin(), integer_vars.end(), 0);
    const MilpSolution integral = milp.solve(lp, integer_vars);
    ASSERT_EQ(integral.status, MilpStatus::kOptimal) << "seed " << seed;

    // Layer 1 vs layer 2: dropping the integrality relaxation can only
    // help, so the LP bound sits on or above the MILP optimum.
    EXPECT_GE(relaxed.objective, integral.objective - kTol)
        << "seed " << seed;
    // The MILP's point must actually be integral and feasible in the LP.
    ASSERT_EQ(integral.x.size(), ks.size());
    for (double xi : integral.x) {
      EXPECT_NEAR(xi, std::round(xi), 1e-6);
    }
    EXPECT_TRUE(lp.is_feasible(integral.x, 1e-6)) << "seed " << seed;

    // Layer 3: the NLP hunts for an integer-feasible point via the big-M
    // style non-convex encoding; whatever it finds, repaired onto the
    // feasible set, must not beat the branch-and-bound optimum.
    std::vector<double> x0(ks.size(), 0.5);
    const NlpResult searched =
        nlp.solve_multistart(knapsack_nlp(ks), x0, 6, Rng(seed));
    const std::vector<double> feasible =
        repair_to_feasible(ks, searched.x.empty() ? x0 : searched.x);
    const double nlp_objective = ks.total(feasible);
    EXPECT_LE(nlp_objective, integral.objective + kTol) << "seed " << seed;
    EXPECT_LE(ks.load(feasible), ks.budget + kTol);
    if (std::abs(nlp_objective - integral.objective) <= 1e-6) {
      ++nlp_matched_milp;
    }
  }
  // The NLP is a heuristic, but on 4-8 item knapsacks the multistart
  // should actually *reach* the optimum a fair share of the time — if it
  // never does, the differential is vacuous.
  EXPECT_GE(nlp_matched_milp, 8);
}

// ---------------------------------------------------------------------
// Lagrange selector vs brute force.

TEST(SolverDifferential, LagrangeSelectorReproducesEveryLevelExactly) {
  Rng rng(321);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(6);  // 1..6 levels
    std::vector<double> levels(n);
    double u = rng.uniform(0.5, 1.0);
    for (std::size_t q = 0; q < n; ++q) {
      levels[q] = u;
      u *= rng.uniform(0.3, 0.9);  // strictly decreasing
    }
    for (std::size_t x = 1; x <= n; ++x) {
      EXPECT_NEAR(lagrange_level_select(levels, static_cast<int>(x)),
                  levels[x - 1], 1e-9 * std::max(1.0, levels[x - 1]))
          << "trial " << trial << " level " << x;
    }
  }
}

TEST(SolverDifferential, LagrangeArgmaxMatchesBruteForceEnumeration) {
  // An integer program choosing the TUF level that maximizes
  // utility(x) - price * x can evaluate utility through the Lagrange
  // polynomial instead of a table lookup; both routes must crown the
  // same level with the same net value.
  Rng rng(5150);
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(5);  // 2..6 levels
    std::vector<double> levels(n);
    double u = rng.uniform(0.5, 1.0);
    for (std::size_t q = 0; q < n; ++q) {
      levels[q] = u;
      u *= rng.uniform(0.3, 0.9);
    }
    const double price_per_level = rng.uniform(0.0, 0.2);

    int best_brute = -1;
    double best_brute_value = -std::numeric_limits<double>::infinity();
    for (std::size_t x = 1; x <= n; ++x) {
      const double value =
          levels[x - 1] - price_per_level * static_cast<double>(x);
      if (value > best_brute_value) {
        best_brute_value = value;
        best_brute = static_cast<int>(x);
      }
    }

    int best_lagrange = -1;
    double best_lagrange_value = -std::numeric_limits<double>::infinity();
    for (std::size_t x = 1; x <= n; ++x) {
      const double value =
          lagrange_level_select(levels, static_cast<int>(x)) -
          price_per_level * static_cast<double>(x);
      if (value > best_lagrange_value) {
        best_lagrange_value = value;
        best_lagrange = static_cast<int>(x);
      }
    }

    EXPECT_EQ(best_lagrange, best_brute) << "trial " << trial;
    EXPECT_NEAR(best_lagrange_value, best_brute_value, 1e-9);
  }
}

TEST(SolverDifferential, LagrangePolynomialInterpolatesBetweenLevels) {
  // The continuous extension must pass through every integer point and
  // stay finite in between (relaxation solvers probe those values).
  const std::vector<double> levels = {0.9, 0.5, 0.2};
  for (std::size_t x = 1; x <= levels.size(); ++x) {
    EXPECT_NEAR(lagrange_level_polynomial(levels, static_cast<double>(x)),
                levels[x - 1], 1e-9);
  }
  for (double x = 1.0; x <= 3.0; x += 0.125) {
    EXPECT_TRUE(std::isfinite(lagrange_level_polynomial(levels, x)));
  }
}

}  // namespace
}  // namespace palb
