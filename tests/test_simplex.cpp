#include "solver/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace palb {
namespace {

const SimplexSolver solver;

TEST(Simplex, TextbookTwoVariableMax) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18. Optimum (2, 6) = 36.
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int x = lp.add_variable(0, kInfinity, 3.0);
  const int y = lp.add_variable(0, kInfinity, 5.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLe, 4.0);
  lp.add_constraint({{y, 2.0}}, Relation::kLe, 12.0);
  lp.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLe, 18.0);
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 36.0, 1e-7);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-7);
  EXPECT_NEAR(sol.x[1], 6.0, 1e-7);
}

TEST(Simplex, MinimizationWithGeRows) {
  // min 2x + 3y  s.t. x + y >= 4, x + 3y >= 6. Optimum at (3, 1) = 9.
  LinearProgram lp;
  const int x = lp.add_variable(0, kInfinity, 2.0);
  const int y = lp.add_variable(0, kInfinity, 3.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGe, 4.0);
  lp.add_constraint({{x, 1.0}, {y, 3.0}}, Relation::kGe, 6.0);
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 9.0, 1e-7);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-6);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-6);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y  s.t. x + y = 3, x <= 1. Optimum (1, 2) = 5.
  LinearProgram lp;
  const int x = lp.add_variable(0, 1.0, 1.0);
  const int y = lp.add_variable(0, kInfinity, 2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 3.0);
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-7);
}

TEST(Simplex, DetectsInfeasibility) {
  LinearProgram lp;
  const int x = lp.add_variable(0, kInfinity, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGe, 2.0);
  EXPECT_EQ(solver.solve(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsBoundInfeasibility) {
  LinearProgram lp;
  const int x = lp.add_variable(0.0, 1.0, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGe, 5.0);
  EXPECT_EQ(solver.solve(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int x = lp.add_variable(0, kInfinity, 1.0);
  const int y = lp.add_variable(0, kInfinity, 0.0);
  lp.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kLe, 1.0);
  EXPECT_EQ(solver.solve(lp).status, LpStatus::kUnbounded);
}

TEST(Simplex, HandlesVariableUpperBounds) {
  // max x + y with x <= 2, y <= 3 via bounds only.
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  lp.add_variable(0.0, 2.0, 1.0);
  lp.add_variable(0.0, 3.0, 1.0);
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-8);
}

TEST(Simplex, HandlesShiftedLowerBounds) {
  // min x with x >= 2.5 and x + y <= 10, y >= 1 -> x = 2.5.
  LinearProgram lp;
  const int x = lp.add_variable(2.5, kInfinity, 1.0);
  const int y = lp.add_variable(1.0, kInfinity, 0.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLe, 10.0);
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 2.5, 1e-8);
}

TEST(Simplex, HandlesNegativeLowerBounds) {
  // min x + y, x >= -5, y >= -3, x + y >= -6 -> objective -6.
  LinearProgram lp;
  const int x = lp.add_variable(-5.0, kInfinity, 1.0);
  const int y = lp.add_variable(-3.0, kInfinity, 1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGe, -6.0);
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -6.0, 1e-7);
}

TEST(Simplex, HandlesFreeVariables) {
  // min |shape|: free variable pushed negative by the objective but held
  // by a row: min x s.t. x >= -7 expressed as a row, x free.
  LinearProgram lp;
  const int x = lp.add_variable(-kInfinity, kInfinity, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGe, -7.0);
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], -7.0, 1e-7);
}

TEST(Simplex, HandlesReflectedVariables) {
  // max x with x in (-inf, 9].
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  lp.add_variable(-kInfinity, 9.0, 1.0);
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 9.0, 1e-8);
}

TEST(Simplex, ObjectiveOffsetIncluded) {
  LinearProgram lp;
  lp.set_objective_offset(100.0);
  lp.add_variable(0.0, 1.0, 1.0);
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 100.0, 1e-8);
}

TEST(Simplex, RedundantRowsAreHarmless) {
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int x = lp.add_variable(0, kInfinity, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kEq, 4.0);
  lp.add_constraint({{x, 2.0}}, Relation::kEq, 8.0);  // same hyperplane
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 4.0, 1e-7);
}

TEST(Simplex, DegenerateVerticesTerminate) {
  // Classic degeneracy: multiple constraints meeting at the optimum.
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int x = lp.add_variable(0, kInfinity, 1.0);
  const int y = lp.add_variable(0, kInfinity, 1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLe, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  lp.add_constraint({{y, 1.0}}, Relation::kLe, 1.0);
  lp.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::kLe, 2.0);
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 1.0, 1e-7);
}

TEST(Simplex, SolutionSatisfiesModel) {
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int a = lp.add_variable(0.0, 10.0, 4.0);
  const int b = lp.add_variable(1.0, 8.0, -1.0);
  const int c = lp.add_variable(0.0, kInfinity, 2.5);
  lp.add_constraint({{a, 1.0}, {b, 2.0}, {c, 1.0}}, Relation::kLe, 20.0);
  lp.add_constraint({{a, 1.0}, {c, -1.0}}, Relation::kGe, -2.0);
  lp.add_constraint({{b, 1.0}, {c, 1.0}}, Relation::kLe, 12.0);
  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_TRUE(lp.is_feasible(sol.x, 1e-6));
  EXPECT_NEAR(lp.objective_value(sol.x), sol.objective, 1e-6);
}

TEST(ToString, LpStatusNames) {
  EXPECT_STREQ(to_string(LpStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(LpStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(LpStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(LpStatus::kIterationLimit), "iteration-limit");
}

/// Property sweep: random bounded LPs solved by simplex must (a) be
/// feasible per the model, (b) dominate a cloud of random feasible points
/// (no random point may beat the "optimum").
class SimplexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomTest, DominatesRandomFeasiblePoints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int n = 2 + static_cast<int>(rng.uniform_index(4));  // 2..5 vars
  const int m = 1 + static_cast<int>(rng.uniform_index(4));  // 1..4 rows

  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  for (int j = 0; j < n; ++j) {
    lp.add_variable(0.0, rng.uniform(0.5, 4.0), rng.uniform(-1.0, 3.0));
  }
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < n; ++j) {
      terms.emplace_back(j, rng.uniform(0.0, 2.0));
    }
    // rhs chosen positive so x = 0 is always feasible -> LP is feasible
    // and bounded (box above).
    lp.add_constraint(terms, Relation::kLe, rng.uniform(1.0, 6.0));
  }

  const LpSolution sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  ASSERT_TRUE(lp.is_feasible(sol.x, 1e-6));
  EXPECT_NEAR(lp.objective_value(sol.x), sol.objective, 1e-6);

  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> candidate(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      candidate[static_cast<std::size_t>(j)] =
          rng.uniform(0.0, lp.upper_bound(j));
    }
    if (!lp.is_feasible(candidate, 0.0)) continue;
    EXPECT_LE(lp.objective_value(candidate), sol.objective + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomTest, ::testing::Range(0, 25));

TEST(SimplexDeterminism, DantzigTiesBreakToLowestIndex) {
  // max x0 + x1 s.t. x0 + x1 <= 1: both columns price identically, so the
  // documented tie-break (lowest column index enters) decides which of
  // the two alternate optima the solver reports. This pins the plan-level
  // determinism contract: ties must resolve to (1, 0), never (0, 1).
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int x0 = lp.add_variable(0, kInfinity, 1.0);
  const int x1 = lp.add_variable(0, kInfinity, 1.0);
  lp.add_constraint({{x0, 1.0}, {x1, 1.0}}, Relation::kLe, 1.0);
  SimplexSolver::Options opt;
  opt.record_pivots = true;
  const LpSolution sol = SimplexSolver(opt).solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 0.0, 1e-9);
  ASSERT_EQ(sol.pivot_log.size(), 1u);
  EXPECT_EQ(sol.pivot_log[0].first, 0);  // internal column of x0
}

TEST(SimplexDeterminism, RepeatedSolvesPivotIdentically) {
  // The same model solved repeatedly — including by a freshly constructed
  // solver — must walk the exact same pivot sequence and reproduce the
  // solution bit-for-bit. This is the regression guard for the
  // deterministic pricing rules (candidate list refilled by full Dantzig
  // scans, lowest-index ties, Bland fallback): any hidden source of
  // nondeterminism (iteration order over a hash map, uninitialized
  // scratch, address-dependent ordering) breaks it.
  Rng rng(20240806);
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int n = 12, m = 9;
  for (int j = 0; j < n; ++j) {
    lp.add_variable(0.0, rng.uniform(0.5, 4.0), rng.uniform(-1.0, 3.0));
  }
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < n; ++j) terms.emplace_back(j, rng.uniform(0.0, 2.0));
    lp.add_constraint(terms, Relation::kLe, rng.uniform(2.0, 8.0));
  }
  SimplexSolver::Options opt;
  opt.record_pivots = true;
  const SimplexSolver first_solver(opt);
  const LpSolution first = first_solver.solve(lp);
  ASSERT_EQ(first.status, LpStatus::kOptimal);
  ASSERT_FALSE(first.pivot_log.empty());
  for (int rep = 0; rep < 3; ++rep) {
    const SimplexSolver fresh(opt);
    const LpSolution again =
        (rep % 2 == 0 ? first_solver : fresh).solve(lp);
    ASSERT_EQ(again.status, LpStatus::kOptimal);
    EXPECT_EQ(again.pivot_log, first.pivot_log) << "rep " << rep;
    EXPECT_EQ(again.x, first.x) << "rep " << rep;  // bitwise, not NEAR
    EXPECT_EQ(again.objective, first.objective) << "rep " << rep;
    EXPECT_EQ(again.iterations, first.iterations) << "rep " << rep;
  }
}

TEST(SimplexDeterminism, WarmStartedSolvesPivotIdentically) {
  // Warm starts trade pivots for path dependence on the supplied basis —
  // but for a FIXED basis the path must still be reproducible.
  Rng rng(77);
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int n = 8, m = 6;
  for (int j = 0; j < n; ++j) {
    lp.add_variable(0.0, rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0));
  }
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < n; ++j) terms.emplace_back(j, rng.uniform(0.1, 1.5));
    lp.add_constraint(terms, Relation::kLe, rng.uniform(2.0, 6.0));
  }
  SimplexSolver::Options opt;
  opt.record_pivots = true;
  const SimplexSolver solver_rec(opt);
  const LpSolution cold = solver_rec.solve(lp);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  const LpSolution warm1 = solver_rec.solve(lp, &cold.basis);
  const LpSolution warm2 = solver_rec.solve(lp, &cold.basis);
  ASSERT_EQ(warm1.status, LpStatus::kOptimal);
  EXPECT_TRUE(warm1.warm_start_used);
  EXPECT_EQ(warm1.pivot_log, warm2.pivot_log);
  EXPECT_EQ(warm1.x, warm2.x);
  // Same optimum as the cold solve; the arithmetic path differs (the warm
  // install recomputes basics from scratch) so compare numerically.
  EXPECT_NEAR(warm1.objective, cold.objective, 1e-9);
}

// ---- Sparse pivot kernel vs dense kernel --------------------------------
//
// The support-walking kernel's contract is *bitwise*: skipping an exact
// zero is an arithmetic no-op, so pivot sequences, statuses, points,
// objectives and duals must match the dense kernel exactly.

/// Block-angular maximization instance: `blocks` independent groups of
/// variables, each with its own "flow" row, tied together by `coupling`
/// dense rows — the same shape as the dispatcher's profile LPs (flow
/// per (class, front-end), capacity per DC). All data is continuous
/// random, so the optimum is unique almost surely.
LinearProgram random_block_lp(std::uint64_t seed, int blocks = 4,
                              int vars_per_block = 3, int coupling = 2) {
  Rng rng(seed * 104729 + 7);
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  std::vector<std::vector<int>> block_vars(
      static_cast<std::size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    for (int v = 0; v < vars_per_block; ++v) {
      block_vars[static_cast<std::size_t>(b)].push_back(lp.add_variable(
          0.0, rng.uniform(1.0, 5.0), rng.uniform(0.5, 3.0)));
    }
  }
  for (int b = 0; b < blocks; ++b) {
    std::vector<std::pair<int, double>> terms;
    for (const int v : block_vars[static_cast<std::size_t>(b)]) {
      terms.emplace_back(v, 1.0);
    }
    lp.add_constraint(terms, Relation::kLe, rng.uniform(1.0, 6.0));
  }
  for (int c = 0; c < coupling; ++c) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < lp.num_variables(); ++j) {
      terms.emplace_back(j, rng.uniform(0.2, 1.5));
    }
    lp.add_constraint(terms, Relation::kLe, rng.uniform(2.0, 8.0));
  }
  return lp;
}

/// General (non-block) random LP for the kernel differential: mixed
/// relations, some negative rhs, maximize.
LinearProgram random_general_lp(std::uint64_t seed) {
  Rng rng(seed * 6151 + 11);
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int n = 4 + static_cast<int>(rng.uniform_index(5));
  const int m = 3 + static_cast<int>(rng.uniform_index(4));
  for (int j = 0; j < n; ++j) {
    lp.add_variable(0.0, rng.uniform(0.5, 4.0), rng.uniform(-1.0, 3.0));
  }
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.uniform(0.0, 1.0) < 0.7) {
        terms.emplace_back(j, rng.uniform(-1.0, 2.0));
      }
    }
    if (terms.empty()) terms.emplace_back(0, 1.0);
    const double roll = rng.uniform(0.0, 1.0);
    const Relation rel = roll < 0.7   ? Relation::kLe
                         : roll < 0.85 ? Relation::kGe
                                       : Relation::kEq;
    const double rhs = rel == Relation::kGe ? rng.uniform(-2.0, 0.5)
                                            : rng.uniform(0.5, 6.0);
    lp.add_constraint(terms, rel, rhs);
  }
  return lp;
}

TEST(SparsePivoting, BitIdenticalToDenseKernel) {
  std::uint64_t total_skips = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const LinearProgram lp = seed % 2 == 0 ? random_block_lp(seed)
                                           : random_general_lp(seed);
    SimplexSolver::Options dense_opt;
    dense_opt.sparse_pivoting = false;
    dense_opt.record_pivots = true;
    SimplexSolver::Options sparse_opt;
    sparse_opt.sparse_pivoting = true;
    sparse_opt.record_pivots = true;

    const LpSolution d = SimplexSolver(dense_opt).solve(lp);
    const LpSolution s = SimplexSolver(sparse_opt).solve(lp);
    ASSERT_EQ(d.status, s.status) << "seed " << seed;
    EXPECT_EQ(d.pivot_log, s.pivot_log) << "seed " << seed;
    EXPECT_EQ(d.iterations, s.iterations) << "seed " << seed;
    EXPECT_EQ(d.objective, s.objective) << "seed " << seed;
    EXPECT_EQ(d.x, s.x) << "seed " << seed;
    EXPECT_EQ(d.duals, s.duals) << "seed " << seed;
    EXPECT_EQ(d.sparse_price_skips, 0u) << "dense kernel must not count";
    total_skips += s.sparse_price_skips;
  }
  // The hybrid kernel hands filled-in pivot rows back to the dense
  // loops, so an individual instance may legitimately count nothing;
  // across 40 instances the sparse path must still fire.
  EXPECT_GT(total_skips, 0u) << "sparse path never taken in 40 instances";
}

}  // namespace
}  // namespace palb
