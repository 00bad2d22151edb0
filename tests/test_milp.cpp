#include "solver/milp.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

#include <atomic>
#include <cmath>

#include "util/rng.hpp"

namespace palb {
namespace {

const MilpSolver solver;

TEST(Milp, PureLpPassesThrough) {
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  lp.add_variable(0.0, 3.5, 2.0);
  const MilpSolution sol = solver.solve(lp, {});
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 7.0, 1e-7);
}

TEST(Milp, RoundsDownFractionalOptimum) {
  // max x s.t. 2x <= 7, x integer -> x = 3.
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int x = lp.add_variable(0.0, kInfinity, 1.0);
  lp.add_constraint({{x, 2.0}}, Relation::kLe, 7.0);
  const MilpSolution sol = solver.solve(lp, {x});
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-9);
  EXPECT_NEAR(sol.objective, 3.0, 1e-7);
}

TEST(Milp, KnapsackAgainstBruteForce) {
  // 0/1 knapsack with 8 items; brute force is the oracle.
  const std::vector<double> value = {9, 7, 6, 5, 12, 3, 8, 4};
  const std::vector<double> weight = {4, 3, 3, 2, 6, 1, 5, 2};
  const double capacity = 11.0;

  double best = 0.0;
  for (int mask = 0; mask < (1 << 8); ++mask) {
    double v = 0.0, w = 0.0;
    for (int i = 0; i < 8; ++i) {
      if (mask & (1 << i)) {
        v += value[static_cast<std::size_t>(i)];
        w += weight[static_cast<std::size_t>(i)];
      }
    }
    if (w <= capacity) best = std::max(best, v);
  }

  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  std::vector<int> ints;
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 8; ++i) {
    const int v = lp.add_variable(0.0, 1.0, value[static_cast<std::size_t>(i)]);
    ints.push_back(v);
    row.emplace_back(v, weight[static_cast<std::size_t>(i)]);
  }
  lp.add_constraint(row, Relation::kLe, capacity);
  const MilpSolution sol = solver.solve(lp, ints);
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, best, 1e-6);
  for (int v : ints) {
    const double x = sol.x[static_cast<std::size_t>(v)];
    EXPECT_NEAR(x, std::round(x), 1e-6);
  }
}

TEST(Milp, MixedIntegerContinuous) {
  // max 2i + c  s.t. i + c <= 4.3, c <= 1.8, i integer -> i=2, c=1.8? No:
  // i + c <= 4.3 allows i=4,c=0.3 -> 8.3; check against that.
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int i = lp.add_variable(0.0, kInfinity, 2.0);
  const int c = lp.add_variable(0.0, 1.8, 1.0);
  lp.add_constraint({{i, 1.0}, {c, 1.0}}, Relation::kLe, 4.3);
  const MilpSolution sol = solver.solve(lp, {i});
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 4.0, 1e-7);
  EXPECT_NEAR(sol.x[1], 0.3, 1e-6);
  EXPECT_NEAR(sol.objective, 8.3, 1e-6);
}

TEST(Milp, InfeasibleIntegerBand) {
  // 1.2 <= x <= 1.8 with x integer has no solution.
  LinearProgram lp;
  const int x = lp.add_variable(1.2, 1.8, 1.0);
  const MilpSolution sol = solver.solve(lp, {x});
  EXPECT_EQ(sol.status, MilpStatus::kInfeasible);
}

TEST(Milp, InfeasibleLpReported) {
  LinearProgram lp;
  const int x = lp.add_variable(0.0, 1.0, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGe, 3.0);
  EXPECT_EQ(solver.solve(lp, {x}).status, MilpStatus::kInfeasible);
}

TEST(Milp, UnboundedReported) {
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int x = lp.add_variable(0.0, kInfinity, 1.0);
  EXPECT_EQ(solver.solve(lp, {x}).status, MilpStatus::kUnbounded);
}

TEST(Milp, NodeLimitReported) {
  MilpSolver::Options opt;
  opt.max_nodes = 1;
  const MilpSolver limited(opt);
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int x = lp.add_variable(0.0, kInfinity, 1.0);
  const int y = lp.add_variable(0.0, kInfinity, 1.0);
  lp.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::kLe, 7.0);
  const MilpSolution sol = limited.solve(lp, {x, y});
  EXPECT_EQ(sol.status, MilpStatus::kNodeLimit);
}

/// max x + y  s.t. x + y >= 1.5, x + 2y <= 4.5, x, y integer in [0, 3]:
/// feasible, optimum 3 at (3, 0) or (2, 1).
LinearProgram two_var_probe() {
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int x = lp.add_variable(0.0, 3.0, 1.0);
  const int y = lp.add_variable(0.0, 3.0, 1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGe, 1.5);
  lp.add_constraint({{x, 1.0}, {y, 2.0}}, Relation::kLe, 4.5);
  return lp;
}

TEST(Milp, CancelledRelaxationStopsTheSearchUnproven) {
  // A cancelled relaxation certifies nothing: it must neither become
  // the incumbent nor let the search report a proof.
  const std::atomic<bool> cancel{true};
  MilpSolver::Options opt;
  opt.lp.cancel = &cancel;
  opt.lp.cancel_check_every = 1;
  const MilpSolution sol = MilpSolver(opt).solve(two_var_probe(), {0, 1});
  EXPECT_EQ(sol.status, MilpStatus::kNodeLimit);
  EXPECT_TRUE(sol.x.empty());
  EXPECT_EQ(sol.nodes_explored, 1);
}

TEST(Milp, PivotCappedRelaxationLeavesTheSearchUnproven) {
  const MilpSolution full = solver.solve(two_var_probe(), {0, 1});
  ASSERT_EQ(full.status, MilpStatus::kOptimal);
  EXPECT_NEAR(full.objective, 3.0, 1e-7);
  // Every relaxation stops at its pivot cap, so no subtree is explored:
  // the feasible MILP must not be reported infeasible.
  MilpSolver::Options opt;
  opt.lp.max_iterations = 1;
  const MilpSolution sol = MilpSolver(opt).solve(two_var_probe(), {0, 1});
  EXPECT_EQ(sol.status, MilpStatus::kNodeLimit);
}

TEST(Milp, MinimizationDirection) {
  // min 3x + 2y  s.t. x + y >= 2.5, x,y integer -> (0,3) or (1,2): cost 6
  // vs 7 -> 6.
  LinearProgram lp;
  const int x = lp.add_variable(0.0, kInfinity, 3.0);
  const int y = lp.add_variable(0.0, kInfinity, 2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGe, 2.5);
  const MilpSolution sol = solver.solve(lp, {x, y});
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 6.0, 1e-6);
}

TEST(Milp, RejectsBadIntegerIndex) {
  LinearProgram lp;
  lp.add_variable();
  EXPECT_THROW(solver.solve(lp, {5}), InvalidArgument);
}

class MilpRandomKnapsack : public ::testing::TestWithParam<int> {};

TEST_P(MilpRandomKnapsack, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  const int n = 6;
  std::vector<double> value(n), weight(n);
  for (int i = 0; i < n; ++i) {
    value[static_cast<std::size_t>(i)] = rng.uniform(1.0, 10.0);
    weight[static_cast<std::size_t>(i)] = rng.uniform(1.0, 6.0);
  }
  const double capacity = rng.uniform(5.0, 15.0);

  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double v = 0.0, w = 0.0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) {
        v += value[static_cast<std::size_t>(i)];
        w += weight[static_cast<std::size_t>(i)];
      }
    }
    if (w <= capacity) best = std::max(best, v);
  }

  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  std::vector<int> ints;
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < n; ++i) {
    const int v =
        lp.add_variable(0.0, 1.0, value[static_cast<std::size_t>(i)]);
    ints.push_back(v);
    row.emplace_back(v, weight[static_cast<std::size_t>(i)]);
  }
  lp.add_constraint(row, Relation::kLe, capacity);
  const MilpSolution sol = solver.solve(lp, ints);
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpRandomKnapsack, ::testing::Range(0, 15));

}  // namespace
}  // namespace palb
