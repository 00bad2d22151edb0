#include "solver/nlp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace palb {
namespace {

const AugLagSolver solver;

NlpProblem box_problem(std::size_t n, double lo, double hi) {
  NlpProblem p;
  p.dimension = n;
  p.lower.assign(n, lo);
  p.upper.assign(n, hi);
  return p;
}

TEST(NlpProblem, ValidationCatchesBadShapes) {
  NlpProblem p;
  EXPECT_THROW(p.validate(), InvalidArgument);  // dimension 0
  p = box_problem(2, 0.0, 1.0);
  EXPECT_THROW(p.validate(), InvalidArgument);  // missing objective
  p.objective = [](const std::vector<double>&) { return 0.0; };
  p.lower = {0.0};
  EXPECT_THROW(p.validate(), InvalidArgument);  // bounds size
  p.lower = {2.0, 0.0};
  EXPECT_THROW(p.validate(), InvalidArgument);  // lb > ub
}

TEST(AugLag, UnconstrainedQuadratic) {
  NlpProblem p = box_problem(2, -10.0, 10.0);
  p.objective = [](const std::vector<double>& x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + 2.0 * (x[1] + 1.0) * (x[1] + 1.0);
  };
  const NlpResult r = solver.solve(p, {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 3.0, 1e-4);
  EXPECT_NEAR(r.x[1], -1.0, 1e-4);
  EXPECT_NEAR(r.objective, 0.0, 1e-6);
}

TEST(AugLag, BoxActiveAtOptimum) {
  NlpProblem p = box_problem(1, 0.0, 2.0);
  p.objective = [](const std::vector<double>& x) {
    return (x[0] - 5.0) * (x[0] - 5.0);
  };
  const NlpResult r = solver.solve(p, {1.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TEST(AugLag, LinearInequalityConstraint) {
  // min x^2 + y^2 s.t. x + y >= 2  ->  x = y = 1.
  NlpProblem p = box_problem(2, -5.0, 5.0);
  p.objective = [](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1];
  };
  p.inequalities.push_back(
      [](const std::vector<double>& x) { return 2.0 - x[0] - x[1]; });
  const NlpResult r = solver.solve(p, {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
  EXPECT_NEAR(r.objective, 2.0, 1e-2);
}

TEST(AugLag, EqualityConstraint) {
  // min (x-2)^2 + (y-2)^2 s.t. x + y = 2 -> x = y = 1.
  NlpProblem p = box_problem(2, -5.0, 5.0);
  p.objective = [](const std::vector<double>& x) {
    return (x[0] - 2.0) * (x[0] - 2.0) + (x[1] - 2.0) * (x[1] - 2.0);
  };
  p.equalities.push_back(
      [](const std::vector<double>& x) { return x[0] + x[1] - 2.0; });
  const NlpResult r = solver.solve(p, {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(AugLag, CircleConstraintGeometry) {
  // min -(x + y) s.t. x^2 + y^2 <= 1 -> x = y = 1/sqrt(2).
  NlpProblem p = box_problem(2, -2.0, 2.0);
  p.objective = [](const std::vector<double>& x) { return -(x[0] + x[1]); };
  p.inequalities.push_back([](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1] - 1.0;
  });
  const NlpResult r = solver.solve(p, {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(r.x[0], inv_sqrt2, 5e-3);
  EXPECT_NEAR(r.x[1], inv_sqrt2, 5e-3);
}

TEST(AugLag, ReportsInfeasibleProblem) {
  // x <= -1 impossible inside the box [0, 1].
  NlpProblem p = box_problem(1, 0.0, 1.0);
  p.objective = [](const std::vector<double>& x) { return x[0]; };
  p.inequalities.push_back(
      [](const std::vector<double>& x) { return x[0] + 1.0; });
  const NlpResult r = solver.solve(p, {0.5});
  EXPECT_FALSE(r.converged);
  EXPECT_GT(r.infeasibility, 0.5);
}

TEST(AugLag, AnalyticGradientUnusedPathStillWorks) {
  // The solver currently differentiates the merit numerically; supplying
  // an objective gradient must not break anything.
  NlpProblem p = box_problem(1, -4.0, 4.0);
  p.objective = [](const std::vector<double>& x) {
    return std::pow(x[0] - 1.5, 2.0);
  };
  p.objective_gradient = [](const std::vector<double>& x) {
    return std::vector<double>{2.0 * (x[0] - 1.5)};
  };
  const NlpResult r = solver.solve(p, {-3.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.5, 1e-4);
}

TEST(AugLag, MultistartEscapesLocalMinimum) {
  // Double well: f = (x^2 - 1)^2 + 0.3 x, global min near x = -1.
  NlpProblem p = box_problem(1, -2.0, 2.0);
  p.objective = [](const std::vector<double>& x) {
    const double w = x[0] * x[0] - 1.0;
    return w * w + 0.3 * x[0];
  };
  // Start near the *worse* well.
  const NlpResult r = solver.solve_multistart(p, {1.0}, 8, Rng(3));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], -1.0, 0.15);
}

TEST(AugLag, MultistartValidation) {
  NlpProblem p = box_problem(1, 0.0, 1.0);
  p.objective = [](const std::vector<double>& x) { return x[0]; };
  EXPECT_THROW(solver.solve_multistart(p, {0.5}, 0, Rng(1)),
               InvalidArgument);
  EXPECT_THROW(solver.solve(p, {0.5, 0.5}), InvalidArgument);
}

TEST(AugLag, StartOutsideBoxGetsProjected) {
  NlpProblem p = box_problem(1, 0.0, 1.0);
  p.objective = [](const std::vector<double>& x) { return -x[0]; };
  const NlpResult r = solver.solve(p, {50.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
}

}  // namespace
}  // namespace palb
