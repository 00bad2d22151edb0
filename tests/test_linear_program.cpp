#include "solver/linear_program.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace palb {
namespace {

TEST(LinearProgram, VariableAccounting) {
  LinearProgram lp;
  const int x = lp.add_variable(0.0, 5.0, 2.0);
  const int y = lp.add_variable(-1.0, kInfinity, -3.0);
  EXPECT_EQ(lp.num_variables(), 2);
  EXPECT_DOUBLE_EQ(lp.cost(x), 2.0);
  EXPECT_DOUBLE_EQ(lp.lower_bound(y), -1.0);
  EXPECT_TRUE(std::isinf(lp.upper_bound(y)));
}

TEST(LinearProgram, RejectsInvertedBounds) {
  LinearProgram lp;
  EXPECT_THROW(lp.add_variable(2.0, 1.0), InvalidArgument);
  const int x = lp.add_variable();
  EXPECT_THROW(lp.set_bounds(x, 5.0, 4.0), InvalidArgument);
}

TEST(LinearProgram, ConstraintTermsAccumulate) {
  LinearProgram lp;
  const int x = lp.add_variable();
  const int r = lp.add_constraint(Relation::kLe, 10.0);
  lp.add_term(r, x, 2.0);
  lp.add_term(r, x, 3.0);
  ASSERT_EQ(lp.row_terms(r).size(), 1u);
  EXPECT_DOUBLE_EQ(lp.row_terms(r)[0].second, 5.0);
  lp.set_coefficient(r, x, 7.0);
  EXPECT_DOUBLE_EQ(lp.row_terms(r)[0].second, 7.0);
}

TEST(LinearProgram, BulkRowsKeepAscendingTermsAndMergeTheRest) {
  using Terms = std::vector<std::pair<int, double>>;
  LinearProgram lp;
  for (int j = 0; j < 3; ++j) lp.add_variable();
  const int ascending =
      lp.add_constraint({{0, 1.0}, {1, 2.0}, {2, 3.0}}, Relation::kLe, 1.0);
  EXPECT_EQ(lp.row_terms(ascending), (Terms{{0, 1.0}, {1, 2.0}, {2, 3.0}}));
  // Out of order or repeated: sorted by variable, duplicates summed.
  const int shuffled = lp.add_constraint(
      {{2, 3.0}, {0, 1.0}, {2, 0.5}, {1, 2.0}}, Relation::kLe, 1.0);
  EXPECT_EQ(lp.row_terms(shuffled), (Terms{{0, 1.0}, {1, 2.0}, {2, 3.5}}));
  const int repeated =
      lp.add_constraint({{0, 1.0}, {0, 2.0}, {1, 1.0}}, Relation::kLe, 1.0);
  EXPECT_EQ(lp.row_terms(repeated), (Terms{{0, 3.0}, {1, 1.0}}));
  EXPECT_THROW(lp.add_constraint({{0, 1.0}, {3, 1.0}}, Relation::kLe, 1.0),
               InvalidArgument);
}

TEST(LinearProgram, RowActivityAndObjective) {
  LinearProgram lp;
  const int x = lp.add_variable(0, kInfinity, 1.0);
  const int y = lp.add_variable(0, kInfinity, 2.0);
  lp.set_objective_offset(5.0);
  const int r = lp.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kEq, 0.0);
  const std::vector<double> point{3.0, 4.0};
  EXPECT_DOUBLE_EQ(lp.row_activity(r, point), -1.0);
  EXPECT_DOUBLE_EQ(lp.objective_value(point), 3.0 + 8.0 + 5.0);
}

TEST(LinearProgram, FeasibilityCheck) {
  LinearProgram lp;
  const int x = lp.add_variable(0.0, 2.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGe, 1.0);
  EXPECT_TRUE(lp.is_feasible({1.5}));
  EXPECT_FALSE(lp.is_feasible({0.5}));   // violates >= row
  EXPECT_FALSE(lp.is_feasible({2.5}));   // violates bound
  EXPECT_FALSE(lp.is_feasible({1.0, 2.0}));  // wrong dimension
}

TEST(LinearProgram, FeasibilityEqualityTolerance) {
  LinearProgram lp;
  const int x = lp.add_variable(0.0, 10.0);
  lp.add_constraint({{x, 1.0}}, Relation::kEq, 3.0);
  EXPECT_TRUE(lp.is_feasible({3.0 + 1e-9}));
  EXPECT_FALSE(lp.is_feasible({3.1}));
}

TEST(LinearProgram, IndexRangeChecks) {
  LinearProgram lp;
  EXPECT_THROW(lp.cost(0), InvalidArgument);
  EXPECT_THROW(lp.rhs(0), InvalidArgument);
  const int x = lp.add_variable();
  const int r = lp.add_constraint(Relation::kLe, 1.0);
  EXPECT_THROW(lp.set_coefficient(r, x + 1, 1.0), InvalidArgument);
  EXPECT_THROW(lp.set_coefficient(r + 1, x, 1.0), InvalidArgument);
}

}  // namespace
}  // namespace palb
