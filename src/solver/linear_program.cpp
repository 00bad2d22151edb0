#include "solver/linear_program.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace palb {

int LinearProgram::add_variable(double lb, double ub, double cost) {
  PALB_REQUIRE(lb <= ub, "variable bounds must satisfy lb <= ub");
  invalidate_columns();
  costs_.push_back(cost);
  lbs_.push_back(lb);
  ubs_.push_back(ub);
  return static_cast<int>(costs_.size()) - 1;
}

int LinearProgram::add_constraint(Relation rel, double rhs) {
  invalidate_columns();
  rows_.emplace_back();
  relations_.push_back(rel);
  rhss_.push_back(rhs);
  return static_cast<int>(rows_.size()) - 1;
}

int LinearProgram::add_constraint(
    const std::vector<std::pair<int, double>>& terms, Relation rel,
    double rhs) {
  const int row = add_constraint(rel, rhs);
  // Bulk path: terms that arrive strictly ascending are stored as given.
  // Anything else is sorted once and its duplicates merged in one sweep,
  // instead of scanning the growing row per term (which made dense-row
  // construction quadratic). stable_sort keeps equal variables in
  // encounter order, so duplicate coefficients still sum in the order
  // the caller wrote them.
  auto& dst = rows_[row];
  dst = terms;
  for (const auto& [var, coef] : dst) {
    (void)coef;
    check_var(var);
  }
  if (std::adjacent_find(dst.begin(), dst.end(),
                         [](const auto& a, const auto& b) {
                           return a.first >= b.first;
                         }) == dst.end()) {
    return row;
  }
  std::stable_sort(dst.begin(), dst.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::size_t w = 0;
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (w > 0 && dst[w - 1].first == dst[i].first) {
      dst[w - 1].second += dst[i].second;
    } else {
      dst[w++] = dst[i];
    }
  }
  dst.resize(w);
  return row;
}

std::vector<std::pair<int, double>>::iterator LinearProgram::find_term(
    int row, int var) {
  // Rows are kept sorted by variable index (the class invariant), so a
  // single coefficient is a binary search away.
  auto& terms = rows_[row];
  return std::lower_bound(terms.begin(), terms.end(), var,
                          [](const std::pair<int, double>& t, int v) {
                            return t.first < v;
                          });
}

void LinearProgram::set_coefficient(int row, int var, double value) {
  check_row(row);
  check_var(var);
  invalidate_columns();
  auto it = find_term(row, var);
  if (it != rows_[row].end() && it->first == var) {
    it->second = value;
    return;
  }
  rows_[row].insert(it, {var, value});
}

void LinearProgram::add_term(int row, int var, double value) {
  check_row(row);
  check_var(var);
  invalidate_columns();
  auto it = find_term(row, var);
  if (it != rows_[row].end() && it->first == var) {
    it->second += value;
    return;
  }
  rows_[row].insert(it, {var, value});
}

void LinearProgram::set_cost(int var, double cost) {
  check_var(var);
  costs_[var] = cost;
}

void LinearProgram::set_bounds(int var, double lb, double ub) {
  check_var(var);
  PALB_REQUIRE(lb <= ub, "variable bounds must satisfy lb <= ub");
  lbs_[var] = lb;
  ubs_[var] = ub;
}

double LinearProgram::cost(int var) const {
  check_var(var);
  return costs_[var];
}

double LinearProgram::lower_bound(int var) const {
  check_var(var);
  return lbs_[var];
}

double LinearProgram::upper_bound(int var) const {
  check_var(var);
  return ubs_[var];
}

Relation LinearProgram::relation(int row) const {
  check_row(row);
  return relations_[row];
}

double LinearProgram::rhs(int row) const {
  check_row(row);
  return rhss_[row];
}

const std::vector<std::pair<int, double>>& LinearProgram::row_terms(
    int row) const {
  check_row(row);
  return rows_[row];
}

const ColumnView& LinearProgram::column_view() const {
  if (!columns_) {
    // One counting pass sizes the columns, one scatter pass fills them.
    // Rows are visited in index order, so each column's entries come out
    // row-ascending with no per-column sort.
    auto view = std::make_shared<ColumnView>();
    const auto n = static_cast<std::size_t>(num_variables());
    view->col_start.assign(n + 1, 0);
    for (const auto& row : rows_) {
      for (const auto& [var, coef] : row) {
        (void)coef;
        ++view->col_start[static_cast<std::size_t>(var) + 1];
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      view->col_start[j + 1] += view->col_start[j];
    }
    view->row_index.resize(static_cast<std::size_t>(view->col_start[n]));
    view->value.resize(view->row_index.size());
    std::vector<int> fill(view->col_start.begin(),
                          view->col_start.end() - 1);
    for (int r = 0; r < num_constraints(); ++r) {
      for (const auto& [var, coef] : rows_[static_cast<std::size_t>(r)]) {
        const auto at =
            static_cast<std::size_t>(fill[static_cast<std::size_t>(var)]++);
        view->row_index[at] = r;
        view->value[at] = coef;
      }
    }
    columns_ = std::move(view);
  }
  return *columns_;
}

double LinearProgram::row_activity(int row,
                                   const std::vector<double>& x) const {
  check_row(row);
  PALB_REQUIRE(static_cast<int>(x.size()) == num_variables(),
               "point dimension mismatch");
  double acc = 0.0;
  for (const auto& [var, coef] : rows_[row]) acc += coef * x[var];
  return acc;
}

double LinearProgram::objective_value(const std::vector<double>& x) const {
  PALB_REQUIRE(static_cast<int>(x.size()) == num_variables(),
               "point dimension mismatch");
  double acc = offset_;
  for (int j = 0; j < num_variables(); ++j) acc += costs_[j] * x[j];
  return acc;
}

bool LinearProgram::is_feasible(const std::vector<double>& x,
                                double tol) const {
  if (static_cast<int>(x.size()) != num_variables()) return false;
  for (int j = 0; j < num_variables(); ++j) {
    if (x[j] < lbs_[j] - tol || x[j] > ubs_[j] + tol) return false;
    if (!std::isfinite(x[j])) return false;
  }
  for (int r = 0; r < num_constraints(); ++r) {
    const double a = row_activity(r, x);
    switch (relations_[r]) {
      case Relation::kLe:
        if (a > rhss_[r] + tol) return false;
        break;
      case Relation::kGe:
        if (a < rhss_[r] - tol) return false;
        break;
      case Relation::kEq:
        if (std::abs(a - rhss_[r]) > tol) return false;
        break;
    }
  }
  return true;
}

void LinearProgram::check_var(int var) const {
  PALB_REQUIRE(var >= 0 && var < num_variables(), "variable index range");
}

void LinearProgram::check_row(int row) const {
  PALB_REQUIRE(row >= 0 && row < num_constraints(), "row index range");
}

}  // namespace palb
