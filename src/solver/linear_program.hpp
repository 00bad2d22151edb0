#pragma once

#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace palb {

/// Row sense of a linear constraint.
enum class Relation { kLe, kEq, kGe };

/// Optimization direction.
enum class Sense { kMinimize, kMaximize };

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Compressed-sparse-column view of a LinearProgram's constraint matrix:
/// column j's entries live at [col_start[j], col_start[j+1]) in
/// `row_index` / `value`, sorted by row index. Built once per model (see
/// LinearProgram::column_view) so column-walking consumers — the
/// simplex's tableau build and sparse pricer — share one pass over the
/// rows instead of each re-scanning them.
struct ColumnView {
  std::vector<int> col_start;  ///< size num_variables() + 1
  std::vector<int> row_index;  ///< size nnz, ascending within a column
  std::vector<double> value;   ///< size nnz, parallel to row_index

  int nnz() const { return static_cast<int>(row_index.size()); }
};

/// Sparse linear-program model:
///
///   opt  c'x      s.t.  for each row r:  a_r' x  (<=|=|>=)  b_r,
///   lb <= x <= ub  (any bound may be infinite)
///
/// This is the interface the profit-aware dispatcher compiles its
/// conditioned (level-profile) problems into; it is also what the MILP
/// branch-and-bound relaxes. Variables and rows are referenced by the
/// dense indices returned at creation.
class LinearProgram {
 public:
  /// Adds a variable; returns its index.
  int add_variable(double lb = 0.0, double ub = kInfinity, double cost = 0.0);

  /// Adds an empty constraint row; returns its index. Coefficients are
  /// attached afterwards via set_coefficient / add_term.
  int add_constraint(Relation rel, double rhs);

  /// Adds a fully-formed constraint from (variable, coefficient) terms.
  /// Duplicate variables are merged (coefficients sum in encounter
  /// order). This is the preferred way to build dense rows: one sort
  /// instead of a per-term row scan, and none at all when the terms
  /// already arrive strictly ascending by variable.
  int add_constraint(const std::vector<std::pair<int, double>>& terms,
                     Relation rel, double rhs);

  /// Sets (overwrites) one coefficient in a row.
  void set_coefficient(int row, int var, double value);
  /// Adds to an existing coefficient (creates it at `value` if absent).
  /// Rows are kept sorted by variable index, so the lookup is a binary
  /// search; inserting out-of-order still shifts the row's tail, so
  /// builders producing many terms should prefer the bulk
  /// add_constraint overload.
  void add_term(int row, int var, double value);

  void set_bounds(int var, double lb, double ub);
  void set_objective_sense(Sense sense) { sense_ = sense; }
  /// Constant added to the objective (profit terms independent of x).
  void set_objective_offset(double offset) { offset_ = offset; }

  int num_variables() const { return static_cast<int>(costs_.size()); }
  int num_constraints() const { return static_cast<int>(rows_.size()); }
  Sense objective_sense() const { return sense_; }
  double objective_offset() const { return offset_; }
  double cost(int var) const;
  double lower_bound(int var) const;
  double upper_bound(int var) const;
  Relation relation(int row) const;
  double rhs(int row) const;
  /// Terms of a row, sorted by variable index.
  const std::vector<std::pair<int, double>>& row_terms(int row) const;
  /// Column-major (CSC) view of the constraint matrix, built lazily on
  /// first call and cached until the next matrix mutation (add_variable,
  /// add_constraint, set_coefficient, add_term); bound/sense edits
  /// keep it valid. Copies share the cache. The lazy build is not
  /// synchronized — materialize it before handing one model to several
  /// threads (every solver-internal consumer runs single-threaded per
  /// LP, so this only matters for exotic callers).
  const ColumnView& column_view() const;

  /// Evaluates a_r' x for a candidate point.
  double row_activity(int row, const std::vector<double>& x) const;
  /// Evaluates c'x + offset.
  double objective_value(const std::vector<double>& x) const;
  /// True iff x satisfies every bound and row within `tol`.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-7) const;

 private:
  void check_var(int var) const;
  void check_row(int row) const;
  std::vector<std::pair<int, double>>::iterator find_term(int row, int var);

  /// Drops the cached CSC view; every matrix mutator calls this.
  void invalidate_columns() { columns_.reset(); }

  Sense sense_ = Sense::kMinimize;
  double offset_ = 0.0;
  std::vector<double> costs_;
  std::vector<double> lbs_;
  std::vector<double> ubs_;
  std::vector<std::vector<std::pair<int, double>>> rows_;
  std::vector<Relation> relations_;
  std::vector<double> rhss_;
  /// Lazily built CSC cache (shared_ptr so copies stay copyable and
  /// share the already-built view; the pointee is immutable).
  mutable std::shared_ptr<const ColumnView> columns_;
};

}  // namespace palb
