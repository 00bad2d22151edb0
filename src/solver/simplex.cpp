#include "solver/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace palb {

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
    case LpStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

namespace {

/// Feasibility tolerance for basic values against their bounds; matches
/// LinearProgram::is_feasible so an accepted start is a feasible point.
constexpr double kFeasTol = 1e-7;
/// Pricing, ratio-test and zero-snapping tolerance.
constexpr double kTol = 1e-9;
/// After this many non-improving pivots switch to Bland's rule.
constexpr int kStallThreshold = 200;
/// Size of the pricing candidate list; each refill keeps the this-many
/// most attractive columns from one full Dantzig scan.
constexpr int kCandidateListSize = 8;

/// How an original model variable maps onto the internal columns. Every
/// internal column has lower bound 0 after the transform; a kShifted
/// variable with finite ub keeps it as an *implicit* column bound
/// ub - lb — upper bounds never materialize as rows.
struct VarMap {
  enum class Kind { kShifted, kReflected, kFree } kind = Kind::kShifted;
  int primary = -1;    // internal column
  int secondary = -1;  // second column for free variables (x = y+ - y-)
  double shift = 0.0;  // lb for kShifted, ub for kReflected
};

enum class ColStatus : std::uint8_t { kAtLower, kAtUpper, kBasic };

/// Bounded-variable tableau. The matrix lives in one contiguous
/// row-major arena (`stride` doubles as the physical row width, sized
/// up-front to fit the phase-1 artificials); `cols` is the *active*
/// column count — phase 2 retires the artificial block by shrinking it.
/// Basic values are tracked per row in `xb` (updated incrementally on
/// each step) rather than as a transformed rhs column; every nonbasic
/// column sits at the finite bound named by its status.
struct Tableau {
  int rows = 0;
  int cols = 0;
  int stride = 0;
  std::vector<double> arena;      // rows x stride
  std::vector<double> xb;         // value of each row's basic variable
  std::vector<int> basis;         // basic column per row
  std::vector<double> lo, up;     // per-column bounds (internal space)
  std::vector<ColStatus> status;  // per-column status
  std::vector<int> row_id;        // surviving row -> original model row
  bool sparse = false;            // support-walking pivot kernel enabled
  std::uint64_t skips = 0;        // see LpSolution::sparse_price_skips
  std::vector<int> support;       // pivot-row support scratch (sparse)

  double* row(int r) {
    return arena.data() +
           static_cast<std::size_t>(r) * static_cast<std::size_t>(stride);
  }
  const double* row(int r) const {
    return arena.data() +
           static_cast<std::size_t>(r) * static_cast<std::size_t>(stride);
  }

  double nonbasic_value(int c) const {
    return status[c] == ColStatus::kAtUpper ? up[c] : lo[c];
  }

  /// Removes a (redundant) row, compacting the arena in place.
  void drop_row(int r) {
    const auto w = static_cast<std::size_t>(stride);
    if (r + 1 < rows) {
      std::memmove(arena.data() + static_cast<std::size_t>(r) * w,
                   arena.data() + static_cast<std::size_t>(r + 1) * w,
                   static_cast<std::size_t>(rows - 1 - r) * w *
                       sizeof(double));
    }
    xb.erase(xb.begin() + r);
    basis.erase(basis.begin() + r);
    row_id.erase(row_id.begin() + r);
    --rows;
  }
};

/// Gauss-Jordan pivot on (prow, pcol): normalizes the pivot row and
/// eliminates the column elsewhere. `d` (reduced costs) and `rhs` are
/// transformed alongside when supplied; basis/status/xb bookkeeping is
/// the caller's job.
///
/// With `t.sparse` set, the kernel gathers the pivot row's nonzero
/// support once and normalizes / eliminates / reprices over just those
/// columns. Skipping an exact zero is arithmetically a no-op
/// (x - f*0 == x for every finite x), so the two kernels agree
/// bit-for-bit on every value a pivot decision ever reads — only the
/// sign of stored zeros can differ, and no comparison in this solver
/// distinguishes +0.0 from -0.0. Because the kernels are equivalent,
/// the sparse path hands rows whose support has filled in (more than
/// half the columns) back to the dense loops — indexed access costs
/// more than it saves there — without affecting any result.
void pivot_on(Tableau& t, int prow, int pcol, std::vector<double>* d,
              std::vector<double>* rhs) {
  double* pr = t.row(prow);
  const double inv = 1.0 / pr[pcol];
  bool walk_support = false;
  if (t.sparse) {
    auto& sup = t.support;
    sup.clear();
    for (int c = 0; c < t.cols; ++c) {
      if (pr[c] != 0.0) sup.push_back(c);
    }
    walk_support = 2 * sup.size() < static_cast<std::size_t>(t.cols);
    if (walk_support) {
      t.skips += static_cast<std::uint64_t>(t.cols) -
                 static_cast<std::uint64_t>(sup.size());
    }
  }
  if (!walk_support) {
    for (int c = 0; c < t.cols; ++c) pr[c] *= inv;
    pr[pcol] = 1.0;  // kill rounding residue on the pivot itself
    if (rhs) (*rhs)[prow] *= inv;
    for (int r = 0; r < t.rows; ++r) {
      if (r == prow) continue;
      double* rr = t.row(r);
      const double f = rr[pcol];
      if (f == 0.0) continue;
      for (int c = 0; c < t.cols; ++c) rr[c] -= f * pr[c];
      rr[pcol] = 0.0;
      if (rhs) (*rhs)[r] -= f * (*rhs)[prow];
    }
    if (d) {
      const double f = (*d)[pcol];
      if (f != 0.0) {
        for (int c = 0; c < t.cols; ++c) (*d)[c] -= f * pr[c];
        (*d)[pcol] = 0.0;
      }
    }
    return;
  }
  const auto& sup = t.support;
  for (const int c : sup) pr[c] *= inv;
  pr[pcol] = 1.0;  // pcol is in the support: |pivot| > tolerance
  if (rhs) (*rhs)[prow] *= inv;
  for (int r = 0; r < t.rows; ++r) {
    if (r == prow) continue;
    double* rr = t.row(r);
    const double f = rr[pcol];
    if (f == 0.0) continue;
    for (const int c : sup) rr[c] -= f * pr[c];
    rr[pcol] = 0.0;
    if (rhs) (*rhs)[r] -= f * (*rhs)[prow];
  }
  if (d) {
    const double f = (*d)[pcol];
    if (f != 0.0) {
      for (const int c : sup) (*d)[c] -= f * pr[c];
      (*d)[pcol] = 0.0;
    }
  }
}

/// One simplex phase over the bounded tableau: iterate until no nonbasic
/// column prices attractively. Entering columns come from a candidate
/// list refreshed by full Dantzig scans (score ties and refill order are
/// index-ascending, so the pivot sequence is deterministic); after
/// kStallThreshold non-improving steps the phase falls back to Bland's
/// rule (lowest eligible index) which cannot cycle. A step is either a
/// basis change or a bound flip — the entering column runs to its
/// opposite bound before any basic variable hits one of its own.
LpStatus run_bounded(Tableau& t, std::vector<double>& d,
                     const SimplexSolver::Options& opt, int& iterations,
                     std::vector<std::pair<int, int>>* log) {
  // Attractiveness of a nonbasic column: positive magnitude of its
  // reduced cost when moving off its bound improves the objective.
  auto price = [&](int c) -> double {
    if (t.status[c] == ColStatus::kBasic) return 0.0;
    if (t.lo[c] == t.up[c]) return 0.0;  // fixed (incl. retired slacks)
    const double dc = d[c];
    if (t.status[c] == ColStatus::kAtLower) return dc < -kTol ? -dc : 0.0;
    return dc > kTol ? dc : 0.0;
  };

  std::vector<int> cands;
  std::vector<std::pair<double, int>> scored;  // refill scratch
  std::vector<std::pair<double, int>> pack;    // ratio-test candidates
  cands.reserve(static_cast<std::size_t>(kCandidateListSize));
  pack.reserve(static_cast<std::size_t>(t.rows));

  int stalled = 0;
  double obj = 0.0;       // objective delta accumulated this phase
  double last_obj = 0.0;  // (absolute value is irrelevant for stalling)
  const int check_every = std::max(1, opt.cancel_check_every);
  int until_cancel_check = check_every;
  while (iterations < opt.max_iterations) {
    // Cooperative cancellation at pivot-batch granularity: one relaxed
    // load per `cancel_check_every` pivots, no effect on the arithmetic
    // path when the token never fires.
    if (opt.cancel != nullptr && --until_cancel_check <= 0) {
      if (opt.cancel->load(std::memory_order_relaxed)) {
        return LpStatus::kCancelled;
      }
      until_cancel_check = check_every;
    }
    // --- Entering column. ------------------------------------------------
    int enter = -1;
    if (stalled >= kStallThreshold) {
      // Bland: lowest eligible index, immune to cycling.
      for (int c = 0; c < t.cols; ++c) {
        if (price(c) > 0.0) {
          enter = c;
          break;
        }
      }
    } else {
      double best = 0.0;
      // `cands` is kept index-ascending, so strict > breaks score ties
      // toward the lowest column index.
      for (const int c : cands) {
        const double s = price(c);
        if (s > best) {
          best = s;
          enter = c;
        }
      }
      if (enter < 0) {
        // Refill: one full Dantzig scan, keep the top-K columns by
        // (score desc, index asc).
        scored.clear();
        for (int c = 0; c < t.cols; ++c) {
          const double s = price(c);
          if (s > 0.0) scored.emplace_back(-s, c);
        }
        const auto k = std::min(
            scored.size(), static_cast<std::size_t>(kCandidateListSize));
        std::partial_sort(scored.begin(),
                          scored.begin() + static_cast<std::ptrdiff_t>(k),
                          scored.end());
        cands.clear();
        for (std::size_t i = 0; i < k; ++i) cands.push_back(scored[i].second);
        std::sort(cands.begin(), cands.end());
        best = 0.0;
        for (const int c : cands) {
          const double s = price(c);
          if (s > best) {
            best = s;
            enter = c;
          }
        }
      }
    }
    if (enter < 0) return LpStatus::kOptimal;

    // --- Ratio test. -----------------------------------------------------
    // The entering column moves off its bound by `step` in direction
    // `dir`; each basic value changes by -T[r][enter] * dir * step. The
    // binding limit is the first basic variable to hit a bound, unless
    // the entering column reaches its own opposite bound first (a bound
    // flip — no basis change at all). Near-ties go to the smallest basic
    // column index, an anti-cycling aid carried over from the dense
    // solver.
    const double dir = t.status[enter] == ColStatus::kAtLower ? 1.0 : -1.0;
    // Pass 1 packs the rows whose entering-column entry is significant —
    // one strided load and a magnitude compare per row, no bound logic —
    // then pass 2 runs the bound/tie logic over just the packed
    // candidates. Candidates keep ascending row order, so the
    // lowest-basic-index near-tie rule picks the same leaving row as the
    // classic fused loop.
    pack.clear();
    for (int r = 0; r < t.rows; ++r) {
      const double e = dir * t.row(r)[enter];
      if (e > kTol || e < -kTol) pack.emplace_back(e, r);
    }
    int leave = -1;
    bool leave_at_upper = false;
    double limit = kInfinity;
    for (const auto& [e, r] : pack) {
      double ratio;
      bool to_upper;
      if (e > kTol) {  // basic value decreases toward its lower bound
        const double blo = t.lo[t.basis[r]];
        if (!std::isfinite(blo)) continue;
        ratio = (t.xb[r] - blo) / e;
        to_upper = false;
      } else {  // e < -kTol: basic value increases toward its upper
        const double bup = t.up[t.basis[r]];
        if (!std::isfinite(bup)) continue;
        ratio = (bup - t.xb[r]) / (-e);
        to_upper = true;
      }
      if (ratio < 0.0) ratio = 0.0;  // degeneracy drift guard
      if (leave < 0 || ratio < limit - kTol ||
          (ratio < limit + kTol && t.basis[r] < t.basis[leave])) {
        leave = r;
        limit = ratio;
        leave_at_upper = to_upper;
      }
    }

    const double span = t.up[enter] - t.lo[enter];  // inf unless boxed
    if (std::isfinite(span) && span <= limit) {
      // Bound flip: the entering column swaps bounds; basis unchanged.
      const double delta = dir * span;
      for (int r = 0; r < t.rows; ++r) t.xb[r] -= t.row(r)[enter] * delta;
      t.status[enter] = dir > 0.0 ? ColStatus::kAtUpper : ColStatus::kAtLower;
      obj += d[enter] * delta;
      ++iterations;
      if (log) log->emplace_back(enter, -1);
    } else if (leave < 0) {
      return LpStatus::kUnbounded;
    } else {
      const double delta = dir * limit;
      const double d_enter = d[enter];
      const double enter_val = t.nonbasic_value(enter) + delta;
      for (int r = 0; r < t.rows; ++r) t.xb[r] -= t.row(r)[enter] * delta;
      const int lcol = t.basis[leave];
      t.status[lcol] =
          leave_at_upper ? ColStatus::kAtUpper : ColStatus::kAtLower;
      pivot_on(t, leave, enter, &d, nullptr);
      t.basis[leave] = enter;
      t.status[enter] = ColStatus::kBasic;
      t.xb[leave] = enter_val;
      obj += d_enter * delta;
      ++iterations;
      if (log) log->emplace_back(enter, lcol);
    }
    if (obj < last_obj - kTol) {
      stalled = 0;
      last_obj = obj;
    } else {
      ++stalled;
    }
  }
  return LpStatus::kIterationLimit;
}

}  // namespace

LpSolution SimplexSolver::solve(const LinearProgram& lp,
                                const SimplexBasis* warm) const {
  const int n_orig = lp.num_variables();
  const int m = lp.num_constraints();

  // --- 1. Map original variables onto internal columns. -------------------
  std::vector<VarMap> vmap(static_cast<std::size_t>(n_orig));
  int n_internal = 0;
  for (int j = 0; j < n_orig; ++j) {
    const double lb = lp.lower_bound(j);
    const double ub = lp.upper_bound(j);
    VarMap& vm = vmap[static_cast<std::size_t>(j)];
    if (std::isfinite(lb)) {
      vm.kind = VarMap::Kind::kShifted;  // x = lb + y,  y in [0, ub - lb]
      vm.shift = lb;
      vm.primary = n_internal++;
    } else if (std::isfinite(ub)) {
      vm.kind = VarMap::Kind::kReflected;  // x = ub - y,  y in [0, inf)
      vm.shift = ub;
      vm.primary = n_internal++;
    } else {
      vm.kind = VarMap::Kind::kFree;  // x = y+ - y-
      vm.primary = n_internal++;
      vm.secondary = n_internal++;
    }
  }

  // Column layout: [0, n_internal) structural, then one slack per model
  // row (slack of row r lives at n_internal + r — this fixed address is
  // what makes both the dual readout and the basis export trivial), then
  // one artificial per row for the cold start.
  const int art_base = n_internal + m;
  const int full_cols = art_base + m;

  // Internal objective: minimize. Flip sign for maximization.
  const double sense_mul =
      lp.objective_sense() == Sense::kMaximize ? -1.0 : 1.0;
  std::vector<double> int_cost(static_cast<std::size_t>(n_internal), 0.0);
  for (int j = 0; j < n_orig; ++j) {
    const VarMap& vm = vmap[static_cast<std::size_t>(j)];
    const double c = sense_mul * lp.cost(j);
    switch (vm.kind) {
      case VarMap::Kind::kShifted:
        int_cost[vm.primary] += c;
        break;
      case VarMap::Kind::kReflected:
        int_cost[vm.primary] -= c;
        break;
      case VarMap::Kind::kFree:
        int_cost[vm.primary] += c;
        int_cost[vm.secondary] -= c;
        break;
    }
  }

  // --- 2. Dense rows + shifted rhs, built once off the CSC view. ----------
  // Walking columns instead of rows reuses the LP's cached ColumnView.
  // The rhs shift accumulates per row in ascending-variable order either
  // way (the outer loop here is ascending j), so rhs0 is bit-identical
  // to the old row-walking construction.
  const ColumnView& csc = lp.column_view();
  std::vector<double> dense(
      static_cast<std::size_t>(m) * static_cast<std::size_t>(n_internal),
      0.0);
  std::vector<double> rhs0(static_cast<std::size_t>(m), 0.0);
  for (int r = 0; r < m; ++r) rhs0[static_cast<std::size_t>(r)] = lp.rhs(r);
  for (int j = 0; j < n_orig; ++j) {
    const VarMap& vm = vmap[static_cast<std::size_t>(j)];
    const int lo_at = csc.col_start[static_cast<std::size_t>(j)];
    const int hi_at = csc.col_start[static_cast<std::size_t>(j) + 1];
    for (int at = lo_at; at < hi_at; ++at) {
      const auto r = static_cast<std::size_t>(
          csc.row_index[static_cast<std::size_t>(at)]);
      const double coef = csc.value[static_cast<std::size_t>(at)];
      double* dr = dense.data() + r * static_cast<std::size_t>(n_internal);
      switch (vm.kind) {
        case VarMap::Kind::kShifted:
          dr[vm.primary] += coef;
          rhs0[r] -= coef * vm.shift;
          break;
        case VarMap::Kind::kReflected:
          dr[vm.primary] -= coef;
          rhs0[r] -= coef * vm.shift;
          break;
        case VarMap::Kind::kFree:
          dr[vm.primary] += coef;
          dr[vm.secondary] -= coef;
          break;
      }
    }
  }

  // --- 3. Column bounds. --------------------------------------------------
  Tableau t;
  t.sparse = options_.sparse_pivoting;
  t.stride = full_cols;
  t.lo.assign(static_cast<std::size_t>(full_cols), 0.0);
  t.up.assign(static_cast<std::size_t>(full_cols), kInfinity);
  for (int j = 0; j < n_orig; ++j) {
    const VarMap& vm = vmap[static_cast<std::size_t>(j)];
    if (vm.kind == VarMap::Kind::kShifted) {
      t.up[vm.primary] = lp.upper_bound(j) - vm.shift;  // may be inf
    }
  }
  for (int r = 0; r < m; ++r) {
    const int sc = n_internal + r;
    switch (lp.relation(r)) {
      case Relation::kLe:  // a'y + s = b, s >= 0
        break;
      case Relation::kGe:  // s <= 0
        t.lo[sc] = -kInfinity;
        t.up[sc] = 0.0;
        break;
      case Relation::kEq:  // s == 0
        t.up[sc] = 0.0;
        break;
    }
  }
  // Artificials: [0, inf), only ever basic on a cold start.

  // Fills the arena with the raw (un-pivoted) matrix: structural
  // coefficients, slack identity, artificial block zeroed.
  auto build_raw = [&](int active_cols) {
    t.rows = m;
    t.cols = active_cols;
    t.arena.assign(
        static_cast<std::size_t>(m) * static_cast<std::size_t>(t.stride),
        0.0);
    for (int r = 0; r < m; ++r) {
      double* tr = t.row(r);
      std::memcpy(tr,
                  dense.data() + static_cast<std::size_t>(r) *
                                     static_cast<std::size_t>(n_internal),
                  static_cast<std::size_t>(n_internal) * sizeof(double));
      tr[n_internal + r] = 1.0;
    }
    t.basis.assign(static_cast<std::size_t>(m), -1);
    t.xb.assign(static_cast<std::size_t>(m), 0.0);
    t.row_id.resize(static_cast<std::size_t>(m));
    for (int r = 0; r < m; ++r) t.row_id[static_cast<std::size_t>(r)] = r;
  };

  // Default statuses: every structural column at its lower bound, slacks
  // at the bound that makes a'y + s = b hold with y = 0 when feasible.
  auto default_status = [&] {
    t.status.assign(static_cast<std::size_t>(full_cols),
                    ColStatus::kAtLower);
    for (int r = 0; r < m; ++r) {
      if (lp.relation(r) == Relation::kGe) {
        t.status[n_internal + r] = ColStatus::kAtUpper;  // at 0
      }
    }
  };

  LpSolution out;
  out.x.assign(static_cast<std::size_t>(n_orig), 0.0);
  std::vector<std::pair<int, int>>* log = nullptr;
  if (options_.record_pivots) log = &out.pivot_log;

  // --- 4. Warm start: install the caller's basis if it lands feasible. ----
  bool warm_ok = false;
  if (warm && !warm->empty()) {
    build_raw(art_base);
    default_status();
    // Nonbasic-at-upper statuses, translated through the variable map
    // (a reflected variable at its model upper bound is the internal
    // column at its *lower* bound, which is already the default).
    for (const int v : warm->at_upper) {
      if (v < 0 || v >= n_orig) continue;
      const VarMap& vm = vmap[static_cast<std::size_t>(v)];
      if (vm.kind == VarMap::Kind::kShifted && std::isfinite(t.up[vm.primary])) {
        t.status[vm.primary] = ColStatus::kAtUpper;
      }
    }
    std::vector<double> rhs = rhs0;
    std::vector<char> claimed(static_cast<std::size_t>(m), 0);
    // Pass 1: slack entries sit in their own row — the column is still
    // the identity there, so installation is bookkeeping only.
    for (const auto& e : warm->basic) {
      if (e.kind != SimplexBasis::Kind::kSlack) continue;
      if (e.index < 0 || e.index >= m) continue;
      if (claimed[static_cast<std::size_t>(e.index)]) continue;
      const int sc = n_internal + e.index;
      claimed[static_cast<std::size_t>(e.index)] = 1;
      t.basis[e.index] = sc;
      t.status[sc] = ColStatus::kBasic;
    }
    // Pass 2: variable entries — pivot each into the unclaimed row where
    // its column is largest (ties to the lowest row index).
    for (const auto& e : warm->basic) {
      if (e.kind != SimplexBasis::Kind::kVariable) continue;
      if (e.index < 0 || e.index >= n_orig) continue;
      const int col = vmap[static_cast<std::size_t>(e.index)].primary;
      if (t.status[col] == ColStatus::kBasic) continue;  // duplicate
      int prow = -1;
      double best = kFeasTol;  // refuse numerically dependent columns
      for (int r = 0; r < m; ++r) {
        if (claimed[static_cast<std::size_t>(r)]) continue;
        const double a = std::abs(t.row(r)[col]);
        if (a > best) {
          best = a;
          prow = r;
        }
      }
      if (prow < 0) continue;
      pivot_on(t, prow, col, nullptr, &rhs);
      claimed[static_cast<std::size_t>(prow)] = 1;
      t.basis[prow] = col;
      t.status[col] = ColStatus::kBasic;
    }
    // Pass 3: rows the basis left unclaimed fall back to their own
    // slack, whose column an unclaimed row still holds untouched.
    for (int r = 0; r < m; ++r) {
      if (claimed[static_cast<std::size_t>(r)]) continue;
      const int sc = n_internal + r;
      t.basis[r] = sc;
      t.status[sc] = ColStatus::kBasic;
    }
    // Basic values: rhs is B^-1 b; subtract the nonbasic columns that
    // sit at a nonzero bound.
    for (int r = 0; r < m; ++r) t.xb[r] = rhs[r];
    for (int c = 0; c < art_base; ++c) {
      if (t.status[c] == ColStatus::kBasic) continue;
      const double v = t.nonbasic_value(c);
      if (v == 0.0) continue;
      for (int r = 0; r < m; ++r) t.xb[r] -= t.row(r)[c] * v;
    }
    warm_ok = true;
    for (int r = 0; r < m; ++r) {
      const int bc = t.basis[r];
      if (t.xb[r] < t.lo[bc] - kFeasTol || t.xb[r] > t.up[bc] + kFeasTol ||
          !std::isfinite(t.xb[r])) {
        warm_ok = false;  // out of bounds: discard, cold-start below
        break;
      }
    }
  }
  out.warm_start_used = warm_ok;

  // --- 5. Cold start + phase 1 when the warm basis was absent/rejected. ---
  int n_art = 0;
  if (!warm_ok) {
    build_raw(art_base);
    default_status();
    for (int r = 0; r < m; ++r) {
      const int sc = n_internal + r;
      const double b = rhs0[r];
      if (b >= t.lo[sc] - kTol && b <= t.up[sc] + kTol) {
        // The row's own slack can carry the residual: basic at b.
        t.basis[r] = sc;
        t.status[sc] = ColStatus::kBasic;
        t.xb[r] = b;
      } else {
        // Artificial basic at the residual. The coefficient stays +1 so
        // the starting basis is an exact identity; instead the
        // artificial's *domain* takes the residual's sign — [0, inf)
        // for b > 0, (-inf, 0] for b < 0 — and phase 1 minimizes
        // sign(b) * art = |art|.
        const int ac = art_base + r;
        t.row(r)[ac] = 1.0;
        if (b < 0.0) {
          t.lo[ac] = -kInfinity;
          t.up[ac] = 0.0;
        }
        t.basis[r] = ac;
        t.status[ac] = ColStatus::kBasic;
        t.xb[r] = b;
        ++n_art;
      }
    }
    if (n_art > 0) {
      t.cols = full_cols;
      // Phase-1 objective: minimize the total artificial magnitude
      // (cost +1 on nonnegative artificials, -1 on nonpositive ones).
      std::vector<double> d(static_cast<std::size_t>(full_cols), 0.0);
      for (int c = art_base; c < full_cols; ++c) {
        d[c] = t.up[c] == 0.0 ? -1.0 : 1.0;
      }
      for (int r = 0; r < m; ++r) {
        if (t.basis[r] < art_base) continue;
        const double cb = t.up[t.basis[r]] == 0.0 ? -1.0 : 1.0;
        const double* tr = t.row(r);
        for (int c = 0; c < full_cols; ++c) d[c] -= cb * tr[c];
      }
      for (int r = 0; r < m; ++r) d[t.basis[r]] = 0.0;
      const LpStatus st =
          run_bounded(t, d, options_, out.iterations, log);
      if (st == LpStatus::kCancelled) {
        out.status = LpStatus::kCancelled;
        out.sparse_price_skips = t.skips;
        return out;
      }
      if (st == LpStatus::kIterationLimit || st == LpStatus::kUnbounded) {
        // A bounded-below phase 1 cannot be unbounded; if numerics say
        // otherwise, refuse to certify anything.
        out.status = LpStatus::kIterationLimit;
        out.sparse_price_skips = t.skips;
        return out;
      }
      double infeas = 0.0;
      for (int r = 0; r < t.rows; ++r) {
        if (t.basis[r] >= art_base) infeas += std::abs(t.xb[r]);
      }
      if (infeas > kFeasTol) {
        out.status = LpStatus::kInfeasible;
        out.sparse_price_skips = t.skips;
        return out;
      }
      // Pivot remaining (degenerate) artificials out of the basis; rows
      // with no real nonzero left are redundant (0 = 0) and are dropped
      // so a basic artificial can never drift away from zero later.
      for (int r = 0; r < t.rows;) {
        if (t.basis[r] < art_base) {
          ++r;
          continue;
        }
        int col = -1;
        const double* tr = t.row(r);
        for (int c = 0; c < art_base; ++c) {
          if (t.status[c] != ColStatus::kBasic && std::abs(tr[c]) > kFeasTol) {
            col = c;
            break;
          }
        }
        // A retiring artificial parks at its zero bound (lower for the
        // nonnegative domain, upper for the nonpositive one).
        if (col >= 0) {
          const int acol = t.basis[r];
          pivot_on(t, r, col, nullptr, nullptr);
          t.basis[r] = col;
          t.status[acol] = t.up[acol] == 0.0 ? ColStatus::kAtUpper
                                             : ColStatus::kAtLower;
          t.status[col] = ColStatus::kBasic;
          t.xb[r] = t.nonbasic_value(col);  // zero-length step
          ++r;
        } else {
          const int acol = t.basis[r];
          t.status[acol] = t.up[acol] == 0.0 ? ColStatus::kAtUpper
                                             : ColStatus::kAtLower;
          t.drop_row(r);
        }
      }
    }
    // Retire the artificial block: phase 2 never scans past art_base, so
    // the (now nonbasic, worthless) artificials can never re-enter.
    t.cols = art_base;
  }
  out.phase1_skipped = warm_ok || n_art == 0;

  // --- 6. Phase 2 with the real objective. --------------------------------
  std::vector<double> d(static_cast<std::size_t>(full_cols), 0.0);
  for (int c = 0; c < n_internal; ++c) d[c] = int_cost[c];
  for (int r = 0; r < t.rows; ++r) {
    const int bc = t.basis[r];
    const double cb = bc < n_internal ? int_cost[bc] : 0.0;
    if (cb == 0.0) continue;
    const double* tr = t.row(r);
    for (int c = 0; c < t.cols; ++c) d[c] -= cb * tr[c];
  }
  for (int r = 0; r < t.rows; ++r) d[t.basis[r]] = 0.0;
  const LpStatus st = run_bounded(t, d, options_, out.iterations, log);
  out.sparse_price_skips = t.skips;
  if (st != LpStatus::kOptimal) {
    out.status = st;
    return out;
  }

  // --- 6.5 Deterministic refactorization of the basic values. -------------
  // The incremental xb carries the roundoff of the whole pivot path, so
  // two paths ending in the same basis (a cold start vs a warm start
  // from a neighbor profile's or the anchor's basis) could disagree in
  // the last ulp — enough to flip downstream profit near-ties and let
  // the basis warm start change a plan. Recomputing B xb = rhs0 - N x_N
  // from the *original* data makes the returned point a pure function of
  // (model, final basis set, nonbasic statuses), independent of how the
  // solver got there. Falls back to the incremental values if the basis
  // matrix looks singular (it never is for a basis this solver
  // produced).
  if (t.rows > 0) {
    const int mb = t.rows;
    const auto mbz = static_cast<std::size_t>(mb);
    // Right-hand side over the surviving rows, nonbasic bound
    // contributions removed. Only shifted structural columns can sit at
    // a nonzero bound — every nonbasic-reachable slack/artificial bound
    // is zero.
    std::vector<double> fb(mbz);
    for (int i = 0; i < mb; ++i) {
      fb[static_cast<std::size_t>(i)] =
          rhs0[static_cast<std::size_t>(t.row_id[i])];
    }
    for (int c = 0; c < n_internal; ++c) {
      if (t.status[c] == ColStatus::kBasic) continue;
      const double v = t.nonbasic_value(c);
      if (v == 0.0) continue;
      for (int i = 0; i < mb; ++i) {
        fb[static_cast<std::size_t>(i)] -=
            dense[static_cast<std::size_t>(t.row_id[i]) *
                      static_cast<std::size_t>(n_internal) +
                  static_cast<std::size_t>(c)] *
            v;
      }
    }
    // Basis matrix with columns in ascending column-index order, so the
    // factorization depends only on the basis *set* — different pivot
    // paths assign the same columns to different rows.
    std::vector<int> order(t.basis.begin(), t.basis.end());
    std::sort(order.begin(), order.end());
    bool ok = true;
    std::vector<double> B(mbz * mbz, 0.0);
    for (int j = 0; j < mb && ok; ++j) {
      const int col = order[static_cast<std::size_t>(j)];
      if (col >= art_base) {
        ok = false;  // basic artificial should be impossible at optimal
      } else if (col < n_internal) {
        for (int i = 0; i < mb; ++i) {
          B[static_cast<std::size_t>(i) * mbz + static_cast<std::size_t>(j)] =
              dense[static_cast<std::size_t>(t.row_id[i]) *
                        static_cast<std::size_t>(n_internal) +
                    static_cast<std::size_t>(col)];
        }
      } else {
        const int s = col - n_internal;
        for (int i = 0; i < mb; ++i) {
          if (t.row_id[i] == s) {
            B[static_cast<std::size_t>(i) * mbz +
              static_cast<std::size_t>(j)] = 1.0;
            break;
          }
        }
      }
    }
    // In-place LU with partial pivoting (largest magnitude, first index
    // on ties) applied to the augmented system [B | fb].
    for (int k = 0; k < mb && ok; ++k) {
      int piv = k;
      double best = std::abs(B[static_cast<std::size_t>(k) * mbz +
                               static_cast<std::size_t>(k)]);
      for (int i = k + 1; i < mb; ++i) {
        const double a = std::abs(B[static_cast<std::size_t>(i) * mbz +
                                    static_cast<std::size_t>(k)]);
        if (a > best) {
          best = a;
          piv = i;
        }
      }
      if (!(best > 1e-11)) {
        ok = false;
        break;
      }
      if (piv != k) {
        for (int c2 = k; c2 < mb; ++c2) {
          std::swap(B[static_cast<std::size_t>(k) * mbz +
                      static_cast<std::size_t>(c2)],
                    B[static_cast<std::size_t>(piv) * mbz +
                      static_cast<std::size_t>(c2)]);
        }
        std::swap(fb[static_cast<std::size_t>(k)],
                  fb[static_cast<std::size_t>(piv)]);
      }
      const double inv = 1.0 / B[static_cast<std::size_t>(k) * mbz +
                                 static_cast<std::size_t>(k)];
      for (int i = k + 1; i < mb; ++i) {
        const double f = B[static_cast<std::size_t>(i) * mbz +
                           static_cast<std::size_t>(k)] *
                         inv;
        if (f == 0.0) continue;
        for (int c2 = k + 1; c2 < mb; ++c2) {
          B[static_cast<std::size_t>(i) * mbz +
            static_cast<std::size_t>(c2)] -=
              f * B[static_cast<std::size_t>(k) * mbz +
                    static_cast<std::size_t>(c2)];
        }
        fb[static_cast<std::size_t>(i)] -= f * fb[static_cast<std::size_t>(k)];
      }
    }
    if (ok) {
      std::vector<double> yb(mbz);
      for (int k = mb - 1; k >= 0; --k) {
        double acc = fb[static_cast<std::size_t>(k)];
        for (int c2 = k + 1; c2 < mb; ++c2) {
          acc -= B[static_cast<std::size_t>(k) * mbz +
                   static_cast<std::size_t>(c2)] *
                 yb[static_cast<std::size_t>(c2)];
        }
        yb[static_cast<std::size_t>(k)] =
            acc / B[static_cast<std::size_t>(k) * mbz +
                    static_cast<std::size_t>(k)];
        if (!std::isfinite(yb[static_cast<std::size_t>(k)])) {
          ok = false;
          break;
        }
      }
      if (ok) {
        // yb[j] is the value of basis column order[j]; hand each
        // tableau row its own column's value.
        for (int i = 0; i < mb; ++i) {
          const auto at = std::lower_bound(order.begin(), order.end(),
                                           t.basis[i]) -
                          order.begin();
          t.xb[i] = yb[static_cast<std::size_t>(at)];
        }
      }
    }
  }

  // --- 7. Extract the solution back into the original space. --------------
  std::vector<double> y(static_cast<std::size_t>(n_internal), 0.0);
  for (int c = 0; c < n_internal; ++c) {
    if (t.status[c] != ColStatus::kBasic) y[c] = t.nonbasic_value(c);
  }
  for (int r = 0; r < t.rows; ++r) {
    if (t.basis[r] < n_internal) y[t.basis[r]] = t.xb[r];
  }
  for (int j = 0; j < n_orig; ++j) {
    const VarMap& vm = vmap[static_cast<std::size_t>(j)];
    switch (vm.kind) {
      case VarMap::Kind::kShifted:
        out.x[j] = vm.shift + y[vm.primary];
        break;
      case VarMap::Kind::kReflected:
        out.x[j] = vm.shift - y[vm.primary];
        break;
      case VarMap::Kind::kFree:
        out.x[j] = y[vm.primary] - y[vm.secondary];
        break;
    }
    // Snap tiny numerical residue onto the bounds.
    out.x[j] = std::clamp(out.x[j], lp.lower_bound(j), lp.upper_bound(j));
    if (std::abs(out.x[j]) < kTol) out.x[j] = 0.0;
  }
  out.status = LpStatus::kOptimal;
  out.objective = lp.objective_value(out.x);

  // --- 8. Duals, read off the slack reduced costs. ------------------------
  // Row r's slack has internal cost 0 and original column e_r, so its
  // phase-2 reduced cost is -y_r of the internal (minimize) problem; the
  // user wants d(user objective)/d(user rhs), which undoes the
  // minimize/maximize flip. A dropped (redundant) row's slack column
  // never picks up a reduced cost — its dual stays the conventional 0.
  out.duals.assign(static_cast<std::size_t>(m), 0.0);
  for (int r = 0; r < m; ++r) {
    out.duals[static_cast<std::size_t>(r)] = -sense_mul * d[n_internal + r];
  }

  // --- 9. Export the final basis in model space. --------------------------
  std::vector<int> col_owner(static_cast<std::size_t>(n_internal), -1);
  for (int j = 0; j < n_orig; ++j) {
    col_owner[vmap[static_cast<std::size_t>(j)].primary] = j;
    if (vmap[static_cast<std::size_t>(j)].secondary >= 0) {
      col_owner[vmap[static_cast<std::size_t>(j)].secondary] = j;
    }
  }
  out.basis.basic.reserve(static_cast<std::size_t>(t.rows));
  for (int r = 0; r < t.rows; ++r) {
    const int bc = t.basis[r];
    if (bc < n_internal) {
      out.basis.basic.push_back(
          {SimplexBasis::Kind::kVariable, col_owner[bc]});
    } else {
      out.basis.basic.push_back(
          {SimplexBasis::Kind::kSlack, bc - n_internal});
    }
  }
  for (int j = 0; j < n_orig; ++j) {
    const VarMap& vm = vmap[static_cast<std::size_t>(j)];
    if (t.status[vm.primary] == ColStatus::kBasic) continue;
    const bool x_at_upper =
        (vm.kind == VarMap::Kind::kShifted &&
         t.status[vm.primary] == ColStatus::kAtUpper) ||
        (vm.kind == VarMap::Kind::kReflected &&
         t.status[vm.primary] == ColStatus::kAtLower);
    if (x_at_upper) out.basis.at_upper.push_back(j);
  }
  return out;
}

}  // namespace palb
