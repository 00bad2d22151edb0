#include "solver/nlp.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace palb {

void NlpProblem::validate() const {
  PALB_REQUIRE(dimension > 0, "NLP dimension must be positive");
  PALB_REQUIRE(lower.size() == dimension && upper.size() == dimension,
               "NLP bounds must match dimension");
  PALB_REQUIRE(static_cast<bool>(objective), "NLP objective is required");
  for (std::size_t i = 0; i < dimension; ++i) {
    PALB_REQUIRE(lower[i] <= upper[i], "NLP bounds must satisfy lb <= ub");
  }
}

namespace {

constexpr double kInitialPenalty = 10.0;
constexpr double kPenaltyGrowth = 4.0;
constexpr double kMaxPenalty = 1e8;
constexpr double kFeasibilityTolerance = 1e-6;
constexpr double kGradientTolerance = 1e-7;
/// Relative central-difference step.
constexpr double kFdStep = 1e-6;

void project(const NlpProblem& p, std::vector<double>& x) {
  for (std::size_t i = 0; i < p.dimension; ++i) {
    x[i] = std::clamp(x[i], p.lower[i], p.upper[i]);
  }
}

double max_violation(const NlpProblem& p, const std::vector<double>& x) {
  double v = 0.0;
  for (const auto& g : p.inequalities) v = std::max(v, g(x));
  for (const auto& h : p.equalities) v = std::max(v, std::abs(h(x)));
  return v;
}

/// Augmented Lagrangian value (Rockafellar form for inequalities).
class AugLag {
 public:
  AugLag(const NlpProblem& p, const std::vector<double>& lam_ineq,
         const std::vector<double>& lam_eq, double rho)
      : p_(p), lam_ineq_(lam_ineq), lam_eq_(lam_eq), rho_(rho) {}

  double operator()(const std::vector<double>& x) const {
    double val = p_.objective(x);
    for (std::size_t i = 0; i < p_.inequalities.size(); ++i) {
      const double g = p_.inequalities[i](x);
      const double t = std::max(0.0, lam_ineq_[i] + rho_ * g);
      val += (t * t - lam_ineq_[i] * lam_ineq_[i]) / (2.0 * rho_);
    }
    for (std::size_t j = 0; j < p_.equalities.size(); ++j) {
      const double h = p_.equalities[j](x);
      val += lam_eq_[j] * h + 0.5 * rho_ * h * h;
    }
    return val;
  }

 private:
  const NlpProblem& p_;
  const std::vector<double>& lam_ineq_;
  const std::vector<double>& lam_eq_;
  double rho_;
};

std::vector<double> finite_diff_gradient(
    const std::function<double(const std::vector<double>&)>& f,
    const NlpProblem& p, const std::vector<double>& x) {
  std::vector<double> g(p.dimension, 0.0);
  std::vector<double> probe = x;
  for (std::size_t i = 0; i < p.dimension; ++i) {
    const double h = kFdStep * std::max(1.0, std::abs(x[i]));
    // Stay inside the box so models with asymptotes at the boundary
    // (the M/M/1 delay blows up at the stability edge) are never probed
    // outside their domain.
    const double up = std::min(x[i] + h, p.upper[i]);
    const double dn = std::max(x[i] - h, p.lower[i]);
    if (up <= dn) {
      g[i] = 0.0;
      continue;
    }
    probe[i] = up;
    const double f_up = f(probe);
    probe[i] = dn;
    const double f_dn = f(probe);
    probe[i] = x[i];
    g[i] = (f_up - f_dn) / (up - dn);
  }
  return g;
}

}  // namespace

NlpResult AugLagSolver::solve(const NlpProblem& problem,
                              const std::vector<double>& x0) const {
  problem.validate();
  PALB_REQUIRE(x0.size() == problem.dimension, "x0 dimension mismatch");

  std::vector<double> x = x0;
  project(problem, x);

  std::vector<double> lam_ineq(problem.inequalities.size(), 0.0);
  std::vector<double> lam_eq(problem.equalities.size(), 0.0);
  double rho = kInitialPenalty;

  NlpResult result;
  result.x = x;

  for (int outer = 0; outer < options_.max_outer; ++outer) {
    ++result.outer_iterations;
    AugLag merit(problem, lam_ineq, lam_eq, rho);

    // --- inner minimization of the augmented Lagrangian -----------------
    // Projected gradient with Armijo backtracking (monotone).
    double fx = merit(x);
    for (int inner = 0; inner < options_.max_inner; ++inner) {
      ++result.inner_iterations;
      const std::vector<double> grad = finite_diff_gradient(merit, problem, x);

      double stat = 0.0;
      for (std::size_t i = 0; i < problem.dimension; ++i) {
        const double trial = std::clamp(x[i] - grad[i], problem.lower[i],
                                        problem.upper[i]);
        stat = std::max(stat, std::abs(trial - x[i]));
      }
      if (stat < kGradientTolerance) break;

      double step = 1.0;
      bool moved = false;
      for (int bt = 0; bt < 40; ++bt) {
        std::vector<double> cand(problem.dimension);
        double decrease_model = 0.0;
        for (std::size_t i = 0; i < problem.dimension; ++i) {
          cand[i] = std::clamp(x[i] - step * grad[i], problem.lower[i],
                               problem.upper[i]);
          decrease_model += grad[i] * (x[i] - cand[i]);
        }
        const double f_cand = merit(cand);
        if (f_cand <= fx - 1e-4 * decrease_model && std::isfinite(f_cand)) {
          x = std::move(cand);
          fx = f_cand;
          moved = true;
          break;
        }
        step *= 0.5;
      }
      if (!moved) break;
    }

    // --- outer: multiplier & penalty updates -----------------------------
    double viol = 0.0;
    for (std::size_t i = 0; i < problem.inequalities.size(); ++i) {
      const double g = problem.inequalities[i](x);
      lam_ineq[i] = std::max(0.0, lam_ineq[i] + rho * g);
      viol = std::max(viol, g);
    }
    for (std::size_t j = 0; j < problem.equalities.size(); ++j) {
      const double h = problem.equalities[j](x);
      lam_eq[j] += rho * h;
      viol = std::max(viol, std::abs(h));
    }

    if (viol <= kFeasibilityTolerance) {
      result.converged = true;
      break;
    }
    rho = std::min(rho * kPenaltyGrowth, kMaxPenalty);
  }

  result.x = x;
  result.objective = problem.objective(x);
  result.infeasibility = max_violation(problem, x);
  result.converged = result.infeasibility <= kFeasibilityTolerance;
  return result;
}

NlpResult AugLagSolver::solve_multistart(
    const NlpProblem& problem, const std::vector<double>& x0, int starts,
    Rng rng) const {
  problem.validate();
  PALB_REQUIRE(starts >= 1, "multistart needs at least one start");

  // Build the start points up front so the parallel section is pure.
  std::vector<std::vector<double>> points;
  points.push_back(x0);
  for (int s = 1; s < starts; ++s) {
    std::vector<double> p(problem.dimension);
    Rng stream = rng.substream(static_cast<std::uint64_t>(s));
    for (std::size_t i = 0; i < problem.dimension; ++i) {
      const double lo = std::isfinite(problem.lower[i]) ? problem.lower[i]
                                                        : -1e3;
      const double hi =
          std::isfinite(problem.upper[i]) ? problem.upper[i] : 1e3;
      p[i] = stream.uniform(lo, hi);
    }
    points.push_back(std::move(p));
  }

  std::vector<NlpResult> results(points.size());
  parallel_for(points.size(), [&](std::size_t i) {
    results[i] = solve(problem, points[i]);
  });

  // Best feasible wins; otherwise least infeasible.
  const NlpResult* best = &results[0];
  for (const auto& r : results) {
    if (r.converged && !best->converged) {
      best = &r;
    } else if (r.converged == best->converged) {
      if (r.converged ? r.objective < best->objective
                      : r.infeasibility < best->infeasibility) {
        best = &r;
      }
    }
  }
  return *best;
}

}  // namespace palb
