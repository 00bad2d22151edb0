#include "core/optimized_policy.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "check/plan_checker.hpp"
#include "queueing/mm1.hpp"
#include "solver/simplex.hpp"
#include "units/units.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace palb {

namespace {

/// profile[l * K + k] = -1 (class k not served at DC l) or the 0-based
/// TUF level the mean delay must land in.
using Profile = std::vector<int>;

/// A simplex basis lifted out of one profile's LP into profile-
/// independent (K, S, L) coordinates, so it can seed the LP of a
/// *different* profile. Neighboring profiles share most of their
/// columns; entries whose variable/row does not exist in the target LP
/// are dropped on import (the solver tolerates partial bases), and the
/// solver discards any import that lands out of bounds. A warm basis
/// changes the pivot path: the pivot count, and at a degenerate optimum
/// which optimal vertex the solve returns.
struct GlobalBasis {
  /// (is_variable, token). Variable token: routing var (k*S + s)*L + l.
  /// Row token: flow row k*S + s, capacity row K*S + l.
  std::vector<std::pair<bool, std::size_t>> basic;
  std::vector<std::size_t> at_upper;  ///< routing-variable tokens
  bool empty() const { return basic.empty() && at_upper.empty(); }
};

struct ProfileOutcome {
  bool feasible = false;
  double objective = 0.0;  // net profit over the slot per the LP model
  /// Mixed-radix encoding of the profile (see decode_profile); breaks
  /// exact-objective ties deterministically.
  std::uint64_t index = 0;
  DispatchPlan plan;
  /// Marginal $ value of one extra server per DC (capacity-row dual x a
  /// server's net capacity under the profile).
  std::vector<double> server_shadow_prices;
  int lp_iterations = 0;
  std::uint64_t sparse_price_skips = 0;
  bool phase1_skipped = false;
  bool basis_warm_used = false;
  /// Final LP basis in global coordinates (filled only on request).
  GlobalBasis basis;
};

/// Effective (margin-tightened) *queue* sub-deadline for class k at
/// level q, after spending `prop_offset` of the budget on network
/// propagation (0 under the paper's instant-wire model). Under the tail
/// metric the remaining budget additionally shrinks by ln(1/(1-p)): an
/// exponential sojourn tail P(T > t) = e^{-t/R} meets P(T <= D) >= p
/// exactly when the mean R <= D / ln(1/(1-p)). Returns <= 0 when the
/// propagation alone exhausts the band's budget (band unreachable).
units::Seconds effective_deadline(const Topology& topo, std::size_t k,
                                  int level, units::Seconds prop_offset,
                                  const OptimizedPolicy::Options& opt) {
  units::Seconds deadline =
      topo.classes[k].tuf.deadline_at(static_cast<std::size_t>(level)) -
      prop_offset;
  if (deadline <= units::Seconds{0.0}) return units::Seconds{0.0};
  deadline *= (1.0 - opt.deadline_margin);
  if (opt.delay_metric == OptimizedPolicy::DelayMetric::kTailPercentile) {
    PALB_REQUIRE(opt.tail_percentile > 0.0 && opt.tail_percentile < 1.0,
                 "tail percentile must be in (0,1)");
    deadline /= std::log(1.0 / (1.0 - opt.tail_percentile));
  }
  return deadline;
}

/// Worst network propagation the class-k stream into DC l may carry:
/// the max over front-ends that actually offer class-k traffic. Routing
/// is the LP's decision, so this is conservative — a far trickle
/// tightens the whole (k, l) budget; splitting the DC per origin group
/// (hetero::split_datacenter-style) recovers the finer optimum.
units::Seconds worst_propagation(const Topology& topo, const SlotInput& input,
                                 std::size_t k, std::size_t l) {
  units::Seconds worst{0.0};
  for (std::size_t s = 0; s < topo.num_frontends(); ++s) {
    if (input.arrival_rate[k][s] > 0.0) {
      worst = std::max(worst, topo.propagation(s, l));
    }
  }
  return worst;
}

/// Everything a profile evaluation reads that does not depend on the
/// profile, compiled once per plan_slot. Every entry is the expression
/// the per-profile code would evaluate, in the same operand order, so
/// reading the table is bit-identical to recomputing from the topology.
/// A band is one (class k, DC l, TUF level q) triple, flattened by
/// band().
struct SlotTable {
  SlotTable(const Topology& topology, const SlotInput& slot_input,
            const OptimizedPolicy::Options& opt);

  std::size_t band(std::size_t k, std::size_t l, int level) const {
    return (k * L + l) * Q + static_cast<std::size_t>(level);
  }

  const Topology& topo;
  const SlotInput& input;
  std::size_t K, S, L;
  std::size_t Q = 0;  ///< most TUF levels of any class: the band stride
  /// Per band: the effective queue deadline after the worst routed
  /// propagation of its (k, l) stream. <= 0 marks a band the wire alone
  /// puts out of reach.
  std::vector<units::Seconds> deadline;
  /// Per reachable band: the per-server share it costs, 1 / (D * C * mu).
  std::vector<double> share;
  /// Per (band, front-end s) at band * S + s: the value coefficient
  /// (U_q + drop penalty - energy - wire) * T of one unit of rate routed
  /// s -> l, before the profile's idle term.
  std::vector<double> head;
  /// Per DC: the idle term's numerator, idle kW * price * PUE * hours.
  std::vector<double> idle;
};

SlotTable::SlotTable(const Topology& topology, const SlotInput& slot_input,
                     const OptimizedPolicy::Options& opt)
    : topo(topology),
      input(slot_input),
      K(topology.num_classes()),
      S(topology.num_frontends()),
      L(topology.num_datacenters()) {
  for (const auto& cls : topo.classes) Q = std::max(Q, cls.tuf.levels());
  deadline.assign(K * L * Q, units::Seconds{0.0});
  share.assign(K * L * Q, 0.0);
  head.assign(K * L * Q * S, 0.0);
  const units::Seconds T = input.slot_duration();
  for (std::size_t k = 0; k < K; ++k) {
    const auto& cls = topo.classes[k];
    for (std::size_t l = 0; l < L; ++l) {
      const auto& dc = topo.datacenters[l];
      const units::Seconds prop = worst_propagation(topo, input, k, l);
      // kWh/req * $/kWh -> $/req; PUE is a dimensionless multiplier.
      const units::DollarsPerReq energy =
          dc.energy_per_request(k) * input.price_at(l) * dc.pue;
      for (int level = 0; level < static_cast<int>(cls.tuf.levels());
           ++level) {
        const std::size_t b = band(k, l, level);
        deadline[b] = effective_deadline(topo, k, level, prop, opt);
        if (deadline[b] > units::Seconds{0.0}) {
          // 1req / (D * C * mu) is the per-server share the band costs —
          // dimensionless, so the typed quotient collapses to a double.
          share[b] = units::kOneRequest /
                     (deadline[b] * dc.server_capacity *
                      dc.service_rate_of(k));
        }
        const units::DollarsPerReq utility =
            cls.tuf.utility_at(static_cast<std::size_t>(level));
        for (std::size_t s = 0; s < S; ++s) {
          // $/req-mile * miles -> $/req.
          const units::DollarsPerReq wire =
              cls.transfer_cost() * topo.distance(s, l);
          // Serving a request both earns its band utility (the queue
          // deadline was already tightened by the worst routed
          // propagation, so every origin's total stays in-band) and
          // avoids its drop penalty; the constant -penalty*offered*T is
          // common to every profile (objectives are "relative to
          // dropping everything"). $/req * s -> $.s/req, the LP's
          // dollars-per-unit-rate coefficient; .value() is the solver
          // seam.
          head[b * S + s] =
              ((utility + cls.drop_penalty() - energy - wire) * T).value();
        }
      }
    }
  }
  // Static-power extension: under the continuous server relaxation,
  // powered-on servers scale as sum_k X_k/(C mu_k) / (1 - overhead), so
  // the idle bill is linear in the routed rates and folds exactly into
  // the objective coefficients (ProfilePrep::idle). Zero idle power (the
  // paper's model) leaves the coefficients untouched. Assembled raw
  // (audited seam): the kW x hours rescaling must stay `kW * (T/3600)`
  // for the coefficients to be bit-identical to the pre-units ledger.
  idle.assign(L, 0.0);
  for (std::size_t l = 0; l < L; ++l) {
    const auto& dc = topo.datacenters[l];
    idle[l] = dc.idle_power_kw * input.price[l] * dc.pue *
              (T.value() / 3600.0);
  }
}

/// The band-deduced quantities an LP solve and the value bound share.
struct ProfilePrep {
  bool feasible = false;
  /// Per-DC per-server share overhead of the profile's active bands:
  /// sum_k 1 / (D_eff * C * mu). A DC whose overhead reaches 1 cannot
  /// run the profile on any server.
  std::vector<double> overhead;  // [L]
  /// Idle dollars per unit of class-k rate at DC l, [l * K + k]: the
  /// table's numerator over the profile's ((1 - overhead) * C) * mu.
  /// Filled only for feasible profiles.
  std::vector<double> idle;
};

ProfilePrep prepare_profile(const SlotTable& slot, const Profile& profile) {
  const std::size_t K = slot.K;
  const std::size_t L = slot.L;
  ProfilePrep prep;
  prep.overhead.assign(L, 0.0);
  for (std::size_t l = 0; l < L; ++l) {
    for (std::size_t k = 0; k < K; ++k) {
      const int level = profile[l * K + k];
      if (level < 0) continue;
      const std::size_t b = slot.band(k, l, level);
      if (slot.deadline[b] <= units::Seconds{0.0}) {
        return prep;  // band unreachable over the wire
      }
      prep.overhead[l] += slot.share[b];
    }
    if (prep.overhead[l] >= 1.0) return prep;  // physically impossible
  }
  prep.idle.assign(K * L, 0.0);
  for (std::size_t l = 0; l < L; ++l) {
    const auto& dc = slot.topo.datacenters[l];
    for (std::size_t k = 0; k < K; ++k) {
      if (profile[l * K + k] < 0) continue;
      prep.idle[l * K + k] =
          slot.idle[l] / ((1.0 - prep.overhead[l]) * dc.server_capacity *
                          dc.service_rate[k]);
    }
  }
  prep.feasible = true;
  return prep;
}

/// Net dollars one unit of class-k rate from front-end s earns over the
/// slot when served by DC l in the profile's band `level`. This is the
/// LP objective coefficient; profile_value_bound reads the exact same
/// value, which the value-bound prunes need to be lossless.
double value_coefficient(const SlotTable& slot, const ProfilePrep& prep,
                         std::size_t k, std::size_t s, std::size_t l,
                         int level) {
  return slot.head[slot.band(k, l, level) * slot.S + s] -
         prep.idle[l * slot.K + k];
}

/// Cheap upper bound on a profile's LP objective: flow conservation caps
/// each (k, s) stream at its arrival rate, so routing everything to the
/// most valuable active destination — or dropping it when every
/// coefficient is negative — bounds the objective from above. Any
/// profile whose bound is strictly below a known-achievable objective
/// can neither win nor tie and is safe to skip un-solved.
double profile_value_bound(const SlotTable& slot, const Profile& profile,
                           const ProfilePrep& prep) {
  const std::size_t K = slot.K;
  double bound = 0.0;
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < slot.S; ++s) {
      const double arrival = slot.input.arrival_rate[k][s];
      if (arrival <= 0.0) continue;
      double best_coeff = 0.0;  // routing nothing is always allowed
      for (std::size_t l = 0; l < slot.L; ++l) {
        const int level = profile[l * K + k];
        if (level < 0) continue;
        best_coeff = std::max(
            best_coeff, value_coefficient(slot, prep, k, s, l, level));
      }
      bound += arrival * best_coeff;
    }
  }
  return bound;
}

/// Solves the LP conditioned on a band profile and realizes the plan
/// (integer server counts, minimal shares, optional spare distribution).
/// `warm` (nullable) seeds the simplex from another profile's basis;
/// `want_basis` asks for the final basis back in global coordinates.
ProfileOutcome solve_profile(const SlotTable& slot, const Profile& profile,
                             const ProfilePrep& prep,
                             const OptimizedPolicy::Options& opt,
                             const GlobalBasis* warm, bool want_basis) {
  const Topology& topo = slot.topo;
  const SlotInput& input = slot.input;
  const std::size_t K = slot.K;
  const std::size_t S = slot.S;
  const std::size_t L = slot.L;

  ProfileOutcome out;
  if (!prep.feasible) return out;
  const std::vector<double>& overhead = prep.overhead;

  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);

  // Routing variables for every active (k, s, l). var[] maps global
  // tokens to LP indices; var_token is the inverse (for basis export).
  std::vector<int> var(K * S * L, -1);
  std::vector<std::size_t> var_token;
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t l = 0; l < L; ++l) {
      const int level = profile[l * K + k];
      if (level < 0) continue;
      for (std::size_t s = 0; s < S; ++s) {
        var[(k * S + s) * L + l] =
            lp.add_variable(0.0, input.arrival_rate[k][s],
                            value_coefficient(slot, prep, k, s, l, level));
        var_token.push_back((k * S + s) * L + l);
      }
    }
  }
  if (lp.num_variables() == 0) {
    // All-off profile: the zero plan, worth exactly zero.
    out.feasible = true;
    out.objective = 0.0;
    out.plan = DispatchPlan::zero(topo);
    return out;
  }

  // Flow conservation (Eq. 7): per (class, front-end). flow_row maps the
  // (k, s) token to the LP row (or -1), row_token is the inverse. Here and
  // in the capacity rows the terms arrive in ascending variable order,
  // which LinearProgram keeps without a sort.
  std::vector<int> flow_row(K * S, -1);
  std::vector<std::size_t> row_token;
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < S; ++s) {
      std::vector<std::pair<int, double>> terms;
      for (std::size_t l = 0; l < L; ++l) {
        const int v = var[(k * S + s) * L + l];
        if (v >= 0) terms.emplace_back(v, 1.0);
      }
      if (terms.size() > 1) {
        flow_row[k * S + s] = lp.add_constraint(
            terms, Relation::kLe, input.arrival_rate[k][s]);
        row_token.push_back(k * S + s);
      }
      // With a single destination the variable's upper bound suffices.
    }
  }

  // Per-DC linearized share budget (Eq. 8 after the band reduction):
  // sum_k X_{k,l} / (C mu_k)  <=  M_l (1 - overhead_l).
  std::vector<int> capacity_row(L, -1);
  for (std::size_t l = 0; l < L; ++l) {
    const auto& dc = topo.datacenters[l];
    std::vector<std::pair<int, double>> terms;
    for (std::size_t k = 0; k < K; ++k) {
      if (profile[l * K + k] < 0) continue;
      const double inv_rate =
          1.0 / (dc.server_capacity * dc.service_rate[k]);
      for (std::size_t s = 0; s < S; ++s) {
        const int v = var[(k * S + s) * L + l];
        if (v >= 0) terms.emplace_back(v, inv_rate);
      }
    }
    if (!terms.empty()) {
      capacity_row[l] = lp.add_constraint(
          terms, Relation::kLe,
          static_cast<double>(dc.num_servers) * (1.0 - overhead[l]));
      row_token.push_back(K * S + l);
    }
  }

  // Translate the caller's global basis into this LP's indices; entries
  // for columns/rows this profile does not have are simply dropped.
  SimplexBasis warm_basis;
  const SimplexBasis* warm_ptr = nullptr;
  if (warm && !warm->empty()) {
    for (const auto& [is_var, token] : warm->basic) {
      if (is_var) {
        const int v = var[token];
        if (v >= 0) {
          warm_basis.basic.push_back({SimplexBasis::Kind::kVariable, v});
        }
      } else {
        const int row = token < K * S
                            ? flow_row[token]
                            : capacity_row[token - K * S];
        if (row >= 0) {
          warm_basis.basic.push_back({SimplexBasis::Kind::kSlack, row});
        }
      }
    }
    for (const std::size_t token : warm->at_upper) {
      if (var[token] >= 0) warm_basis.at_upper.push_back(var[token]);
    }
    if (!warm_basis.empty()) warm_ptr = &warm_basis;
  }

  SimplexSolver::Options solver_opt;
  if (opt.lp_max_iterations > 0) {
    solver_opt.max_iterations = static_cast<int>(opt.lp_max_iterations);
  }
  solver_opt.cancel = opt.cancel;
  const LpSolution sol = SimplexSolver(solver_opt).solve(lp, warm_ptr);
  out.lp_iterations = sol.iterations;
  out.sparse_price_skips = sol.sparse_price_skips;
  out.phase1_skipped = sol.phase1_skipped;
  out.basis_warm_used = sol.warm_start_used;
  if (sol.status != LpStatus::kOptimal) return out;
  if (want_basis) {
    out.basis.basic.reserve(sol.basis.basic.size());
    for (const auto& e : sol.basis.basic) {
      if (e.kind == SimplexBasis::Kind::kVariable) {
        out.basis.basic.emplace_back(
            true, var_token[static_cast<std::size_t>(e.index)]);
      } else {
        out.basis.basic.emplace_back(
            false, row_token[static_cast<std::size_t>(e.index)]);
      }
    }
    for (const int v : sol.basis.at_upper) {
      out.basis.at_upper.push_back(var_token[static_cast<std::size_t>(v)]);
    }
  }

  // A server added to DC l raises the capacity rhs by (1 - overhead_l);
  // the row dual prices that change in dollars per slot.
  out.server_shadow_prices.assign(L, 0.0);
  for (std::size_t l = 0; l < L; ++l) {
    if (capacity_row[l] >= 0) {
      out.server_shadow_prices[l] =
          sol.duals[static_cast<std::size_t>(capacity_row[l])] *
          (1.0 - overhead[l]);
    }
  }

  // ---- Realize the plan. -------------------------------------------------
  DispatchPlan plan = DispatchPlan::zero(topo);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < S; ++s) {
      for (std::size_t l = 0; l < L; ++l) {
        const int v = var[(k * S + s) * L + l];
        if (v >= 0) plan.rate[k][s][l] = sol.x[static_cast<std::size_t>(v)];
      }
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    const auto& dc = topo.datacenters[l];
    // Only classes that actually received load pay a share overhead in
    // the realized allocation.
    double active_overhead = 0.0;
    double load_sum = 0.0;  // sum X_k / (C mu_k)
    for (std::size_t k = 0; k < K; ++k) {
      const double x = plan.class_dc_rate(k, l);
      if (x <= 1e-12) continue;
      active_overhead += slot.share[slot.band(k, l, profile[l * K + k])];
      load_sum += x / (dc.server_capacity * dc.service_rate[k]);
    }
    if (load_sum <= 0.0) {
      plan.dc[l].servers_on = 0;
      continue;
    }
    int servers = static_cast<int>(
        std::ceil(load_sum / (1.0 - active_overhead) - 1e-12));
    servers = std::max(servers, 1);
    servers = std::min(servers, dc.num_servers);
    plan.dc[l].servers_on = servers;

    double share_sum = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      const double x = plan.class_dc_rate(k, l);
      if (x <= 1e-12) continue;
      const units::Seconds deadline =
          slot.deadline[slot.band(k, l, profile[l * K + k])];
      const double per_server = x / static_cast<double>(servers);
      // Raw-core seam: required_share may legitimately exceed 1 by an
      // ulp at a binding capacity row (renormalized just below), which
      // a typed CpuShare would refuse to hold.
      plan.dc[l].share[k] =
          mm1::required_share(per_server, dc.server_capacity,
                              dc.service_rate[k], deadline.value());
      share_sum += plan.dc[l].share[k];
    }
    if (share_sum > 1.0) {
      // Floating-point slack at a binding capacity row can leave the sum
      // an ulp above 1; renormalize (the deadline loss is O(1e-16)).
      for (std::size_t k = 0; k < K; ++k) plan.dc[l].share[k] /= share_sum;
    } else if (opt.distribute_spare_share && share_sum > 0.0) {
      const double scale = 1.0 / share_sum;
      for (std::size_t k = 0; k < K; ++k) {
        plan.dc[l].share[k] =
            std::min(1.0, plan.dc[l].share[k] * scale);
      }
    }
  }

  out.feasible = true;
  out.objective = sol.objective;
  out.plan = std::move(plan);
  return out;
}

/// Mixed-radix decoding of profile index -> profile. Option count per
/// (k,l) cell is levels(k) + 1; option 0 encodes "off".
Profile decode_profile(std::uint64_t index, const Topology& topo) {
  const std::size_t K = topo.num_classes();
  const std::size_t L = topo.num_datacenters();
  Profile profile(K * L, -1);
  for (std::size_t cell = 0; cell < K * L; ++cell) {
    const std::size_t k = cell % K;
    const auto radix =
        static_cast<std::uint64_t>(topo.classes[k].tuf.levels()) + 1;
    profile[cell] = static_cast<int>(index % radix) - 1;
    index /= radix;
  }
  return profile;
}

/// Inverse of decode_profile (cell 0 is the least-significant digit).
/// In the local-search regime the true index can exceed 64 bits; the
/// wrapped value is still a deterministic tie-break key, which is all
/// that path needs.
std::uint64_t encode_profile(const Profile& profile, const Topology& topo) {
  const std::size_t K = topo.num_classes();
  std::uint64_t index = 0;
  for (std::size_t cell = profile.size(); cell-- > 0;) {
    const std::size_t k = cell % K;
    const auto radix =
        static_cast<std::uint64_t>(topo.classes[k].tuf.levels()) + 1;
    index = index * radix + static_cast<std::uint64_t>(profile[cell] + 1);
  }
  return index;
}

std::uint64_t profile_space_size(const Topology& topo,
                                 std::uint64_t clamp_at) {
  std::uint64_t total = 1;
  for (std::size_t l = 0; l < topo.num_datacenters(); ++l) {
    for (std::size_t k = 0; k < topo.num_classes(); ++k) {
      const auto radix =
          static_cast<std::uint64_t>(topo.classes[k].tuf.levels()) + 1;
      if (total > clamp_at / radix) return clamp_at + 1;  // overflow guard
      total *= radix;
    }
  }
  return total;
}

}  // namespace

DispatchPlan OptimizedPolicy::plan_slot(const Topology& topo,
                                        const SlotInput& input) {
  topo.validate();
  input.validate(topo);
  profiles_examined_ = 0;
  profiles_pruned_ = 0;
  lp_iterations_ = 0;
  phase1_skips_ = 0;
  basis_warm_hits_ = 0;
  sparse_price_skips_ = 0;
  const SlotTable slot(topo, input, options_);
  const std::size_t K = slot.K;
  const std::size_t cells = K * slot.L;

  ProfileOutcome best;
  best.feasible = true;
  best.objective = 0.0;  // the all-off plan is always available
  best.index = 0;        // ... and is profile 0 by construction
  best.plan = DispatchPlan::zero(topo);

  // A solve the token stops mid-pivot reports kCancelled, which lands as
  // an infeasible outcome; the check after the search keeps such a
  // partial search from returning a plan.
  const auto throw_if_cancelled = [&] {
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      throw SolveCancelled("OptimizedPolicy::plan_slot cancelled by its "
                           "deadline watchdog");
    }
  };
  // Solves one profile, offers it to the incumbent and returns its
  // objective (-inf when infeasible). `warm` (optional) seeds the
  // simplex; `capture` (optional) receives the final basis.
  auto evaluate = [&](const Profile& profile, std::uint64_t index,
                      const ProfilePrep& prep, const GlobalBasis* warm,
                      GlobalBasis* capture) {
    throw_if_cancelled();
    ++profiles_examined_;
    if (!prep.feasible) return -kInfinity;
    ProfileOutcome outcome = solve_profile(slot, profile, prep, options_,
                                           warm, capture != nullptr);
    outcome.index = index;
    lp_iterations_ += static_cast<std::uint64_t>(outcome.lp_iterations);
    sparse_price_skips_ += outcome.sparse_price_skips;
    if (outcome.phase1_skipped) ++phase1_skips_;
    if (outcome.basis_warm_used) ++basis_warm_hits_;
    if (!outcome.feasible) return -kInfinity;
    if (capture) *capture = std::move(outcome.basis);
    const double objective = outcome.objective;
    // Lexicographic (objective, lowest index): the anchor is solved
    // first but carries the highest index, so an exact tie must still
    // go to the lowest profile index.
    if (objective > best.objective ||
        (objective == best.objective && index < best.index)) {
      best = std::move(outcome);
    }
    return objective;
  };
  auto consider = [&](const Profile& profile, std::uint64_t index,
                      const GlobalBasis* warm, GlobalBasis* capture) {
    return evaluate(profile, index, prepare_profile(slot, profile), warm,
                    capture);
  };

  // Every cell at its last TUF band: the profile whose LP contains every
  // other profile's columns.
  Profile all_last(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    all_last[cell] =
        static_cast<int>(topo.classes[cell % K].tuf.levels()) - 1;
  }

  const std::uint64_t space =
      profile_space_size(topo, options_.max_enumerated_profiles);
  if (space <= options_.max_enumerated_profiles) {
    // Basis anchor: solve the all-last-band profile cold and warm-start
    // every other profile from its basis. The anchor is a function of
    // (topology, input) alone, so each profile's pivot path, and
    // therefore the plan, is a function of (topology, input, profile).
    // Its objective also seeds the prune bound (plan-preserving: a
    // pruned profile can neither win nor tie).
    const std::uint64_t anchor_index = encode_profile(all_last, topo);
    GlobalBasis anchor_basis;
    const double prune_threshold = std::max(
        0.0, consider(all_last, anchor_index, nullptr, &anchor_basis));
    for (std::uint64_t index = 0; index < space; ++index) {
      if (index == anchor_index) continue;  // already evaluated
      const Profile profile = decode_profile(index, topo);
      const ProfilePrep prep = prepare_profile(slot, profile);
      if (prune_threshold > 0.0 && prep.feasible &&
          profile_value_bound(slot, profile, prep) < prune_threshold) {
        ++profiles_pruned_;
        continue;
      }
      evaluate(profile, index, prep, &anchor_basis, nullptr);
    }
  } else {
    // First-improvement local search over profile cells from several
    // deterministic/random starting profiles.
    std::vector<Profile> starts;
    starts.emplace_back(cells, 0);  // every cell in its top band
    starts.push_back(all_last);
    Rng rng(0xC0FFEEull);
    for (int r = 0; r < options_.local_search_restarts; ++r) {
      Profile p(cells);
      for (std::size_t cell = 0; cell < cells; ++cell) {
        const std::size_t k = cell % K;
        const auto options =
            static_cast<std::uint64_t>(topo.classes[k].tuf.levels()) + 1;
        p[cell] = static_cast<int>(rng.uniform_index(options)) - 1;
      }
      starts.push_back(std::move(p));
    }

    for (Profile current : starts) {
      // Chain bases down the search path: the accepted profile's basis
      // warm-starts each neighbor (they differ in one (k, l) band). The
      // walk is first-improvement, so the chain — like the search
      // itself — is fully deterministic.
      GlobalBasis chain;
      double current_value = consider(current, encode_profile(current, topo),
                                      nullptr, &chain);
      bool improved = true;
      while (improved) {
        improved = false;
        for (std::size_t cell = 0; cell < cells && !improved; ++cell) {
          const std::size_t k = cell % K;
          const int levels =
              static_cast<int>(topo.classes[k].tuf.levels());
          for (int option = -1; option < levels; ++option) {
            if (option == current[cell]) continue;
            Profile neighbor = current;
            neighbor[cell] = option;
            // A neighbor whose value bound is strictly below the current
            // value can neither be accepted (that needs a value above
            // current_value + 1e-9) nor win or tie the incumbent, which
            // already holds the current profile's outcome: skip its LP.
            const ProfilePrep prep = prepare_profile(slot, neighbor);
            if (prep.feasible &&
                profile_value_bound(slot, neighbor, prep) < current_value) {
              ++profiles_pruned_;
              continue;
            }
            GlobalBasis neighbor_basis;
            const double value =
                evaluate(neighbor, encode_profile(neighbor, topo), prep,
                         &chain, &neighbor_basis);
            if (value > current_value + 1e-9) {
              current = std::move(neighbor);
              current_value = value;
              chain = std::move(neighbor_basis);
              improved = true;
              break;
            }
          }
        }
      }
    }
  }
  throw_if_cancelled();

  totals_.profiles_examined += profiles_examined_;
  totals_.profiles_pruned += profiles_pruned_;
  totals_.lp_iterations += lp_iterations_;
  totals_.phase1_skips += phase1_skips_;
  totals_.basis_warm_hits += basis_warm_hits_;
  totals_.sparse_price_skips += sparse_price_skips_;
  server_shadow_prices_ = best.server_shadow_prices;
  if (server_shadow_prices_.empty()) {
    server_shadow_prices_.assign(topo.num_datacenters(), 0.0);
  }
  check::maybe_check_plan(topo, input, best.plan, "OptimizedPolicy");
  return std::move(best.plan);
}

std::unique_ptr<Policy> OptimizedPolicy::degraded() const {
  Options opt = options_;
  // A small enumeration budget keeps the local-search path (restart
  // count 1) in play for large profile spaces, and the pivot budget
  // bounds every individual LP; budget-exhausted profiles fall back to
  // the always-feasible all-off plan instead of throwing.
  opt.max_enumerated_profiles = 1u << 10;
  opt.local_search_restarts = 1;
  opt.lp_max_iterations = 2000;
  // The fallback rung must be allowed to finish even while the watchdog
  // is cancelling the full solve: the pivot budget above already bounds
  // its runtime, so the token is dropped rather than inherited.
  opt.cancel = nullptr;
  return std::make_unique<OptimizedPolicy>(opt);
}

}  // namespace palb
