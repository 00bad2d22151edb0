#include "core/bigm_nlp_policy.hpp"

#include <algorithm>

#include "check/plan_checker.hpp"
#include "queueing/mm1.hpp"
#include "solver/step_tuf_bigm.hpp"
#include "units/units.hpp"
#include "util/error.hpp"

namespace palb {

namespace {

/// Index helpers over the flat decision vector. Like the paper's
/// formulation (Eq. 4-8), routing and shares are *per server*:
///
///   [ x_{k,s,(l,i)} | phi_{k,(l,i)} | U_{k,l} ]
///
/// where (l,i) enumerates every server of every data center. This is why
/// the paper's Fig. 11 computation time climbs with the server count —
/// the NLP dimension grows linearly in it (and gradient cost
/// quadratically).
struct Layout {
  std::size_t K, S, L;
  std::size_t total_servers = 0;
  std::vector<std::size_t> server_base;  ///< first server index per DC

  explicit Layout(const Topology& topo)
      : K(topo.num_classes()),
        S(topo.num_frontends()),
        L(topo.num_datacenters()) {
    server_base.reserve(L);
    for (const auto& dc : topo.datacenters) {
      server_base.push_back(total_servers);
      total_servers += static_cast<std::size_t>(dc.num_servers);
    }
  }

  std::size_t server(std::size_t l, std::size_t i) const {
    return server_base[l] + i;
  }
  std::size_t x(std::size_t k, std::size_t s, std::size_t srv) const {
    return (k * S + s) * total_servers + srv;
  }
  std::size_t phi(std::size_t k, std::size_t srv) const {
    return K * S * total_servers + k * total_servers + srv;
  }
  std::size_t u(std::size_t k, std::size_t l) const {
    return K * S * total_servers + K * total_servers + k * L + l;
  }
  std::size_t dimension() const {
    return K * S * total_servers + K * total_servers + K * L;
  }
};

double server_load(const std::vector<double>& v, const Layout& lay,
                   std::size_t k, std::size_t srv) {
  double x = 0.0;
  for (std::size_t s = 0; s < lay.S; ++s) x += v[lay.x(k, s, srv)];
  return x;
}

/// Mean sojourn on one VM; a huge smooth sentinel when (near) unstable.
double guarded_delay(double share, double capacity, double mu,
                     double load) {
  const double headroom = share * capacity * mu - load;
  if (headroom <= 1e-9) return 1e9 + std::max(0.0, -headroom) * 1e9;
  return 1.0 / headroom;
}

}  // namespace

BigMNlpPolicy::BigMNlpPolicy() : BigMNlpPolicy(Options{}) {}

BigMNlpPolicy::BigMNlpPolicy(Options options) : options_(options) {
  PALB_REQUIRE(options_.multistarts >= 1, "need at least one start");
}

DispatchPlan BigMNlpPolicy::plan_slot(const Topology& topo,
                                      const SlotInput& input) {
  topo.validate();
  input.validate(topo);
  const std::size_t K = topo.num_classes();
  const std::size_t S = topo.num_frontends();
  const std::size_t L = topo.num_datacenters();
  const double T = input.slot_seconds;
  const Layout lay(topo);

  // One big-M constraint system per class (Eq. 17 is per class).
  std::vector<StepTufBigM> bigm;
  bigm.reserve(K);
  for (std::size_t k = 0; k < K; ++k) {
    bigm.emplace_back(topo.classes[k].tuf.utilities(),
                      topo.classes[k].tuf.sub_deadlines(), options_.big_m,
                      options_.delta);
  }

  NlpProblem problem;
  problem.dimension = lay.dimension();
  problem.lower.assign(problem.dimension, 0.0);
  problem.upper.assign(problem.dimension, 0.0);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < S; ++s) {
      for (std::size_t srv = 0; srv < lay.total_servers; ++srv) {
        problem.upper[lay.x(k, s, srv)] = input.arrival_rate[k][s];
      }
    }
    for (std::size_t srv = 0; srv < lay.total_servers; ++srv) {
      problem.upper[lay.phi(k, srv)] = 1.0;
    }
    for (std::size_t l = 0; l < L; ++l) {
      problem.upper[lay.u(k, l)] = topo.classes[k].tuf.max_utility();
    }
  }

  // Objective (Eq. 5, negated to minimize): per-server flows earn the
  // class-DC utility variable minus slot-constant energy and wire rates.
  problem.objective = [&topo, &input, lay, T, K, S,
                       L](const std::vector<double>& v) {
    double profit = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      const auto& cls = topo.classes[k];
      for (std::size_t l = 0; l < L; ++l) {
        const auto& dc = topo.datacenters[l];
        // kWh/req * $/kWh -> $/req; the wire term is $/req-mile * miles.
        // .value() feeds the raw NLP decision vector (solver seam).
        const units::DollarsPerReq energy =
            dc.energy_per_request(k) * input.price_at(l) * dc.pue;
        const double u = v[lay.u(k, l)];
        for (std::size_t s = 0; s < S; ++s) {
          const units::DollarsPerReq wire =
              cls.transfer_cost() * topo.distance(s, l);
          double flow = 0.0;
          for (int i = 0; i < dc.num_servers; ++i) {
            flow += v[lay.x(k, s, lay.server(l, static_cast<std::size_t>(i)))];
          }
          // Served flow earns its utility and avoids its drop penalty.
          profit += (u + cls.drop_penalty_per_request - energy.value() -
                     wire.value()) *
                    flow;
        }
      }
    }
    return -profit * T;
  };

  // Flow conservation per (class, front-end) (Eq. 7).
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < S; ++s) {
      problem.inequalities.push_back(
          [&input, lay, k, s](const std::vector<double>& v) {
            double sum = 0.0;
            for (std::size_t srv = 0; srv < lay.total_servers; ++srv) {
              sum += v[lay.x(k, s, srv)];
            }
            return sum - input.arrival_rate[k][s];
          });
    }
  }
  // CPU budget per server (Eq. 8).
  for (std::size_t srv = 0; srv < lay.total_servers; ++srv) {
    problem.inequalities.push_back(
        [lay, srv, K](const std::vector<double>& v) {
          double sum = 0.0;
          for (std::size_t k = 0; k < K; ++k) sum += v[lay.phi(k, srv)];
          return sum - 1.0;
        });
  }
  // Final-deadline QoS (Eq. 6) and the big-M band system (Eqs. 11-13/17)
  // per (class, server); both load-scaled so idle VMs impose nothing.
  for (std::size_t k = 0; k < K; ++k) {
    const double final_deadline = topo.classes[k].tuf.final_deadline();
    const bool multi_level = topo.classes[k].tuf.levels() >= 2;
    for (std::size_t l = 0; l < L; ++l) {
      const auto& dc = topo.datacenters[l];
      for (int i = 0; i < dc.num_servers; ++i) {
        const std::size_t srv = lay.server(l, static_cast<std::size_t>(i));
        problem.inequalities.push_back(
            [lay, k, srv, final_deadline, capacity = dc.server_capacity,
             mu = dc.service_rate[k]](const std::vector<double>& v) {
              const double load = server_load(v, lay, k, srv);
              if (load <= 0.0) return -1.0;
              const double delay =
                  guarded_delay(v[lay.phi(k, srv)], capacity, mu, load);
              return load * (delay - final_deadline);
            });
        if (!multi_level) continue;  // one level: the paper's LP case
        for (std::size_t j = 0; j < bigm[k].num_constraints(); ++j) {
          problem.inequalities.push_back(
              [lay, k, l, srv, j, capacity = dc.server_capacity,
               mu = dc.service_rate[k], &bigm](const std::vector<double>& v) {
                const double load = server_load(v, lay, k, srv);
                if (load <= 0.0) return -1.0;
                const double delay =
                    guarded_delay(v[lay.phi(k, srv)], capacity, mu, load);
                // Load-scaled and big_m-normalized to keep penalties sane.
                return load *
                       bigm[k].constraint_value(j, delay, v[lay.u(k, l)]) /
                       bigm[k].big_m();
              });
        }
      }
    }
  }

  // Starting point: even spread across servers, even shares, top levels.
  std::vector<double> x0(problem.dimension, 0.0);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < S; ++s) {
      for (std::size_t srv = 0; srv < lay.total_servers; ++srv) {
        x0[lay.x(k, s, srv)] =
            input.arrival_rate[k][s] /
            static_cast<double>(2 * lay.total_servers);
      }
    }
    for (std::size_t srv = 0; srv < lay.total_servers; ++srv) {
      x0[lay.phi(k, srv)] = 1.0 / static_cast<double>(K);
    }
    for (std::size_t l = 0; l < L; ++l) {
      x0[lay.u(k, l)] = topo.classes[k].tuf.max_utility();
    }
  }

  const AugLagSolver solver(options_.nlp);
  const NlpResult result = solver.solve_multistart(
      problem, x0, options_.multistarts, Rng(options_.seed));
  inner_iterations_ = result.inner_iterations;
  totals_.nlp_iterations += static_cast<std::uint64_t>(
      std::max(0, result.inner_iterations));

  // ---- Realize (collapse servers back to the homogeneous-DC plan) and
  // ---- sanitize the near-optimal NLP point into a strictly valid plan.
  DispatchPlan plan = DispatchPlan::zero(topo);
  const std::vector<double>& v = result.x;
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < S; ++s) {
      // Clamp any solver tolerance overshoot back inside Eq. 7.
      double sum = 0.0;
      for (std::size_t srv = 0; srv < lay.total_servers; ++srv) {
        sum += v[lay.x(k, s, srv)];
      }
      const double cap = input.arrival_rate[k][s];
      const double scale = sum > cap && sum > 0.0 ? cap / sum : 1.0;
      for (std::size_t l = 0; l < L; ++l) {
        const auto& dc = topo.datacenters[l];
        double flow = 0.0;
        for (int i = 0; i < dc.num_servers; ++i) {
          flow += v[lay.x(k, s, lay.server(l, static_cast<std::size_t>(i)))];
        }
        flow *= scale;
        plan.rate[k][s][l] = flow > 1e-9 ? flow : 0.0;
      }
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    const auto& dc = topo.datacenters[l];
    const auto servers = static_cast<std::size_t>(dc.num_servers);
    double share_sum = 0.0;
    bool any_load = false;
    for (std::size_t k = 0; k < K; ++k) {
      double mean_share = 0.0;
      for (std::size_t i = 0; i < servers; ++i) {
        mean_share += v[lay.phi(k, lay.server(l, i))];
      }
      mean_share /= static_cast<double>(servers);
      plan.dc[l].share[k] = std::clamp(mean_share, 0.0, 1.0);
      share_sum += plan.dc[l].share[k];
      if (plan.class_dc_rate(k, l) > 0.0) any_load = true;
    }
    if (share_sum > 1.0) {
      for (std::size_t k = 0; k < K; ++k) plan.dc[l].share[k] /= share_sum;
    }
    plan.dc[l].servers_on = any_load ? dc.num_servers : 0;
    // Drop flow the realized allocation cannot serve stably within the
    // final deadline — the NLP is only near-optimal and may leave dregs.
    for (std::size_t k = 0; k < K; ++k) {
      const double load = plan.class_dc_rate(k, l);
      if (load <= 0.0) continue;
      if (plan.dc[l].share[k] <= 0.0) {
        for (std::size_t s = 0; s < S; ++s) plan.rate[k][s][l] = 0.0;
        continue;
      }
      // Shares were clamped/renormalized into [0, 1] above, so the typed
      // queue inversion applies.
      const double max_ok =
          mm1::max_rate(units::CpuShare{plan.dc[l].share[k]},
                        dc.server_capacity, dc.service_rate_of(k),
                        topo.classes[k].tuf.deadline() * (1.0 - 1e-9))
              .value();
      const double budget = max_ok * static_cast<double>(dc.num_servers);
      if (load > budget) {
        const double scale = budget > 0.0 ? budget / load : 0.0;
        for (std::size_t s = 0; s < S; ++s) plan.rate[k][s][l] *= scale;
      }
    }
    bool still_loaded = false;
    for (std::size_t k = 0; k < K; ++k) {
      if (plan.class_dc_rate(k, l) > 1e-9) still_loaded = true;
    }
    if (!still_loaded) plan.dc[l].servers_on = 0;
  }
  check::maybe_check_plan(topo, input, plan, "BigMNlpPolicy");
  return plan;
}

}  // namespace palb
