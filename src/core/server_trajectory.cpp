#include "core/server_trajectory.hpp"

#include <cmath>

#include "solver/simplex.hpp"
#include "util/error.hpp"

namespace palb {

TrajectoryResult optimal_server_trajectory(
    const std::vector<int>& needed,
    const std::vector<double>& idle_cost_per_slot, double switch_cost,
    int max_servers, int initial_on) {
  const std::size_t T = needed.size();
  PALB_REQUIRE(T > 0, "trajectory needs at least one slot");
  PALB_REQUIRE(idle_cost_per_slot.size() == T,
               "one idle cost per slot required");
  PALB_REQUIRE(switch_cost >= 0.0, "switch cost must be >= 0");
  PALB_REQUIRE(max_servers >= 0, "max_servers must be >= 0");
  PALB_REQUIRE(initial_on >= 0 && initial_on <= max_servers,
               "initial_on out of range");
  for (std::size_t t = 0; t < T; ++t) {
    PALB_REQUIRE(needed[t] >= 0 && needed[t] <= max_servers,
                 "needed servers out of range at slot " + std::to_string(t));
    PALB_REQUIRE(idle_cost_per_slot[t] >= 0.0,
                 "idle costs must be >= 0");
  }

  // Variables: m_t in [needed_t, max]; u_t, d_t >= 0 with
  //   m_t - m_{t-1} = u_t - d_t   (m_{-1} = initial_on).
  LinearProgram lp;
  std::vector<int> m(T), up(T), down(T);
  for (std::size_t t = 0; t < T; ++t) {
    m[t] = lp.add_variable(static_cast<double>(needed[t]),
                           static_cast<double>(max_servers),
                           idle_cost_per_slot[t]);
    up[t] = lp.add_variable(0.0, kInfinity, switch_cost);
    down[t] = lp.add_variable(0.0, kInfinity, switch_cost);
  }
  for (std::size_t t = 0; t < T; ++t) {
    std::vector<std::pair<int, double>> terms{{m[t], 1.0},
                                              {up[t], -1.0},
                                              {down[t], 1.0}};
    double rhs = 0.0;
    if (t == 0) {
      rhs = static_cast<double>(initial_on);
    } else {
      terms.emplace_back(m[t - 1], -1.0);
    }
    lp.add_constraint(terms, Relation::kEq, rhs);
  }

  const LpSolution sol = SimplexSolver().solve(lp);
  PALB_REQUIRE(sol.status == LpStatus::kOptimal,
               "trajectory LP failed to solve");

  TrajectoryResult out;
  out.servers.resize(T);
  int prev = initial_on;
  for (std::size_t t = 0; t < T; ++t) {
    // Total unimodularity makes the optimum integral up to FP noise.
    const int count =
        static_cast<int>(std::lround(sol.x[static_cast<std::size_t>(m[t])]));
    PALB_REQUIRE(
        std::abs(sol.x[static_cast<std::size_t>(m[t])] -
                 static_cast<double>(count)) < 1e-6,
        "trajectory LP returned a non-integral optimum");
    out.servers[t] = count;
    out.idle_cost += idle_cost_per_slot[t] * static_cast<double>(count);
    out.switch_cost +=
        switch_cost * static_cast<double>(std::abs(count - prev));
    prev = count;
  }
  return out;
}

}  // namespace palb
