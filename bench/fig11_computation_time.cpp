// Figure 11 reproduction (§VII-B4): computation time of one control-slot
// solve as the number of servers per data center grows (Google-study
// topology, randomly generated arrivals, 5 runs averaged — matching the
// paper's setup). The paper reports exponentially increasing times for
// its CPLEX/AIMMS big-M MINLP; here the per-server big-M NLP formulation
// shows the same steep growth, while the profile-enumeration LP path
// stays nearly flat — and a second sweep over data-center count shows
// the enumeration's own exponential frontier (profiles = (levels+1)^(K*L)).
// A third sweep goes beyond the paper: 10-50 data centers x up to 100
// front-ends, timing one anchor dispatch LP per shape through the dense
// and the sparse pivot kernel of the simplex.

#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/bigm_nlp_policy.hpp"
#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "market/price_library.hpp"
#include "solver/simplex.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

using namespace palb;

namespace {

double time_one(Policy& policy, const Topology& topo,
                const SlotInput& input) {
  const auto start = std::chrono::steady_clock::now();
  (void)policy.plan_slot(topo, input);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main() {
  std::printf("Fig. 11 — computation times of different server sets\n\n");

  // Sweep 1: servers per data center (the paper's x-axis), 5 runs each
  // with randomly generated request volumes.
  TextTable t({"servers/DC", "BigM-NLP ms (paper path)",
               "enum-LP ms (ours)", "NLP inner iters"});
  Rng rng(2013);
  for (int servers : {2, 4, 6, 8, 10}) {
    double nlp_ms = 0.0, lp_ms = 0.0;
    int iters = 0;
    for (int run = 0; run < 5; ++run) {
      const Scenario sc = paper::google_study(
          100 + static_cast<std::uint64_t>(run), 1.0,
          rng.uniform(0.6, 1.4), servers);
      const SlotInput input = sc.slot_input(static_cast<std::size_t>(run));
      BigMNlpPolicy::Options opt;
      opt.multistarts = 2;
      opt.nlp.max_outer = 12;
      opt.nlp.max_inner = 100;
      BigMNlpPolicy nlp(opt);
      OptimizedPolicy enumerator;
      nlp_ms += time_one(nlp, sc.topology, input);
      lp_ms += time_one(enumerator, sc.topology, input);
      iters += nlp.inner_iterations();
    }
    t.add_row({std::to_string(servers), format_double(nlp_ms / 5.0, 1),
               format_double(lp_ms / 5.0, 1), std::to_string(iters / 5)});
  }
  std::printf("%s\n", t.render().c_str());

  // Sweep 2: the enumeration path's own combinatorial frontier — profile
  // count is (levels+1)^(K*L), so time grows exponentially in the number
  // of data centers.
  TextTable t2({"data centers", "profiles", "enum-LP ms"});
  for (std::size_t L = 2; L <= 5; ++L) {
    Topology topo;
    topo.classes = {
        {"a", StepTuf({0.012, 0.006}, {0.05, 0.15}), 1e-6},
        {"b", StepTuf({0.018, 0.009}, {0.04, 0.12}), 1e-6},
    };
    topo.frontends = {{"fe"}};
    for (std::size_t l = 0; l < L; ++l) {
      topo.datacenters.push_back({"dc" + std::to_string(l), 6, 1.0,
                                  {110.0, 120.0}, {0.002, 0.003}, 1.0});
    }
    topo.distance_miles = {std::vector<double>(L, 800.0)};
    SlotInput input;
    input.arrival_rate = {{300.0}, {300.0}};
    input.price.assign(L, 0.05);
    input.slot_seconds = 3600.0;

    OptimizedPolicy enumerator;
    const double ms = time_one(enumerator, topo, input);
    t2.add_row({std::to_string(L),
                std::to_string(enumerator.profiles_examined()),
                format_double(ms, 1)});
  }
  std::printf("%s", t2.render().c_str());
  std::printf(
      "\npaper: computation time increased exponentially with the server "
      "sets; both combinatorial frontiers above reproduce that trend.\n");

  // Sweep 3 (beyond paper): one anchor dispatch LP per fleet shape,
  // solved by both pivot kernels. This is the per-profile LP the
  // optimizer solves by the hundreds, at fleet sizes the paper never
  // reaches.
  std::printf("\nbeyond paper — anchor LP solve time by fleet shape "
              "(3 classes)\n\n");
  TextTable t3({"FE x DC", "vars", "dense ms", "sparse ms"});
  Rng rng3(3131);
  SimplexSolver::Options dense_opt;
  dense_opt.sparse_pivoting = false;
  const SimplexSolver dense(dense_opt);
  const SimplexSolver sparse;  // sparse_pivoting defaults on
  for (const auto& [fes, dcs] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {20, 10}, {100, 10}, {20, 20}, {100, 20}, {20, 30},
           {100, 30}, {20, 50}, {100, 50}}) {
    const Topology topo = bench::scale_topology(3, fes, dcs, rng3);
    const SlotInput input = bench::scale_input(3, fes, dcs, rng3);
    const LinearProgram lp = bench::anchor_dispatch_lp(topo, input);
    (void)lp.column_view();

    auto t0 = std::chrono::steady_clock::now();
    (void)dense.solve(lp);
    const double dense_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    t0 = std::chrono::steady_clock::now();
    (void)sparse.solve(lp);
    const double sparse_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    t3.add_row({std::to_string(fes) + " x " + std::to_string(dcs),
                std::to_string(lp.num_variables()),
                format_double(dense_ms, 1), format_double(sparse_ms, 1)});
  }
  std::printf("%s", t3.render().c_str());
  std::printf(
      "\nReading: the dense tableau scales with vars x rows per pivot, "
      "so the\n100-front-end rows pull away; the sparse kernel walks only "
      "each pivot\nrow's nonzeros and returns the same pivots and "
      "points bit for bit.\n");
  return 0;
}
