// Extension bench: beyond paper scale. The paper's largest instance is
// 3 classes x 3 data centers; here the fleet grows to 8 data centers and
// 5 request classes with 3-level TUFs — a profile space of 4^40 ~ 1e24,
// far past exhaustive enumeration — exercising the optimizer's
// local-search path. Reports profit vs the baselines and the planning
// cost per slot.
//
// A second mode carries the CI solver scale gate:
//
//   ext_scale --gate BENCH_palb.json [--min-speedup X]
//
// It solves two anchor dispatch LPs (every cell at its last band: the
// largest per-profile LP a topology produces) cold with the dense and
// the sparse pivot kernel: 8 classes x 32 front-ends x 16 DCs (4096
// variables) and 3 classes x 100 front-ends x 50 DCs (15000
// variables). On both, the kernels must reach optimal with bitwise-equal
// x, objective and iteration count. On the 100-front-end LP, where the
// sparse kernel earns its keep, its best-of-3 time must also beat the
// dense kernel's by at least X (default 1.2). Results merge into the
// palb-bench-v1 report as the "ext_scale" section (palb-ext-scale-v2).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "cloud/accounting.hpp"
#include "core/balanced_policy.hpp"
#include "core/optimized_policy.hpp"
#include "core/simple_policies.hpp"
#include "solver/simplex.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace palb;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One anchor LP raced through both pivot kernels.
struct KernelRace {
  std::size_t classes = 0, frontends = 0, dcs = 0;
  int variables = 0, rows = 0;
  double dense_ms = 1e300, sparse_ms = 1e300;  ///< best of the reps
  int iterations = 0;
  std::uint64_t sparse_price_skips = 0;
  /// Both optimal, with bitwise-equal x, objective and iterations.
  bool identical = false;

  double speedup() const {
    return sparse_ms > 0.0 ? dense_ms / sparse_ms : 0.0;
  }
};

KernelRace race_kernels(std::size_t classes, std::size_t frontends,
                        std::size_t dcs, std::uint64_t seed) {
  Rng rng(seed);
  const Topology topo = bench::scale_topology(classes, frontends, dcs, rng);
  const SlotInput input = bench::scale_input(classes, frontends, dcs, rng);
  const LinearProgram lp = bench::anchor_dispatch_lp(topo, input);
  (void)lp.column_view();  // both arms start from a materialized matrix

  SimplexSolver::Options dense_opt;
  dense_opt.sparse_pivoting = false;
  const SimplexSolver dense(dense_opt);
  const SimplexSolver sparse;  // sparse_pivoting defaults on

  KernelRace r;
  r.classes = classes;
  r.frontends = frontends;
  r.dcs = dcs;
  r.variables = lp.num_variables();
  r.rows = lp.num_constraints();
  // Best-of-3 per arm: the gate compares kernels, not scheduler noise.
  LpSolution d, s;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    d = dense.solve(lp);
    r.dense_ms = std::min(r.dense_ms, ms_since(t0));
    t0 = std::chrono::steady_clock::now();
    s = sparse.solve(lp);
    r.sparse_ms = std::min(r.sparse_ms, ms_since(t0));
  }
  r.iterations = s.iterations;
  r.sparse_price_skips = s.sparse_price_skips;
  r.identical = d.status == LpStatus::kOptimal &&
                s.status == LpStatus::kOptimal && d.x == s.x &&
                d.objective == s.objective && d.iterations == s.iterations;
  std::printf(
      "  %zu x %zu x %zu: %d vars, %d rows | dense %.1f ms | sparse %.1f ms "
      "| speedup %.2fx | %d pivots, %llu column updates skipped | "
      "kernels %s\n",
      classes, frontends, dcs, r.variables, r.rows, r.dense_ms, r.sparse_ms,
      r.speedup(), r.iterations,
      static_cast<unsigned long long>(r.sparse_price_skips),
      r.identical ? "bitwise identical" : "DIVERGED");
  return r;
}

int run_gate(const std::string& out_path, double min_speedup) {
  std::printf("solver scale gate — anchor LPs, dense vs sparse kernel\n");
  const KernelRace races[] = {race_kernels(8, 32, 16, 4242),
                              race_kernels(3, 100, 50, 5050)};
  const KernelRace& wide = races[1];

  bool ok = true;
  Json lps = Json::array();
  for (const KernelRace& r : races) {
    if (!r.identical) {
      std::fprintf(stderr,
                   "FAIL: %zu x %zu x %zu anchor LP: the kernels did not "
                   "both reach optimal with bitwise-equal x, objective "
                   "and iterations\n",
                   r.classes, r.frontends, r.dcs);
      ok = false;
    }
    Json lp = Json::object();
    lp.set("classes", Json(r.classes));
    lp.set("frontends", Json(r.frontends));
    lp.set("datacenters", Json(r.dcs));
    lp.set("variables", Json(r.variables));
    lp.set("rows", Json(r.rows));
    lp.set("dense_ms", Json(r.dense_ms));
    lp.set("sparse_ms", Json(r.sparse_ms));
    lp.set("iterations", Json(r.iterations));
    lp.set("sparse_price_skips",
           Json(static_cast<double>(r.sparse_price_skips)));
    lp.set("kernels_identical", Json(r.identical));
    lps.push_back(std::move(lp));
  }
  std::printf("  gate: %zu-front-end sparse speedup %.2fx (gate >= %.2fx)\n",
              wide.frontends, wide.speedup(), min_speedup);
  if (wide.speedup() < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below the %.2fx gate\n",
                 wide.speedup(), min_speedup);
    ok = false;
  }

  Json section = Json::object();
  section.set("schema", Json(std::string("palb-ext-scale-v2")));
  section.set("lps", std::move(lps));
  section.set("speedup", Json(wide.speedup()));
  section.set("min_speedup", Json(min_speedup));
  section.set("pass", Json(ok));
  benchjson::write_file(
      out_path, benchjson::with_section(out_path, "ext_scale",
                                        std::move(section)));
  std::printf("%s (section \"ext_scale\" written to %s)\n",
              ok ? "PASS" : "FAIL", out_path.c_str());
  return ok ? 0 : 1;
}

int run_scale_table() {
  Rng rng(8080);
  std::printf(
      "scale bench — 6 front-ends, 12 servers/DC, 3-level TUFs; profile\n"
      "space 4^(K*L) forces the local-search path beyond paper scale\n\n");
  TextTable t({"K x L", "profiles (log10)", "Optimized $/h",
               "Balanced $/h", "CostMin $/h", "plan ms", "LPs solved"});
  for (const auto& [classes, dcs] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {3, 3}, {4, 5}, {5, 8}}) {
    const Topology topo = bench::scale_topology(classes, 6, dcs, rng);
    const SlotInput input = bench::scale_input(classes, 6, dcs, rng);

    OptimizedPolicy::Options opt_options;
    opt_options.local_search_restarts = 2;
    OptimizedPolicy optimized(opt_options);
    BalancedPolicy balanced;
    CostMinPolicy costmin;
    const auto start = std::chrono::steady_clock::now();
    const DispatchPlan plan = optimized.plan_slot(topo, input);
    const auto stop = std::chrono::steady_clock::now();

    const double opt = evaluate_plan(topo, input, plan).net_profit();
    const double bal =
        evaluate_plan(topo, input, balanced.plan_slot(topo, input))
            .net_profit();
    const double cm =
        evaluate_plan(topo, input, costmin.plan_slot(topo, input))
            .net_profit();
    const double log10_profiles =
        static_cast<double>(classes * dcs) * std::log10(4.0);
    t.add_row({std::to_string(classes) + " x " + std::to_string(dcs),
               format_double(log10_profiles, 1), format_double(opt, 2),
               format_double(bal, 2), format_double(cm, 2),
               format_double(std::chrono::duration<double, std::milli>(
                                 stop - start)
                                 .count(),
                             0),
               std::to_string(optimized.profiles_examined())});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nReading: the 3x3 row is exhaustively enumerated (the 262k-LP\n"
      "sweep the paper-scale studies afford); the larger rows switch to\n"
      "first-improvement local search, which holds planning to seconds\n"
      "per hourly slot against a 10^12-10^24-profile space and still\n"
      "clears both heuristics by 2-5x.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string gate_path;
  double min_speedup = 1.2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0 && i + 1 < argc) {
      gate_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: ext_scale [--gate <report.json> "
                   "[--min-speedup X]]\n");
      return 2;
    }
  }
  if (!gate_path.empty()) return run_gate(gate_path, min_speedup);
  return run_scale_table();
}
