// google-benchmark microbenchmarks for the in-house solver substrate:
// simplex throughput vs problem size, MILP branch-and-bound on
// knapsacks, augmented-Lagrangian NLP convergence cost, and the big-M
// constraint-system evaluation hot path.
//
// Besides the benchmark registry this binary carries the CI pivot
// regression gate (custom main, see below):
//
//   micro_solver --check-pivots tools/fixtures/pivot_baseline.json
//   micro_solver --write-pivots tools/fixtures/pivot_baseline.json
//
// The check mode plans the deterministic fig06 (worldcup) scenario
// serially, compares the total simplex pivot count against the
// checked-in baseline (>10% growth fails), and holds three more
// fixtures to the same 10% headroom, each count pointed the way it
// regresses: a local-search fleet and a 16-DC scale policy (profiles
// examined and pivots may not grow, profiles pruned may not shrink) and
// the 8-class x 32-front-end x 16-DC anchor LP (pivots may not grow,
// sparse-kernel skips may not shrink). The scale policy is planned on
// two fresh instances whose counts must match exactly. Last, it
// micro-asserts that dense LP *construction* stays sub-dominant to
// solving (the add_term path regressing to quadratic once cost more
// than the solves it fed).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/controller.hpp"
#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "core/scenario_gen.hpp"
#include "solver/milp.hpp"
#include "solver/nlp.hpp"
#include "solver/simplex.hpp"
#include "solver/step_tuf_bigm.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace palb;

LinearProgram random_lp(int vars, int rows, std::uint64_t seed) {
  Rng rng(seed);
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  for (int j = 0; j < vars; ++j) {
    lp.add_variable(0.0, rng.uniform(0.5, 4.0), rng.uniform(-1.0, 3.0));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < vars; ++j) terms.emplace_back(j, rng.uniform(0.0, 2.0));
    lp.add_constraint(terms, Relation::kLe, rng.uniform(2.0, 8.0));
  }
  return lp;
}

void BM_SimplexSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const LinearProgram lp = random_lp(n, n, 42);
  const SimplexSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(lp));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SimplexSolve)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void BM_MilpKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  std::vector<int> ints;
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < n; ++i) {
    const int v = lp.add_variable(0.0, 1.0, rng.uniform(1.0, 10.0));
    ints.push_back(v);
    row.emplace_back(v, rng.uniform(1.0, 6.0));
  }
  lp.add_constraint(row, Relation::kLe, static_cast<double>(n));
  const MilpSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(lp, ints));
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(6)->Arg(10)->Arg(14);

void BM_AugLagCircle(benchmark::State& state) {
  NlpProblem p;
  p.dimension = 2;
  p.lower = {-2.0, -2.0};
  p.upper = {2.0, 2.0};
  p.objective = [](const std::vector<double>& x) { return -(x[0] + x[1]); };
  p.inequalities.push_back([](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1] - 1.0;
  });
  const AugLagSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p, {0.0, 0.0}));
  }
}
BENCHMARK(BM_AugLagCircle);

void BM_BigMConstraintEval(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> utilities, deadlines;
  for (std::size_t q = 0; q < n; ++q) {
    utilities.push_back(static_cast<double>(10 * (n - q)));
    deadlines.push_back(static_cast<double>(q + 1));
  }
  const StepTufBigM bigm(utilities, deadlines);
  double delay = 0.1;
  for (auto _ : state) {
    delay = delay < static_cast<double>(n) ? delay + 0.07 : 0.1;
    benchmark::DoNotOptimize(bigm.admitted_level(delay));
  }
}
BENCHMARK(BM_BigMConstraintEval)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------------
// Pivot regression gate (CI bench-smoke job; not part of the benchmark
// registry and deliberately not a ctest — timings and counters belong in
// the perf lane, not the correctness lane).

constexpr const char* kPivotSchema = "palb-pivot-baseline-v1";
constexpr double kPivotHeadroom = 0.10;  // fail past +10% vs baseline

struct PivotCounts {
  std::uint64_t simplex_pivots = 0;
  std::uint64_t phase1_skips = 0;
  std::uint64_t basis_warm_hits = 0;
  std::uint64_t profiles_examined = 0;
  std::uint64_t sparse_price_skips = 0;
};

struct SearchCounts {
  std::uint64_t profiles_examined = 0;
  std::uint64_t profiles_pruned = 0;
  std::uint64_t simplex_pivots = 0;
  bool operator==(const SearchCounts&) const = default;
};

struct AnchorCounts {
  std::uint64_t simplex_pivots = 0;
  std::uint64_t sparse_price_skips = 0;
};

// Plans the fig06 worldcup study (24 slots) serially with the default
// OptimizedPolicy and returns the run's solver counters. Every count is
// deterministic: the pivot path of each LP depends only on (topology,
// input, profile) — see SimplexSolver and OptimizedPolicy docs — so the
// baseline can be an exact machine-independent number and the headroom
// exists only to absorb deliberate algorithm tweaks.
PivotCounts measure_fig06_pivots() {
  const Scenario scenario = paper::worldcup_study();
  SlotController controller(scenario);
  OptimizedPolicy policy;
  const RunResult run = controller.run(policy, 24);
  PivotCounts c;
  c.simplex_pivots = run.stats.lp_iterations;
  c.phase1_skips = run.stats.phase1_skips;
  c.basis_warm_hits = run.stats.basis_warm_hits;
  c.profiles_examined = run.stats.profiles_examined;
  c.sparse_price_skips = run.stats.sparse_price_skips;
  return c;
}

// Local-search fixture: a generated 2-class x 8-front-end x 12-DC fleet
// with up to 3 TUF levels (at least 2^24 profiles, far past
// enumeration; with every cell on, a profile LP has 192 routing arcs),
// planned serially for 8 slots.
// The search is serial and first-improvement and every LP's pivot path
// is deterministic, so its counts are exact machine-independent numbers.
constexpr std::size_t kLocalSearchSlots = 8;

SearchCounts measure_local_search() {
  scenario_gen::Options shape;
  shape.min_classes = shape.max_classes = 2;
  shape.min_frontends = shape.max_frontends = 8;
  shape.min_datacenters = shape.max_datacenters = 12;
  shape.max_tuf_levels = 3;
  shape.zero_rate_probability = 0.0;
  shape.slots = kLocalSearchSlots;
  SlotController controller(scenario_gen::generate(9, shape));
  OptimizedPolicy policy;
  const RunResult run = controller.run(policy, kLocalSearchSlots);
  SearchCounts c;
  c.profiles_examined = run.stats.profiles_examined;
  c.profiles_pruned = run.stats.profiles_pruned;
  c.simplex_pivots = run.stats.lp_iterations;
  return c;
}

// Scale fixture: the 3-class x 6-front-end x 16-DC fleet (Rng 9090)
// whose every-cell-on profile LP has 288 routing arcs, planned for one
// slot by local search with one restart. Deterministic like the
// local-search fixture, so two fresh policies must count alike.
SearchCounts measure_scale_policy() {
  Rng rng(9090);
  const Topology topo = bench::scale_topology(3, 6, 16, rng);
  const SlotInput input = bench::scale_input(3, 6, 16, rng);
  OptimizedPolicy::Options opt;
  opt.local_search_restarts = 1;
  OptimizedPolicy policy(opt);
  (void)policy.plan_slot(topo, input);
  return {policy.profiles_examined(), policy.profiles_pruned(),
          policy.lp_iterations()};
}

// The ext_scale gate's 8-class x 32-front-end x 16-DC anchor LP (Rng
// 4242, 4096 variables), solved cold by the default sparse kernel.
AnchorCounts measure_anchor_lp() {
  Rng rng(4242);
  const Topology topo = bench::scale_topology(8, 32, 16, rng);
  const SlotInput input = bench::scale_input(8, 32, 16, rng);
  const LpSolution sol =
      SimplexSolver().solve(bench::anchor_dispatch_lp(topo, input));
  return {static_cast<std::uint64_t>(sol.iterations),
          sol.sparse_price_skips};
}

// One exact fixture counter held against its baseline key, pointed the
// way it regresses.
struct Gate {
  const char* key;
  std::uint64_t measured;
  bool higher_is_worse;
};

std::vector<Gate> fixture_gates(const SearchCounts& local,
                                const SearchCounts& scale,
                                const AnchorCounts& anchor) {
  return {
      {"local_search_profiles_examined", local.profiles_examined, true},
      {"local_search_profiles_pruned", local.profiles_pruned, false},
      {"local_search_simplex_pivots", local.simplex_pivots, true},
      {"scale_profiles_examined", scale.profiles_examined, true},
      {"scale_profiles_pruned", scale.profiles_pruned, false},
      {"scale_simplex_pivots", scale.simplex_pivots, true},
      {"anchor_simplex_pivots", anchor.simplex_pivots, true},
      {"anchor_sparse_price_skips", anchor.sparse_price_skips, false},
  };
}

// Dense-model construction must stay sub-dominant to solving. The bound
// is generous (the O(n^2) add_term this guards against took seconds
// here), so it holds on slow CI runners without going flaky.
bool model_build_stays_subdominant() {
  using clock = std::chrono::steady_clock;
  constexpr int kTerms = 20000;
  const auto start = clock::now();
  LinearProgram lp;
  for (int j = 0; j < kTerms; ++j) lp.add_variable(0.0, 1.0, 1.0);
  const int row = lp.add_constraint(Relation::kLe, 1.0);
  for (int j = 0; j < kTerms; ++j) lp.add_term(row, j, 1.0);
  const double ms =
      std::chrono::duration<double, std::milli>(clock::now() - start)
          .count();
  const bool ok = ms < 250.0;
  std::printf("%s: %d-term dense row built in %.1f ms (budget 250 ms)\n",
              ok ? "ok" : "FAIL", kTerms, ms);
  return ok;
}

int write_pivot_baseline(const std::string& path) {
  const PivotCounts c = measure_fig06_pivots();
  Json doc = Json::object();
  doc.set("schema", Json(std::string(kPivotSchema)));
  doc.set("scenario", Json(std::string("worldcup")));
  doc.set("slots", Json(24.0));
  doc.set("simplex_pivots", Json(static_cast<double>(c.simplex_pivots)));
  doc.set("phase1_skips", Json(static_cast<double>(c.phase1_skips)));
  doc.set("basis_warm_hits", Json(static_cast<double>(c.basis_warm_hits)));
  doc.set("profiles_examined",
          Json(static_cast<double>(c.profiles_examined)));
  doc.set("sparse_price_skips",
          Json(static_cast<double>(c.sparse_price_skips)));
  for (const Gate& g : fixture_gates(measure_local_search(),
                                     measure_scale_policy(),
                                     measure_anchor_lp())) {
    doc.set(g.key, Json(static_cast<double>(g.measured)));
  }
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  os << doc.dump(2) << "\n";
  std::printf("wrote %s (simplex_pivots=%llu)\n", path.c_str(),
              static_cast<unsigned long long>(c.simplex_pivots));
  return os ? 0 : 2;
}

int check_pivot_baseline(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const Json doc = Json::parse(buf.str());
  if (doc.at("schema").as_string() != kPivotSchema) {
    std::fprintf(stderr, "unexpected schema in %s\n", path.c_str());
    return 2;
  }
  const auto baseline =
      static_cast<std::uint64_t>(doc.at("simplex_pivots").as_number());
  const PivotCounts c = measure_fig06_pivots();
  const double limit =
      static_cast<double>(baseline) * (1.0 + kPivotHeadroom);
  std::printf(
      "fig06 pivots: measured=%llu baseline=%llu limit=%.0f "
      "(phase1_skips=%llu basis_warm_hits=%llu profiles=%llu "
      "sparse_price_skips=%llu)\n",
      static_cast<unsigned long long>(c.simplex_pivots),
      static_cast<unsigned long long>(baseline), limit,
      static_cast<unsigned long long>(c.phase1_skips),
      static_cast<unsigned long long>(c.basis_warm_hits),
      static_cast<unsigned long long>(c.profiles_examined),
      static_cast<unsigned long long>(c.sparse_price_skips));
  bool ok = true;
  // The scale policy's search is deterministic: a second fresh policy
  // must count exactly what the first did (a hard failure, no headroom).
  const SearchCounts scale = measure_scale_policy();
  const SearchCounts scale_again = measure_scale_policy();
  std::printf("scale policy repeat: %s\n",
              scale == scale_again ? "identical" : "DIFFERS");
  if (scale != scale_again) {
    std::fprintf(stderr,
                 "FAIL: two fresh scale policies reported different "
                 "examined/pruned/pivot counts\n");
    ok = false;
  }
  for (const Gate& g : fixture_gates(measure_local_search(), scale,
                                     measure_anchor_lp())) {
    const double base = doc.at(g.key).as_number();
    const double measured = static_cast<double>(g.measured);
    const bool regressed =
        g.higher_is_worse ? measured > base * (1.0 + kPivotHeadroom)
                          : measured < base * (1.0 - kPivotHeadroom);
    std::printf("%s=%llu (baseline %.0f)\n", g.key,
                static_cast<unsigned long long>(g.measured), base);
    if (regressed) {
      std::fprintf(stderr,
                   "FAIL: %s regressed more than %.0f%% against the "
                   "baseline; if intentional, refresh with "
                   "--write-pivots\n",
                   g.key, 100.0 * kPivotHeadroom);
      ok = false;
    }
  }
  if (static_cast<double>(c.simplex_pivots) > limit) {
    std::fprintf(stderr,
                 "FAIL: simplex pivot count regressed more than %.0f%% "
                 "over the checked-in baseline; if intentional, refresh "
                 "with --write-pivots\n",
                 100.0 * kPivotHeadroom);
    ok = false;
  } else if (static_cast<double>(c.simplex_pivots) <
             static_cast<double>(baseline) * (1.0 - kPivotHeadroom)) {
    std::printf(
        "note: pivots improved more than %.0f%%; consider refreshing "
        "the baseline with --write-pivots\n",
        100.0 * kPivotHeadroom);
  }
  if (!model_build_stays_subdominant()) ok = false;
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

// Custom main instead of benchmark_main: peel off the pivot-gate flags,
// then hand everything else to google-benchmark unchanged.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check-pivots" || arg == "--write-pivots") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a baseline path\n", arg.c_str());
        return 2;
      }
      const std::string path = argv[i + 1];
      return arg == "--check-pivots" ? check_pivot_baseline(path)
                                     : write_pivot_baseline(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
