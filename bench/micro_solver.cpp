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
// checked-in baseline (>10% growth fails), replays a fixed local-search
// fixture (profiles examined and pivots may not grow, profiles pruned
// may not shrink, by more than 10%), and micro-asserts that dense LP
// *construction* stays sub-dominant to solving (the add_term path
// regressing to quadratic once cost more than the solves it fed).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/controller.hpp"
#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "core/scenario_gen.hpp"
#include "solver/decomposed.hpp"
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
};

struct DecompCounts {
  std::uint64_t master_iterations = 0;
  std::uint64_t subproblem_solves = 0;
  /// Decomposed x bitwise equals the monolithic x on the fixture (the
  /// crossover contract); a hard failure, not a headroom check.
  bool identical = false;
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
// enumeration; with every cell on, a profile LP has 192 routing arcs and
// reaches the Dantzig-Wolfe threshold), planned serially for 8 slots.
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

// Canned block-angular fixture for the Dantzig-Wolfe gate: 8 flow-style
// blocks of 4 bounded variables coupled by 3 dense capacity-style rows —
// the dispatcher's profile-LP shape at a size where column generation
// does several pricing rounds. Deterministic (fixed seed), so the round
// and subproblem counts are exact machine-independent numbers.
LinearProgram decomposition_fixture() {
  Rng rng(4242);
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  constexpr int kBlocks = 8;
  constexpr int kVarsPerBlock = 4;
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<std::pair<int, double>> terms;
    for (int v = 0; v < kVarsPerBlock; ++v) {
      terms.emplace_back(
          lp.add_variable(0.0, rng.uniform(1.0, 5.0), rng.uniform(0.5, 3.0)),
          1.0);
    }
    lp.add_constraint(terms, Relation::kLe, rng.uniform(1.5, 6.0));
  }
  for (int c = 0; c < 3; ++c) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < lp.num_variables(); ++j) {
      terms.emplace_back(j, rng.uniform(0.2, 1.5));
    }
    lp.add_constraint(terms, Relation::kLe, rng.uniform(4.0, 10.0));
  }
  return lp;
}

DecompCounts measure_decomposition_fixture() {
  const LinearProgram lp = decomposition_fixture();
  const DecomposedSolver dec;
  const LpSolution sol = dec.solve(lp);
  const LpSolution mono = SimplexSolver().solve(lp);
  DecompCounts c;
  c.master_iterations =
      static_cast<std::uint64_t>(dec.stats().master_iterations);
  c.subproblem_solves =
      static_cast<std::uint64_t>(dec.stats().subproblem_solves);
  c.identical = dec.stats().decomposed &&
                sol.status == LpStatus::kOptimal &&
                mono.status == LpStatus::kOptimal && sol.x == mono.x;
  return c;
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
  const DecompCounts d = measure_decomposition_fixture();
  const SearchCounts ls = measure_local_search();
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
  doc.set("dw_master_iterations",
          Json(static_cast<double>(d.master_iterations)));
  doc.set("dw_subproblem_solves",
          Json(static_cast<double>(d.subproblem_solves)));
  doc.set("local_search_profiles_examined",
          Json(static_cast<double>(ls.profiles_examined)));
  doc.set("local_search_profiles_pruned",
          Json(static_cast<double>(ls.profiles_pruned)));
  doc.set("local_search_simplex_pivots",
          Json(static_cast<double>(ls.simplex_pivots)));
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
  // Dantzig-Wolfe gate on the canned block fixture: the crossover must
  // reproduce the monolithic point bitwise (hard), and the round /
  // subproblem counts get the same +10% headroom as the pivot count (a
  // regression here means column generation started spinning).
  {
    const DecompCounts d = measure_decomposition_fixture();
    const auto base_rounds = static_cast<std::uint64_t>(
        doc.at("dw_master_iterations").as_number());
    const auto base_subs = static_cast<std::uint64_t>(
        doc.at("dw_subproblem_solves").as_number());
    std::printf(
        "dw fixture: master_iterations=%llu (baseline %llu) "
        "subproblem_solves=%llu (baseline %llu) identical=%s\n",
        static_cast<unsigned long long>(d.master_iterations),
        static_cast<unsigned long long>(base_rounds),
        static_cast<unsigned long long>(d.subproblem_solves),
        static_cast<unsigned long long>(base_subs),
        d.identical ? "yes" : "NO");
    if (!d.identical) {
      std::fprintf(stderr,
                   "FAIL: decomposed solve no longer reproduces the "
                   "monolithic point on the fixture\n");
      ok = false;
    }
    if (static_cast<double>(d.master_iterations) >
            static_cast<double>(base_rounds) * (1.0 + kPivotHeadroom) ||
        static_cast<double>(d.subproblem_solves) >
            static_cast<double>(base_subs) * (1.0 + kPivotHeadroom)) {
      std::fprintf(stderr,
                   "FAIL: Dantzig-Wolfe effort regressed more than %.0f%% "
                   "over the baseline; if intentional, refresh with "
                   "--write-pivots\n",
                   100.0 * kPivotHeadroom);
      ok = false;
    }
  }
  // Local-search gate: the same 10% headroom, pointed the way each
  // count regresses — examined profiles and pivots grow, pruned
  // profiles shrink when the neighbor prune stops firing.
  {
    const SearchCounts ls = measure_local_search();
    struct Gate {
      const char* key;
      std::uint64_t measured;
      bool higher_is_worse;
    };
    const Gate gates[] = {
        {"local_search_profiles_examined", ls.profiles_examined, true},
        {"local_search_profiles_pruned", ls.profiles_pruned, false},
        {"local_search_simplex_pivots", ls.simplex_pivots, true},
    };
    for (const Gate& g : gates) {
      const double base = doc.at(g.key).as_number();
      const double measured = static_cast<double>(g.measured);
      const bool regressed =
          g.higher_is_worse ? measured > base * (1.0 + kPivotHeadroom)
                            : measured < base * (1.0 - kPivotHeadroom);
      std::printf("local search: %s=%llu (baseline %.0f)\n", g.key,
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
