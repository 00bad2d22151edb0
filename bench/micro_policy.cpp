// google-benchmark microbenchmarks for the control-plane hot path: one
// slot solve of each policy on the paper's scenarios, plus plan
// evaluation (the accounting pass).

#include <benchmark/benchmark.h>

#include "cloud/accounting.hpp"
#include "core/balanced_policy.hpp"
#include "core/bigm_nlp_policy.hpp"
#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"

namespace {

using namespace palb;

void BM_BalancedSlot_WorldCup(benchmark::State& state) {
  const Scenario sc = paper::worldcup_study();
  const SlotInput input = sc.slot_input(12);
  BalancedPolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.plan_slot(sc.topology, input));
  }
}
BENCHMARK(BM_BalancedSlot_WorldCup);

void BM_OptimizedSlot_WorldCup(benchmark::State& state) {
  const Scenario sc = paper::worldcup_study();
  const SlotInput input = sc.slot_input(12);
  OptimizedPolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.plan_slot(sc.topology, input));
  }
}
BENCHMARK(BM_OptimizedSlot_WorldCup);

void BM_OptimizedSlot_Google(benchmark::State& state) {
  const Scenario sc = paper::google_study();
  const SlotInput input = sc.slot_input(2);
  OptimizedPolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.plan_slot(sc.topology, input));
  }
}
BENCHMARK(BM_OptimizedSlot_Google);

void BM_BigMNlpSlot_Google(benchmark::State& state) {
  const Scenario sc = paper::google_study();
  const SlotInput input = sc.slot_input(2);
  BigMNlpPolicy::Options opt;
  opt.multistarts = 1;
  opt.nlp.max_outer = 8;
  opt.nlp.max_inner = 60;
  BigMNlpPolicy policy(opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.plan_slot(sc.topology, input));
  }
}
BENCHMARK(BM_BigMNlpSlot_Google);

void BM_EvaluatePlan(benchmark::State& state) {
  const Scenario sc = paper::worldcup_study();
  const SlotInput input = sc.slot_input(12);
  OptimizedPolicy policy;
  const DispatchPlan plan = policy.plan_slot(sc.topology, input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_plan(sc.topology, input, plan));
  }
}
BENCHMARK(BM_EvaluatePlan);

}  // namespace
