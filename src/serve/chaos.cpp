#include "serve/chaos.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/plan_handle.hpp"
#include "fault/resilient_controller.hpp"
#include "serve/admission.hpp"
#include "serve/dispatcher.hpp"
#include "serve/load_driver.hpp"
#include "util/error.hpp"

namespace palb::serve {

namespace {

double total_offered(const SlotInput& input) {
  double total = 0.0;
  for (const std::vector<double>& row : input.arrival_rate) {
    for (const double rate : row) total += rate;
  }
  return total;
}

}  // namespace

ChaosReport run_chaos(const Scenario& scenario, const FaultSchedule& schedule,
                      Policy& policy, const ChaosOptions& options) {
  PALB_REQUIRE(options.num_slots > 0, "chaos run needs at least one slot");

  // ---- Slow path: one ResilientController pass with a live handle, so
  // live_slots records which plan the fast path would have served after
  // every slot (including publish-delay suppressions and TTL forces).
  ResilientController controller(scenario, schedule);
  ResilientController::Options run_options;
  run_options.workers = options.solve_workers;
  run_options.stale_plan_ttl_slots = options.stale_plan_ttl_slots;
  PlanHandle solve_live;
  run_options.live = &solve_live;
  const RunResult run =
      controller.run(policy, options.num_slots, 0, run_options);

  ChaosReport report;
  report.slots = options.num_slots;
  report.faulted_slots = run.faulted_slots;
  report.stalled_solves = run.stalled_solves;
  report.delayed_publishes = run.delayed_publishes;
  report.ttl_escalations = run.ttl_escalations;
  report.fallback_rungs = run.fallback_rungs;

  // ---- Fast path: per-slot replay. Each slot republishes the plan
  // that was live after it and admission-controls the slot's *faulted*
  // offered mix — so a demand surge overloads admission exactly as it
  // would have overloaded the real front-ends, against whatever
  // (possibly stale) plan the slow path had managed to publish.
  PlanHandle replay_live;
  Dispatcher dispatcher(scenario.topology, replay_live);
  AdmissionController admission(scenario.topology, replay_live,
                                scenario.slot_input(0));
  double stale_sum = 0.0;
  for (std::size_t t = 0; t < options.num_slots; ++t) {
    const FaultedSlot world = schedule.materialize(scenario, t);
    const std::int64_t live_index = run.live_slots[t];
    if (live_index >= 0) {
      // Re-publishes a plan the ResilientController pass above already
      // ran through the checker's audit/repair path; the replay must
      // serve those bytes verbatim.
      // palb-lint: allow(P2) replaying already-audited plans verbatim
      replay_live.publish(run.plans[static_cast<std::size_t>(live_index)]);
      const std::size_t stale =
          t - static_cast<std::size_t>(live_index);
      report.max_stale_slots = std::max(report.max_stale_slots, stale);
      stale_sum += static_cast<double>(stale);
    }
    admission.set_offered(world.input);

    if (total_offered(world.input) <= 0.0) continue;  // nothing arrives
    const RequestStream stream = RequestStream::compile(
        scenario.topology, world.input, options.stream_seed ^ t);

    QpsOptions qps;
    qps.total_requests = options.requests_per_slot;
    qps.record_decisions = true;
    qps.admission = &admission;
    std::vector<std::uint64_t> baseline;
    for (std::size_t i = 0; i < kChaosThreadCounts.size(); ++i) {
      qps.threads = kChaosThreadCounts[i];
      const QpsReport replay = run_qps(dispatcher, stream, qps);
      report.stalled_routes += replay.dispatcher.stalled_routes;
      if (i == 0) {
        baseline = replay.decisions;
        report.requests += replay.requests;
        report.routed += replay.routed;
        report.no_route += replay.no_route;
        report.shed += replay.shed;
      } else if (replay.decisions != baseline) {
        report.decisions_identical = false;
      }
    }
  }
  report.mean_stale_slots =
      stale_sum / static_cast<double>(options.num_slots);

  // ---- Optional timed tail against the final live state.
  if (options.timed_seconds > 0.0) {
    const FaultedSlot world =
        schedule.materialize(scenario, options.num_slots - 1);
    if (total_offered(world.input) > 0.0) {
      const RequestStream stream = RequestStream::compile(
          scenario.topology, world.input, options.stream_seed);
      QpsOptions qps;
      qps.seconds = options.timed_seconds;
      qps.admission = &admission;
      const QpsReport timed = run_qps(dispatcher, stream, qps);
      report.stalled_routes += timed.dispatcher.stalled_routes;
      report.timed_qps = timed.qps();
      report.p50_ns = timed.p50_ns;
      report.p99_ns = timed.p99_ns;
      report.p999_ns = timed.p999_ns;
      report.max_ns = timed.max_ns;
      report.latency_samples = timed.latency_samples;
    }
  }
  return report;
}

}  // namespace palb::serve
