#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/controller.hpp"
#include "core/policy.hpp"
#include "fault/fault.hpp"
#include "serve/load_driver.hpp"

namespace palb::serve {

/// Chaos-harness configuration (docs/OVERLOAD.md). The harness is the
/// acceptance gate for overload-hardened serving: it drives a
/// ResilientController pass through a fault schedule (planner stalls,
/// publish delays, demand surges, plus the legacy fault kinds), then
/// replays the serving fast path slot by slot — republishing exactly
/// the plan that was *live* after each slot and admission-controlling
/// the slot's *faulted* offered mix — and checks that the dispatcher
/// kept serving: zero stalled routes, bounded shed fraction, stale
/// exposure within the TTL, and decisions byte-identical across driver
/// thread counts.
///
/// Everything the report contains is a pure function of (scenario,
/// schedule, policy, options): stalls and delays enter through
/// deterministic FaultKinds, not the wall-clock watchdog, so two chaos
/// runs with the same inputs agree bit for bit (the timed latency tail
/// is the one excepted, clock-dependent section).
///
/// The replay admits with AdmissionController's default burst margin.
struct ChaosOptions {
  /// Replays slots [0, num_slots).
  std::size_t num_slots = 24;
  /// Candidate-solve fan-out of the slow-path pass.
  std::size_t solve_workers = 1;
  /// Fixed-mode requests replayed per slot per thread-count.
  std::uint64_t requests_per_slot = 4096;
  /// Seeds the per-slot RequestStream (slot index is mixed in).
  std::uint64_t stream_seed = 42;
  /// Stale-plan TTL forwarded to the slow path (resilient_controller.hpp).
  std::size_t stale_plan_ttl_slots = 3;
  /// Timed throughput/latency pass against the final live plan, with
  /// admission enabled; 0 skips it (keeps smoke runs fast and the
  /// report fully deterministic).
  double timed_seconds = 0.0;
};

/// Driver thread counts whose decision recordings must compare equal.
inline constexpr std::array<std::size_t, 3> kChaosThreadCounts = {1, 2, 4};

/// Everything one chaos run measured.
struct ChaosReport {
  std::size_t slots = 0;

  // Slow-path telemetry (RunResult pass-through).
  std::size_t faulted_slots = 0;
  std::size_t stalled_solves = 0;
  std::size_t delayed_publishes = 0;
  std::size_t ttl_escalations = 0;
  std::vector<int> fallback_rungs;

  // Fast-path replay tallies (counted once, at the first thread count).
  std::uint64_t requests = 0;
  std::uint64_t routed = 0;
  std::uint64_t no_route = 0;
  std::uint64_t shed = 0;
  double shed_fraction() const {
    return requests > 0
               ? static_cast<double>(shed) / static_cast<double>(requests)
               : 0.0;
  }

  /// Stale-plan exposure across the replay: slot t served the plan of
  /// slot live_slots[t], so its staleness is t - live_slots[t] slots.
  std::size_t max_stale_slots = 0;
  double mean_stale_slots = 0.0;

  /// Summed Dispatcher stall count across every replay — structurally
  /// 0 (the "dispatcher keeps serving" acceptance gate).
  std::uint64_t stalled_routes = 0;
  /// True iff every slot's decision recording compared equal across all
  /// kChaosThreadCounts.
  bool decisions_identical = true;

  /// Timed pass (zeros when ChaosOptions::timed_seconds == 0).
  double timed_qps = 0.0;
  double p50_ns = 0.0, p99_ns = 0.0, p999_ns = 0.0, max_ns = 0.0;
  std::uint64_t latency_samples = 0;
};

/// Runs the chaos harness; see ChaosOptions. `policy` must tolerate the
/// slow-path pass exactly as ResilientController::run requires.
ChaosReport run_chaos(const Scenario& scenario, const FaultSchedule& schedule,
                      Policy& policy, const ChaosOptions& options);

}  // namespace palb::serve
