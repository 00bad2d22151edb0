#pragma once

#include <cstdint>
#include <vector>

#include "core/controller.hpp"
#include "core/policy.hpp"
#include "fault/fault.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace palb {

/// Closed-loop, event-driven simulation of the whole control story.
///
/// SlotSimulator replays one slot's plan against fresh queues — the
/// paper's implicit assumption that every hour starts from steady state.
/// This engine instead runs the *entire horizon* as one discrete-event
/// simulation with the policy in the loop:
///
///  * Poisson arrivals per (class, front-end) stream at each slot's rate;
///  * each arrival is routed per the current plan's split (or dropped),
///    pays its network propagation, and queues FCFS on one of the DC's
///    per-class VM queues (exponential service at phi*C*mu);
///  * at every slot boundary the policy re-plans — from the true next
///    rates (oracle) or from the rates *measured* over the previous slot
///    (a fully causal controller) — shares and service rates change in
///    place, powered-down servers migrate their backlog to surviving
///    ones (or drop it if the DC goes dark), and queues carry over;
///  * the ledger is per-request: the TUF is evaluated on each request's
///    realized total latency, energy per completion at the price of the
///    completion's slot, idle power integrated over server-hours,
///    penalties on every request that earned nothing.
///
/// Comparing its totals with the analytic chain quantifies what the
/// paper's steady-state-per-slot accounting hides (boundary transients,
/// per-request band straddling, carried backlog).
struct ClosedLoopSlotStats {
  std::uint64_t arrivals = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t dropped = 0;      ///< not admitted by the plan
  std::uint64_t completions = 0;
  double revenue = 0.0;           ///< per-request TUF dollars
  double energy_cost = 0.0;       ///< per-request + idle energy
  double transfer_cost = 0.0;
  double penalty_cost = 0.0;
  RunningStats total_latency;     ///< propagation + sojourn, completed req
  double net_profit() const {
    return revenue - energy_cost - transfer_cost - penalty_cost;
  }
};

struct ClosedLoopResult {
  std::vector<ClosedLoopSlotStats> slots;
  /// Jobs still in queues when the horizon ends (abandoned, penalized).
  std::uint64_t stranded = 0;

  /// Resilience telemetry, mirroring RunResult's: which ladder rung
  /// produced slot t's applied plan (the in-loop ladder is {1 policy,
  /// 3 previous plan, 5 shed-all}; see docs/RESILIENCE.md) and how many
  /// PlanChecker::repair() fixes it needed. All rung 1 / zero repairs
  /// when Options::faults is empty.
  std::vector<int> fallback_rungs;
  std::vector<std::size_t> repair_adjustments;
  std::size_t faulted_slots = 0;

  double total_profit() const {
    double p = 0.0;
    for (const auto& s : slots) p += s.net_profit();
    return p;
  }
};

class ClosedLoopSimulator {
 public:
  struct Options {
    std::uint64_t seed = 1;
    /// What the policy sees at each boundary: the true upcoming rates
    /// (the paper's assumption) or the previous slot's measured rates.
    enum class PlanningInput { kOracleRates, kMeasuredPreviousSlot };
    PlanningInput planning_input = PlanningInput::kOracleRates;
    /// Mid-slot disturbances, applied at each boundary: an outage clamps
    /// the plan onto the surviving fleet (the existing backlog-migration
    /// path absorbs the dark servers), a cut link drops the requests
    /// routed over it, spiked prices bill every completion, and the
    /// policy plans from the sanitized (gap-imputed) input behind an
    /// in-loop {policy, previous-plan, shed-all} ladder. Empty (the
    /// default) leaves the sample path bit-identical to a fault-free
    /// build of this simulator.
    FaultSchedule faults;
  };

  ClosedLoopSimulator() = default;
  explicit ClosedLoopSimulator(Options options) : options_(options) {}

  /// Randomness is split per slot: slot t draws from substream
  /// (seed, first_slot + t), so a slot's sample path does not depend on
  /// how many events earlier slots consumed and any slot range replays
  /// bit-identically.
  ClosedLoopResult run(const Scenario& scenario, Policy& policy,
                       std::size_t num_slots, std::size_t first_slot = 0);

  /// Runs `replications` statistically independent simulations of the
  /// same horizon through for_each_slot, fanned across `workers` threads
  /// (0 = one per hardware thread, capped at the replication count).
  /// Replication r simulates with a SplitMix64-mixed seed derived from
  /// (Options::seed, r) and its own Policy::clone(), so results are
  /// identical for every worker count. A policy that cannot clone
  /// (nullptr) runs every replication serially on the caller's instance
  /// instead.
  std::vector<ClosedLoopResult> run_replications(const Scenario& scenario,
                                                 Policy& policy,
                                                 std::size_t num_slots,
                                                 std::size_t replications,
                                                 std::size_t workers = 0,
                                                 std::size_t first_slot = 0);

 private:
  Options options_;
};

}  // namespace palb
