#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.hpp"

namespace palb {

/// What a FaultEvent disturbs (docs/RESILIENCE.md "fault taxonomy").
/// Every kind maps onto a disturbance the paper's multi-electricity-
/// market setting actually exhibits but its hourly loop (§III) assumes
/// away: clean inputs, live data centers, a solver that always returns.
enum class FaultKind {
  /// Data center `dc` loses floor(M_l * magnitude) servers for the
  /// window (magnitude 1.0 = full outage: the DC goes dark).
  kDcOutage,
  /// Electricity price at `dc` multiplies by `magnitude` (spike).
  kPriceSpike,
  /// Telemetry gap: the rate reading for (klass, frontend) — kNoIndex =
  /// all classes / all front-ends — is NaN for the window. The resilient
  /// path imputes it from the most recent clean slot.
  kTraceGap,
  /// The frontend<->dc link is unusable: plans must not route over it
  /// and in-flight dispatch over it is dropped. kNoIndex on either side
  /// cuts the whole row/column.
  kLinkCut,
  /// The primary policy is forced to fail this slot (models a solver
  /// crash or a per-slot pivot budget acting as a deadline), pushing the
  /// resilient controller onto its fallback ladder.
  kSolverFailure,
  /// The planner's full solve blows its deadline budget this slot (the
  /// watchdog cancelled it mid-pivot): rung 1 is deterministically
  /// skipped and the slot is counted in RunResult::stalled_solves. Same
  /// plan effect as kSolverFailure, distinct telemetry — a stall is a
  /// deadline event, not a crash.
  kPlannerStall,
  /// The publish of this slot's applied plan is suppressed: readers keep
  /// serving the previous live plan (measurable stale-plan exposure)
  /// until the window ends or the stale-plan TTL escalation forces the
  /// publish through (ResilientController::Options::stale_plan_ttl_slots).
  kPublishDelay,
  /// Real demand surge: every targeted arrival rate (klass / frontend
  /// pins honored, kNoIndex = all) multiplies by `magnitude` in both the
  /// sanitized and the raw telemetry — the planner sees it, and so does
  /// the offered mix admission control sizes against.
  kDemandSurge,
};

/// Stable kebab-case name ("dc-outage", ...) used by the JSON schema and
/// the CLI table; never reworded once released.
const char* to_string(FaultKind kind);

/// One disturbance over an inclusive slot window [first_slot, last_slot].
struct FaultEvent {
  /// Sentinel for an index axis the event does not pin (= "all").
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  FaultKind kind = FaultKind::kDcOutage;
  std::size_t first_slot = 0;
  std::size_t last_slot = 0;  ///< inclusive
  std::size_t dc = kNoIndex;        ///< kDcOutage, kPriceSpike, kLinkCut
  std::size_t frontend = kNoIndex;  ///< kTraceGap, kLinkCut, kDemandSurge
  std::size_t klass = kNoIndex;     ///< kTraceGap, kDemandSurge (= all)
  /// kDcOutage: fraction of servers lost; kPriceSpike: price multiplier;
  /// kDemandSurge: arrival-rate multiplier.
  double magnitude = 1.0;

  bool active(std::size_t t) const {
    return t >= first_slot && t <= last_slot;
  }
};

/// The effective world of one slot after the schedule is applied — what
/// the resilient control path plans against and settles on.
struct FaultedSlot {
  /// Surviving topology: outage-reduced server counts, otherwise the
  /// scenario's topology verbatim.
  Topology topology;
  /// Sanitized planning input: spiked prices applied, trace gaps imputed
  /// from the most recent clean slot (finite and non-negative, so any
  /// Policy can plan from it).
  SlotInput input;
  /// The input as telemetry observed it: gapped rates are NaN. An
  /// unwrapped policy fed this throws; the resilient path never uses it
  /// for planning.
  SlotInput raw_input;
  /// blocked[s * num_datacenters + l] != 0 when the s->l link is cut.
  std::vector<std::uint8_t> link_blocked;
  bool solver_failure = false;  ///< rung 1 is forced to fail this slot
  bool planner_stall = false;   ///< rung 1 cancelled by its deadline
  bool publish_delayed = false; ///< this slot's publish is suppressed
  bool faulted = false;         ///< any event active this slot
  bool has_blocked_link = false;

  bool blocked(std::size_t s, std::size_t l) const {
    return !link_blocked.empty() &&
           link_blocked[s * topology.num_datacenters() + l] != 0;
  }
};

/// A deterministic list of fault events. materialize() is a pure
/// function of (scenario, schedule, slot) — never of plans, policy state
/// or worker partition — which is what keeps fault-injected runs
/// byte-identical across worker counts (the PR 2 guarantee).
class FaultSchedule {
 public:
  FaultSchedule() = default;
  explicit FaultSchedule(std::vector<FaultEvent> events)
      : events_(std::move(events)) {}

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// Any event active at slot t?
  bool faulted(std::size_t t) const;
  /// Faulted slots within [first_slot, first_slot + num_slots).
  std::size_t count_faulted(std::size_t num_slots,
                            std::size_t first_slot = 0) const;

  /// Throws InvalidArgument when an event's indices fall outside the
  /// topology, a window is inverted, or a magnitude is out of domain.
  void validate(const Topology& topology) const;

  /// Applies every event active at slot t to the scenario's slot-t
  /// world. Trace-gap imputation walks back to the most recent earlier
  /// slot whose reading for that stream is clean (0 if none exists), so
  /// the sanitized input depends only on (scenario, schedule, t).
  FaultedSlot materialize(const Scenario& scenario, std::size_t t) const;

 private:
  std::vector<FaultEvent> events_;
};

/// Seeded random fault-schedule generator, scenario_gen's sibling: the
/// fuzz suites and the fig_resilience bench dial `fault_rate` instead of
/// hand-writing event lists. Deterministic in (scenario shape, seed,
/// options).
namespace fault_gen {

/// Demand-surge multiplier range.
constexpr double kMinSurge = 1.5, kMaxSurge = 4.0;

struct Options {
  std::size_t slots = 24;
  /// Per-slot probability that a new fault window starts. Each started
  /// window draws its kind uniformly from the five legacy kinds (outage,
  /// price spike, trace gap, link cut, solver failure) plus the chaos
  /// kinds enabled below, and lasts 1-4 slots.
  double fault_rate = 0.15;
  /// The serving-path chaos kinds default OFF so schedules generated
  /// from pre-existing seeds stay byte-identical.
  bool planner_stalls = false;
  bool publish_delays = false;
  bool demand_surges = false;
};

FaultSchedule generate(const Topology& topology, std::uint64_t seed,
                       const Options& options);
FaultSchedule generate(const Topology& topology, std::uint64_t seed);

/// The canned 24-slot acceptance schedule (docs/RESILIENCE.md): data
/// center 0 dark for slots 8-11, rate telemetry of front-end 0 gapped at
/// slots 3 and 15, and one forced solver failure at slot 19. The CLI
/// spells it "canned"; CI's resilience-smoke job replays it.
FaultSchedule canned_acceptance();

/// The canned 24-slot overload schedule (docs/OVERLOAD.md): a 3x demand
/// surge over slots 4-9, publishes suppressed for slots 4-6 (so the
/// stale pre-surge plan faces the surge and admission must shed until
/// the TTL forces a publish through) and again for the calm slots
/// 12-15, the planner stalled for slots 6-8 inside the surge, and a
/// price spike at slot 18 for flavor. The CLI spells it "canned-chaos";
/// CI's chaos-smoke job replays it.
FaultSchedule canned_chaos();

}  // namespace fault_gen
}  // namespace palb
