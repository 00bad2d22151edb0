#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace palb {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDcOutage:
      return "dc-outage";
    case FaultKind::kPriceSpike:
      return "price-spike";
    case FaultKind::kTraceGap:
      return "trace-gap";
    case FaultKind::kLinkCut:
      return "link-cut";
    case FaultKind::kSolverFailure:
      return "solver-failure";
    case FaultKind::kPlannerStall:
      return "planner-stall";
    case FaultKind::kPublishDelay:
      return "publish-delay";
    case FaultKind::kDemandSurge:
      return "demand-surge";
  }
  return "unknown";
}

bool FaultSchedule::faulted(std::size_t t) const {
  for (const auto& e : events_) {
    if (e.active(t)) return true;
  }
  return false;
}

std::size_t FaultSchedule::count_faulted(std::size_t num_slots,
                                         std::size_t first_slot) const {
  std::size_t n = 0;
  for (std::size_t t = 0; t < num_slots; ++t) {
    if (faulted(first_slot + t)) ++n;
  }
  return n;
}

void FaultSchedule::validate(const Topology& topology) const {
  const std::size_t K = topology.num_classes();
  const std::size_t S = topology.num_frontends();
  const std::size_t L = topology.num_datacenters();
  const auto index_ok = [](std::size_t index, std::size_t bound) {
    return index == FaultEvent::kNoIndex || index < bound;
  };
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    const std::string where = "fault event " + std::to_string(i) + " (" +
                              std::string(to_string(e.kind)) + ")";
    PALB_REQUIRE(e.first_slot <= e.last_slot,
                 where + ": slot window is inverted");
    PALB_REQUIRE(index_ok(e.dc, L), where + ": data-center index " +
                                        std::to_string(e.dc) +
                                        " outside the topology");
    PALB_REQUIRE(index_ok(e.frontend, S), where + ": front-end index " +
                                              std::to_string(e.frontend) +
                                              " outside the topology");
    PALB_REQUIRE(index_ok(e.klass, K), where + ": class index " +
                                           std::to_string(e.klass) +
                                           " outside the topology");
    switch (e.kind) {
      case FaultKind::kDcOutage:
        PALB_REQUIRE(e.dc != FaultEvent::kNoIndex,
                     where + ": an outage must name its data center");
        PALB_REQUIRE(
            std::isfinite(e.magnitude) && e.magnitude >= 0.0 &&
                e.magnitude <= 1.0,
            where + ": outage magnitude must be the lost fleet fraction "
                    "in [0, 1]");
        break;
      case FaultKind::kPriceSpike:
        PALB_REQUIRE(std::isfinite(e.magnitude) && e.magnitude > 0.0,
                     where + ": spike multiplier must be finite and > 0");
        break;
      case FaultKind::kDemandSurge:
        PALB_REQUIRE(std::isfinite(e.magnitude) && e.magnitude > 0.0,
                     where + ": surge multiplier must be finite and > 0");
        break;
      case FaultKind::kTraceGap:
      case FaultKind::kLinkCut:
      case FaultKind::kSolverFailure:
      case FaultKind::kPlannerStall:
      case FaultKind::kPublishDelay:
        break;
    }
  }
}

namespace {

/// Is the (k, s) rate reading gapped at slot t under this schedule?
bool stream_gapped(const std::vector<FaultEvent>& events, std::size_t t,
                   std::size_t k, std::size_t s) {
  for (const auto& e : events) {
    if (e.kind != FaultKind::kTraceGap || !e.active(t)) continue;
    const bool class_hit = e.klass == FaultEvent::kNoIndex || e.klass == k;
    const bool frontend_hit =
        e.frontend == FaultEvent::kNoIndex || e.frontend == s;
    if (class_hit && frontend_hit) return true;
  }
  return false;
}

}  // namespace

FaultedSlot FaultSchedule::materialize(const Scenario& scenario,
                                       std::size_t t) const {
  const Topology& topo = scenario.topology;
  const std::size_t K = topo.num_classes();
  const std::size_t S = topo.num_frontends();
  const std::size_t L = topo.num_datacenters();

  FaultedSlot out;
  out.topology = topo;
  out.input = scenario.slot_input(t);
  out.faulted = faulted(t);

  for (const auto& e : events_) {
    if (!e.active(t)) continue;
    switch (e.kind) {
      case FaultKind::kDcOutage: {
        // Each event removes floor(M_l * magnitude) of the *original*
        // fleet, so overlapping partial outages stack additively.
        auto& dc = out.topology.datacenters[e.dc];
        const int lost = static_cast<int>(std::floor(
            static_cast<double>(topo.datacenters[e.dc].num_servers) *
            e.magnitude));
        dc.num_servers = std::max(0, dc.num_servers - lost);
        break;
      }
      case FaultKind::kPriceSpike: {
        if (e.dc == FaultEvent::kNoIndex) {
          for (std::size_t l = 0; l < L; ++l) {
            out.input.price[l] *= e.magnitude;
          }
        } else {
          out.input.price[e.dc] *= e.magnitude;
        }
        break;
      }
      case FaultKind::kLinkCut: {
        if (out.link_blocked.empty()) out.link_blocked.assign(S * L, 0);
        for (std::size_t s = 0; s < S; ++s) {
          if (e.frontend != FaultEvent::kNoIndex && e.frontend != s) {
            continue;
          }
          for (std::size_t l = 0; l < L; ++l) {
            if (e.dc != FaultEvent::kNoIndex && e.dc != l) continue;
            out.link_blocked[s * L + l] = 1;
            out.has_blocked_link = true;
          }
        }
        break;
      }
      case FaultKind::kSolverFailure:
        out.solver_failure = true;
        break;
      case FaultKind::kPlannerStall:
        out.planner_stall = true;
        break;
      case FaultKind::kPublishDelay:
        out.publish_delayed = true;
        break;
      case FaultKind::kDemandSurge: {
        // Real demand, not a telemetry artifact: the surge lands before
        // the raw_input copy below, so both the planner's sanitized view
        // and the observed telemetry carry it. Overlapping surges stack
        // multiplicatively. Imputation of a gapped surged stream still
        // reads the (unsurged) scenario history — a gap hides the surge,
        // which is exactly the double-fault the ladder must absorb.
        for (std::size_t k = 0; k < K; ++k) {
          if (e.klass != FaultEvent::kNoIndex && e.klass != k) continue;
          for (std::size_t s = 0; s < S; ++s) {
            if (e.frontend != FaultEvent::kNoIndex && e.frontend != s) {
              continue;
            }
            out.input.arrival_rate[k][s] *= e.magnitude;
          }
        }
        break;
      }
      case FaultKind::kTraceGap:
        break;  // handled below, after prices
    }
  }

  // Trace gaps: the raw reading is NaN; the sanitized input imputes the
  // most recent earlier slot whose reading for the same stream is clean
  // (0 when the horizon starts gapped). Walking the scenario — not any
  // run state — keeps this a pure function of (scenario, schedule, t).
  out.raw_input = out.input;
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < S; ++s) {
      if (!stream_gapped(events_, t, k, s)) continue;
      out.raw_input.arrival_rate[k][s] =
          std::numeric_limits<double>::quiet_NaN();
      double imputed = 0.0;
      for (std::size_t back = t; back-- > 0;) {
        if (stream_gapped(events_, back, k, s)) continue;
        imputed = scenario.arrivals[k][s].at(back);
        break;
      }
      out.input.arrival_rate[k][s] = imputed;
    }
  }
  return out;
}

namespace fault_gen {

namespace {

/// Window length range in slots.
constexpr std::size_t kMinDuration = 1, kMaxDuration = 4;
/// Outage severity range (fraction of the fleet lost).
constexpr double kMinOutage = 0.5, kMaxOutage = 1.0;
/// Price-spike multiplier range.
constexpr double kMinSpike = 2.0, kMaxSpike = 10.0;

}  // namespace

FaultSchedule generate(const Topology& topology, std::uint64_t seed,
                       const Options& options) {
  const std::size_t K = topology.num_classes();
  const std::size_t S = topology.num_frontends();
  const std::size_t L = topology.num_datacenters();
  PALB_REQUIRE(options.fault_rate >= 0.0 && options.fault_rate <= 1.0,
               "fault_rate must be in [0, 1]");

  std::vector<FaultKind> kinds = {
      FaultKind::kDcOutage, FaultKind::kPriceSpike, FaultKind::kTraceGap,
      FaultKind::kLinkCut, FaultKind::kSolverFailure};
  // The chaos kinds append after the legacy five, so enabling them
  // never re-maps the kind draws of a schedule generated without them.
  if (options.planner_stalls) kinds.push_back(FaultKind::kPlannerStall);
  if (options.publish_delays) kinds.push_back(FaultKind::kPublishDelay);
  if (options.demand_surges) kinds.push_back(FaultKind::kDemandSurge);

  std::vector<FaultEvent> events;
  Rng rng(seed);
  for (std::size_t t = 0; t < options.slots; ++t) {
    if (rng.uniform(0.0, 1.0) >= options.fault_rate) continue;
    FaultEvent e;
    e.kind = kinds[rng.uniform_index(kinds.size())];
    e.first_slot = t;
    e.last_slot = t + kMinDuration - 1 +
                  rng.uniform_index(kMaxDuration - kMinDuration + 1);
    e.last_slot = std::min(e.last_slot, options.slots - 1);
    switch (e.kind) {
      case FaultKind::kDcOutage:
        e.dc = rng.uniform_index(L);
        e.magnitude = rng.uniform(kMinOutage, kMaxOutage);
        break;
      case FaultKind::kPriceSpike:
        e.dc = rng.uniform_index(L);
        e.magnitude = rng.uniform(kMinSpike, kMaxSpike);
        break;
      case FaultKind::kTraceGap:
        e.frontend = rng.uniform_index(S);
        // Half the gaps blind one class, half the whole front-end.
        e.klass = rng.uniform(0.0, 1.0) < 0.5 ? rng.uniform_index(K)
                                              : FaultEvent::kNoIndex;
        break;
      case FaultKind::kLinkCut:
        e.frontend = rng.uniform_index(S);
        e.dc = rng.uniform_index(L);
        break;
      case FaultKind::kSolverFailure:
        e.last_slot = e.first_slot;  // a crash is a one-slot affair
        break;
      case FaultKind::kPlannerStall:
      case FaultKind::kPublishDelay:
        break;  // windowed, no indices
      case FaultKind::kDemandSurge:
        // Half the surges hit one front-end, half are global.
        e.frontend = rng.uniform(0.0, 1.0) < 0.5 ? rng.uniform_index(S)
                                                 : FaultEvent::kNoIndex;
        e.magnitude = rng.uniform(kMinSurge, kMaxSurge);
        break;
    }
    events.push_back(e);
  }
  FaultSchedule schedule(std::move(events));
  schedule.validate(topology);
  return schedule;
}

FaultSchedule generate(const Topology& topology, std::uint64_t seed) {
  return generate(topology, seed, Options{});
}

FaultSchedule canned_acceptance() {
  std::vector<FaultEvent> events;
  FaultEvent outage;
  outage.kind = FaultKind::kDcOutage;
  outage.first_slot = 8;
  outage.last_slot = 11;
  outage.dc = 0;
  outage.magnitude = 1.0;
  events.push_back(outage);
  for (const std::size_t t : {std::size_t{3}, std::size_t{15}}) {
    FaultEvent gap;
    gap.kind = FaultKind::kTraceGap;
    gap.first_slot = t;
    gap.last_slot = t;
    gap.frontend = 0;
    events.push_back(gap);
  }
  FaultEvent crash;
  crash.kind = FaultKind::kSolverFailure;
  crash.first_slot = 19;
  crash.last_slot = 19;
  events.push_back(crash);
  return FaultSchedule(std::move(events));
}

FaultSchedule canned_chaos() {
  std::vector<FaultEvent> events;
  FaultEvent surge;
  surge.kind = FaultKind::kDemandSurge;
  surge.first_slot = 4;
  surge.last_slot = 9;
  surge.magnitude = 3.0;
  events.push_back(surge);
  FaultEvent stall;
  stall.kind = FaultKind::kPlannerStall;
  stall.first_slot = 6;
  stall.last_slot = 8;
  events.push_back(stall);
  // Overlaps the surge's onset: while publishes are suppressed the live
  // plan is still slot 3's unsurged one, so admission faces 3x the
  // provisioned demand and must shed — until the stale-plan TTL forces
  // a fresh (surge-sized) plan through. The later window tests delay
  // under calm demand (no shedding expected).
  FaultEvent delay;
  delay.kind = FaultKind::kPublishDelay;
  delay.first_slot = 4;
  delay.last_slot = 6;
  events.push_back(delay);
  FaultEvent calm_delay;
  calm_delay.kind = FaultKind::kPublishDelay;
  calm_delay.first_slot = 12;
  calm_delay.last_slot = 15;
  events.push_back(calm_delay);
  FaultEvent spike;
  spike.kind = FaultKind::kPriceSpike;
  spike.first_slot = 18;
  spike.last_slot = 18;
  spike.magnitude = 5.0;
  events.push_back(spike);
  return FaultSchedule(std::move(events));
}

}  // namespace fault_gen
}  // namespace palb
