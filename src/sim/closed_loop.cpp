#include "sim/closed_loop.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <queue>

#include "check/plan_checker.hpp"
#include "fault/resilient_controller.hpp"
#include "util/error.hpp"

namespace palb {

namespace {

struct Job {
  double front_end_arrival = 0.0;  ///< stamp at the front-end
  double propagation = 0.0;        ///< one-way+return wire time it pays
  std::size_t klass = 0;
};

/// One VM queue (class k on one powered server of DC l), FCFS,
/// exponential service whose rate may change at slot boundaries
/// (memoryless, so rate changes simply resample the head's remainder).
struct VmQueue {
  std::deque<Job> jobs;
  /// Generation counter invalidating stale departure events.
  std::uint64_t generation = 0;
};

enum class EventType { kArrival, kDeparture, kSlotBoundary };

struct Event {
  double time = 0.0;
  EventType type = EventType::kArrival;
  // kArrival: stream index (k*S+s). kDeparture: queue id + generation.
  std::size_t a = 0;
  std::uint64_t generation = 0;

  bool operator>(const Event& other) const { return time > other.time; }
};

}  // namespace

ClosedLoopResult ClosedLoopSimulator::run(const Scenario& scenario,
                                          Policy& policy,
                                          std::size_t num_slots,
                                          std::size_t first_slot) {
  scenario.validate();
  PALB_REQUIRE(num_slots > 0, "need at least one slot");
  const FaultSchedule& faults = options_.faults;
  if (!faults.empty()) faults.validate(scenario.topology);
  const Topology& topo = scenario.topology;
  const std::size_t K = topo.num_classes();
  const std::size_t S = topo.num_frontends();
  const std::size_t L = topo.num_datacenters();
  const double T = scenario.slot_seconds;
  const double horizon = T * static_cast<double>(num_slots);

  // Per-slot substreams (see header): the master never draws directly.
  const Rng master(options_.seed);
  Rng rng = master.substream(static_cast<std::uint64_t>(first_slot));

  ClosedLoopResult result;
  result.slots.resize(num_slots);
  result.fallback_rungs.assign(num_slots, 0);
  result.repair_adjustments.assign(num_slots, 0);
  result.faulted_slots = faults.count_faulted(num_slots, first_slot);

  // ---- mutable world state -------------------------------------------------
  // Queue id layout: (l, k, server i) -> flat index; servers per (l)
  // bounded by the fleet, queues exist for every potential server.
  std::vector<std::size_t> queue_base(L, 0);
  std::size_t total_queues = 0;
  for (std::size_t l = 0; l < L; ++l) {
    queue_base[l] = total_queues;
    total_queues +=
        K * static_cast<std::size_t>(topo.datacenters[l].num_servers);
  }
  const auto queue_id = [&](std::size_t l, std::size_t k, int server) {
    return queue_base[l] +
           k * static_cast<std::size_t>(topo.datacenters[l].num_servers) +
           static_cast<std::size_t>(server);
  };
  std::vector<VmQueue> queues(total_queues);
  std::vector<double> service_rate(total_queues, 0.0);  // phi*C*mu

  DispatchPlan plan = DispatchPlan::zero(topo);
  SlotInput current_input;  // the slot's true input (prices for billing)
  std::size_t slot_index = 0;

  // Measured arrivals (per stream) over the current slot, for causal
  // re-planning.
  std::vector<double> measured(K * S, 0.0);
  std::vector<double> previous_measured(K * S, 0.0);

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

  // ---- helpers ---------------------------------------------------------------
  const auto schedule_departure = [&](std::size_t qid, double now) {
    if (queues[qid].jobs.empty() || service_rate[qid] <= 0.0) return;
    events.push(Event{now + rng.exponential(service_rate[qid]),
                      EventType::kDeparture, qid,
                      queues[qid].generation});
  };

  const auto invalidate_queue = [&](std::size_t qid) {
    ++queues[qid].generation;
  };

  const auto charge_worthless = [&](std::size_t k,
                                    ClosedLoopSlotStats& stats) {
    stats.penalty_cost += topo.classes[k].drop_penalty_per_request;
  };

  // Applies a freshly computed plan at time `now`: updates service rates,
  // migrates backlog off powered-down servers, reschedules departures.
  const auto apply_plan = [&](const DispatchPlan& next, double now,
                              ClosedLoopSlotStats& stats) {
    for (std::size_t l = 0; l < L; ++l) {
      const auto& dc = topo.datacenters[l];
      const int servers_next = next.dc[l].servers_on;
      for (std::size_t k = 0; k < K; ++k) {
        const double share =
            next.dc[l].share.empty() ? 0.0 : next.dc[l].share[k];
        const double rate = share * dc.server_capacity * dc.service_rate[k];
        // Migrate backlog from servers beyond the new count.
        for (int i = servers_next; i < dc.num_servers; ++i) {
          const std::size_t from = queue_id(l, k, i);
          invalidate_queue(from);
          while (!queues[from].jobs.empty()) {
            Job job = queues[from].jobs.front();
            queues[from].jobs.pop_front();
            if (servers_next > 0 && rate > 0.0) {
              const int target = static_cast<int>(rng.uniform_index(
                  static_cast<std::uint64_t>(servers_next)));
              queues[queue_id(l, k, target)].jobs.push_back(job);
            } else {
              // DC (or this class's VM) went dark with backlog: the
              // requests are lost and penalized.
              ++stats.dropped;
              charge_worthless(k, stats);
            }
          }
          service_rate[from] = 0.0;
        }
        // Live servers: new rate; memoryless service lets us resample.
        for (int i = 0; i < servers_next; ++i) {
          const std::size_t qid = queue_id(l, k, i);
          service_rate[qid] = rate;
          invalidate_queue(qid);
          schedule_departure(qid, now);
        }
      }
    }
    plan = next;
  };

  // ---- prime slot 0 ----------------------------------------------------------
  // The slot's faulted world: surviving topology, sanitized planning
  // input, cut links. With an empty schedule this is just the scenario's
  // slot verbatim and the fault paths below all no-op.
  FaultedSlot world;
  const PlanChecker repair_checker;

  const auto plan_for_slot = [&](std::size_t t) {
    SlotInput input = world.input;  // sanitized: gaps imputed, spikes in
    if (options_.planning_input ==
            Options::PlanningInput::kMeasuredPreviousSlot &&
        t > 0) {
      for (std::size_t k = 0; k < K; ++k) {
        for (std::size_t s = 0; s < S; ++s) {
          input.arrival_rate[k][s] = previous_measured[k * S + s] / T;
        }
      }
    }
    if (faults.empty()) {
      // Fault-free fast path, exactly the pre-fault behaviour: audit
      // against the rates the policy planned from (under measured-rate
      // operation the true arrivals may legitimately exceed the plan).
      DispatchPlan next_plan = policy.plan_slot(topo, input);
      check::maybe_check_plan(topo, input, next_plan, "ClosedLoopSimulator");
      result.fallback_rungs[t] = 1;
      return next_plan;
    }
    // In-loop fallback ladder {1 policy, 3 previous plan, 5 shed-all}:
    // the first candidate accept_candidate() passes against the
    // surviving world and the planning input is used.
    DispatchPlan next = DispatchPlan::zero(world.topology);
    int rung = static_cast<int>(FallbackRung::kShedAll);
    std::size_t repairs = 0;
    const auto accept = [&](DispatchPlan cand, FallbackRung r) {
      std::optional<PlanRepairReport> rep =
          accept_candidate(repair_checker, world, input, std::move(cand));
      if (!rep) return false;
      next = std::move(rep->plan);
      rung = static_cast<int>(r);
      repairs = rep->adjustments();
      return true;
    };
    bool applied = false;
    if (!world.solver_failure) {
      try {
        applied = accept(policy.plan_slot(world.topology, input),
                         FallbackRung::kFullSolve);
      } catch (const std::exception&) {
        // Walk down the ladder.
      }
    }
    if (!applied && t > 0) applied = accept(plan, FallbackRung::kPreviousPlan);
    if (!applied) accept(DispatchPlan::zero(world.topology),
                         FallbackRung::kShedAll);
    result.fallback_rungs[t] = rung;
    result.repair_adjustments[t] = repairs;
    return next;
  };

  world = faults.materialize(scenario, first_slot);
  current_input = scenario.slot_input(first_slot);
  current_input.price = world.input.price;  // price spikes bill for real
  apply_plan(plan_for_slot(0), 0.0, result.slots[0]);

  // Arrival streams: one pending event each, regenerated at every slot
  // boundary (generation counters kill stale chains so rates switch
  // exactly at the boundary).
  std::vector<std::uint64_t> stream_generation(K * S, 0);
  const auto arm_streams = [&](double now) {
    for (std::size_t k = 0; k < K; ++k) {
      for (std::size_t s = 0; s < S; ++s) {
        const std::size_t id = k * S + s;
        ++stream_generation[id];
        const double rate = current_input.arrival_rate[k][s];
        if (rate > 0.0) {
          events.push(Event{now + rng.exponential(rate),
                            EventType::kArrival, id,
                            stream_generation[id]});
        }
      }
    }
  };
  arm_streams(0.0);
  for (std::size_t t = 1; t < num_slots; ++t) {
    events.push(Event{T * static_cast<double>(t), EventType::kSlotBoundary,
                      t, 0});
  }

  // Idle-power integration bookkeeping.
  double idle_accrued_until = 0.0;
  const auto accrue_idle = [&](double until) {
    if (until <= idle_accrued_until) return;
    const double hours = (until - idle_accrued_until) / 3600.0;
    double dollars = 0.0;
    for (std::size_t l = 0; l < L; ++l) {
      dollars += static_cast<double>(plan.dc[l].servers_on) *
                 topo.datacenters[l].idle_power_kw * hours *
                 current_input.price[l] * topo.datacenters[l].pue;
    }
    result.slots[slot_index].energy_cost += dollars;
    idle_accrued_until = until;
  };

  // ---- main loop --------------------------------------------------------------
  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    if (ev.time >= horizon) break;
    ClosedLoopSlotStats& stats = result.slots[slot_index];

    switch (ev.type) {
      case EventType::kSlotBoundary: {
        accrue_idle(ev.time);
        // Close the slot's measurement window.
        previous_measured = measured;
        std::fill(measured.begin(), measured.end(), 0.0);
        slot_index = ev.a;
        // Fresh substream for the new slot (see header contract).
        rng = master.substream(
            static_cast<std::uint64_t>(first_slot + slot_index));
        world = faults.materialize(scenario, first_slot + slot_index);
        current_input = scenario.slot_input(first_slot + slot_index);
        current_input.price = world.input.price;  // spikes bill for real
        apply_plan(plan_for_slot(slot_index), ev.time,
                   result.slots[slot_index]);
        arm_streams(ev.time);
        break;
      }
      case EventType::kArrival: {
        if (ev.generation != stream_generation[ev.a]) break;  // stale
        const std::size_t k = ev.a / S;
        const std::size_t s = ev.a % S;
        ++stats.arrivals;
        measured[ev.a] += 1.0;

        // Route per the live plan's split for this stream.
        const double offered = current_input.arrival_rate[k][s];
        double admit = rng.uniform(0.0, std::max(offered, 1e-12));
        int dest = -1;
        for (std::size_t l = 0; l < L; ++l) {
          admit -= plan.rate[k][s][l];
          if (admit < 0.0) {
            dest = static_cast<int>(l);
            break;
          }
        }
        if (dest < 0 ||
            plan.dc[static_cast<std::size_t>(dest)].servers_on == 0 ||
            world.blocked(s, static_cast<std::size_t>(dest))) {
          // No destination, a dark DC, or a cut front-end<->DC link:
          // the request is lost and penalized.
          ++stats.dropped;
          charge_worthless(k, stats);
        } else {
          const auto l = static_cast<std::size_t>(dest);
          ++stats.dispatched;
          stats.transfer_cost += topo.classes[k].transfer_cost_per_mile *
                                 topo.distance_miles[s][l];
          const int target = static_cast<int>(rng.uniform_index(
              static_cast<std::uint64_t>(plan.dc[l].servers_on)));
          const std::size_t qid = queue_id(l, k, target);
          queues[qid].jobs.push_back(
              Job{ev.time, topo.propagation_delay(s, l), k});
          if (queues[qid].jobs.size() == 1) {
            schedule_departure(qid, ev.time);
          }
          // Energy billed per processed request at admission slot price.
          stats.energy_cost += topo.datacenters[l].energy_per_request_kwh[k] *
                               current_input.price[l] *
                               topo.datacenters[l].pue;
        }
        // Next arrival of this stream at the *current* slot's rate.
        if (offered > 0.0) {
          events.push(Event{ev.time + rng.exponential(offered),
                            EventType::kArrival, ev.a,
                            stream_generation[ev.a]});
        }
        break;
      }
      case EventType::kDeparture: {
        const std::size_t qid = ev.a;
        if (ev.generation != queues[qid].generation ||
            queues[qid].jobs.empty()) {
          break;  // stale event from before a re-plan / migration
        }
        const Job job = queues[qid].jobs.front();
        queues[qid].jobs.pop_front();
        ++stats.completions;
        const double latency =
            (ev.time - job.front_end_arrival) + job.propagation;
        stats.total_latency.add(latency);
        const double utility = topo.classes[job.klass].tuf.utility(latency);
        if (utility > 0.0) {
          stats.revenue += utility;
        } else {
          charge_worthless(job.klass, stats);
        }
        schedule_departure(qid, ev.time);
        break;
      }
    }
  }
  accrue_idle(horizon);

  // Backlog at the horizon is abandoned and penalized.
  for (std::size_t l = 0; l < L; ++l) {
    for (std::size_t k = 0; k < K; ++k) {
      for (int i = 0; i < topo.datacenters[l].num_servers; ++i) {
        const auto& q = queues[queue_id(l, k, i)];
        result.stranded += q.jobs.size();
        for (std::size_t j = 0; j < q.jobs.size(); ++j) {
          charge_worthless(k, result.slots[num_slots - 1]);
        }
      }
    }
  }
  return result;
}

std::vector<ClosedLoopResult> ClosedLoopSimulator::run_replications(
    const Scenario& scenario, Policy& policy, std::size_t num_slots,
    std::size_t replications, std::size_t workers, std::size_t first_slot) {
  PALB_REQUIRE(replications > 0, "need at least one replication");

  // Mix (seed, r) into one independent seed per replication up front —
  // the same seeds whatever the worker count or execution order.
  std::vector<std::uint64_t> seeds(replications);
  SplitMix64 mix(options_.seed);
  for (auto& s : seeds) s = mix.next();

  std::vector<ClosedLoopResult> results(replications);
  for_each_slot(policy, replications, workers, [&](Policy& p, std::size_t r) {
    Options opts = options_;
    opts.seed = seeds[r];
    ClosedLoopSimulator sim(opts);
    results[r] = sim.run(scenario, p, num_slots, first_slot);
  });
  return results;
}

}  // namespace palb
