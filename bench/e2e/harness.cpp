#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/plan_checker.hpp"
#include "core/optimized_policy.hpp"
#include "core/plan_handle.hpp"
#include "fault/resilient_controller.hpp"
#include "serve/admission.hpp"
#include "serve/async_planner.hpp"
#include "serve/dispatcher.hpp"
#include "serve/load_driver.hpp"
#include "serve/routing_table.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace palb::e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up is repeated and its median reported: one group of passes
/// before the slot phase and one after it, each at least the minimum
/// number of passes and more while they fit in the budget. The host's
/// speed shifts by up to 1.8x for seconds or minutes at a time and a
/// group of passes samples only one such moment; two groups a slot phase
/// apart make it less likely that one slow moment decides setup_s.
constexpr std::size_t kMinSetupPasses = 5;
constexpr std::size_t kMaxSetupPasses = 21;
constexpr double kSetupBudgetSeconds = 0.5;
constexpr std::size_t kDrivers = 2;
/// Requests between two reads of the current slot's stream.
constexpr std::uint64_t kDriverBatch = 256;
/// Per-slot deterministic replay after the slot sample.
constexpr std::uint64_t kReplayRequests = 1024;
/// Traced runs time one driver request in 64 and record spans for one in
/// 1024.
constexpr std::uint64_t kLatencySampleEvery = 64;
constexpr std::uint64_t kSpanSampleEvery = 1024;
constexpr std::uint64_t kMaxProbes = std::uint64_t{1} << 20;
/// Disjoint stream-index ranges: drivers use (d + 1) << 40, probes this.
constexpr std::uint64_t kProbeIndexBase = std::uint64_t{3} << 40;
/// AdmissionController's default burst margin, passed explicitly so the
/// benchmark's own compile of the admission table matches it.
constexpr double kBurstMargin = 0.05;

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double quantile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  SampleSet set;
  for (const double v : values) set.add(v);
  return set.quantile(q);
}

/// Drivers get the last two allowed CPUs; the slot thread, and through
/// inheritance the planner's pool and the policy's sweep threads, get
/// the rest. With fewer than three CPUs nothing is pinned.
struct CpuPlan {
  std::vector<int> slot;
  std::vector<int> drivers;
};

CpuPlan plan_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return {};
  std::vector<int> allowed;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) allowed.push_back(static_cast<int>(cpu));
  }
  if (allowed.size() < kDrivers + 1) return {};
  const auto split = allowed.end() - static_cast<std::ptrdiff_t>(kDrivers);
  return CpuPlan{std::vector<int>(allowed.begin(), split),
                 std::vector<int>(split, allowed.end())};
}

void pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(static_cast<std::size_t>(cpu), &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    std::perror("palb_e2e: sched_setaffinity");
  }
}

std::string cpu_list(const std::vector<int>& cpus) {
  if (cpus.empty()) return "unpinned";
  std::string out;
  for (const int cpu : cpus) {
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
  }
  return out;
}

std::uint64_t stream_seed(std::uint64_t seed, std::size_t slot) {
  return SplitMix64(seed ^ (0x9E3779B97F4A7C15ull * (slot + 1))).next();
}

double clock_overhead_ns() {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < 256; ++i) {
    const std::int64_t a = now_ns();
    best = std::min(best, now_ns() - a);
  }
  return static_cast<double>(best);
}

struct Usage {
  double cpu_seconds = 0.0;
  double context_switches = 0.0;
  double max_rss_mb = 0.0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return Usage{secs(ru.ru_utime) + secs(ru.ru_stime),
               static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw),
               static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/// Everything set-up builds. Held by one pointer because the serving
/// objects keep references to `live`, and members are destroyed in
/// reverse order: the planner joins before the policy it drives goes.
struct Stack {
  Workload workload;
  /// materialize(t) and the offered-mix request stream, t = 0..num_slots.
  std::vector<FaultedSlot> worlds;
  std::vector<serve::RequestStream> streams;
  PlanHandle live;
  std::unique_ptr<Policy> policy;
  std::unique_ptr<serve::AsyncPlanner> planner;
  std::unique_ptr<serve::Dispatcher> dispatcher;
  std::unique_ptr<serve::AdmissionController> admission;
};

/// One admit+route decision. A shed request carries the plan version of
/// the admission table that shed it.
serve::Route decide(const Stack& st,
                    const serve::RequestStream::Request& req) {
  if (!st.admission->admit(req.klass, req.frontend, req.id)) {
    return serve::Route{serve::RouteStatus::kShed, 0,
                        st.admission->table_version()};
  }
  return st.dispatcher->route(req.klass, req.frontend, req.id);
}

/// Inputs, serving objects, first solve, first compile, first routed
/// request: everything before the slot phase can start.
std::unique_ptr<Stack> set_up(const RunOptions& options, SlotTrace* trace) {
  auto st = std::make_unique<Stack>();
  st->workload =
      make_workload(options.workload, options.seed, options.seconds);
  const Workload& w = st->workload;
  for (std::size_t t = 0; t <= w.num_slots; ++t) {
    st->worlds.push_back(w.schedule.materialize(w.scenario, t));
    st->streams.push_back(serve::RequestStream::compile(
        w.scenario.topology, st->worlds.back().input,
        stream_seed(options.seed, t)));
  }
  st->policy = std::make_unique<OptimizedPolicy>();
  if (trace != nullptr) {
    st->policy = std::make_unique<TracedPolicy>(std::move(st->policy),
                                                *trace, "plan_slot");
  }
  st->planner =
      std::make_unique<serve::AsyncPlanner>(w.scenario, w.schedule, st->live);
  st->dispatcher =
      std::make_unique<serve::Dispatcher>(w.scenario.topology, st->live);
  st->admission = std::make_unique<serve::AdmissionController>(
      w.scenario.topology, st->live, st->worlds[0].input, kBurstMargin);
  st->planner->solve_async(*st->policy, 1, 0).get();
  st->dispatcher->refresh();
  st->admission->refresh();
  decide(*st, st->streams[0].at(0));
  return st;
}

/// One driver thread's tallies. `progress` is read by the slot thread
/// during the run; the rest is merged after the join. Cache-line aligned
/// so the two drivers never write the same line.
struct alignas(64) DriverTally {
  std::atomic<std::uint64_t> progress{0};
  std::uint64_t routed = 0;
  std::uint64_t shed = 0;
  std::vector<double> admit_ns;
  std::vector<double> route_ns;
  std::vector<Span> spans;
  /// What the driver threw, if it stopped early.
  std::string error;
};

/// Closed loop: each request is admit(k, s, id) and, if admitted,
/// route(k, s, id) — the per-request pattern of serve/admission.hpp —
/// drawn from the current slot's offered mix.
void drive_loop(const std::stop_token& stop, const Stack& st,
                const std::atomic<std::size_t>& current, std::size_t driver,
                bool trace, double overhead_ns, DriverTally& tally) {
  std::uint64_t index = static_cast<std::uint64_t>(driver + 1) << 40;
  std::uint64_t decisions = 0;
  std::uint64_t routed = 0;
  std::uint64_t shed = 0;
  std::uint64_t until_sample = kLatencySampleEvery;
  std::uint64_t samples = 0;
  while (!stop.stop_requested()) {
    const std::size_t slot = current.load(std::memory_order_acquire);
    const serve::RequestStream& stream = st.streams[slot];
    for (std::uint64_t n = 0; n < kDriverBatch; ++n) {
      const serve::RequestStream::Request req = stream.at(index++);
      if (!trace || --until_sample != 0) {
        if (!st.admission->admit(req.klass, req.frontend, req.id)) {
          ++shed;
        } else if (st.dispatcher->route(req.klass, req.frontend, req.id)
                       .routed()) {
          ++routed;
        }
        continue;
      }
      until_sample = kLatencySampleEvery;
      const std::int64_t t0 = now_ns();
      const bool admitted =
          st.admission->admit(req.klass, req.frontend, req.id);
      const std::int64_t t1 = now_ns();
      bool routed_now = false;
      if (admitted) {
        routed_now =
            st.dispatcher->route(req.klass, req.frontend, req.id).routed();
      }
      const std::int64_t t2 = now_ns();
      shed += admitted ? 0 : 1;
      routed += routed_now ? 1 : 0;
      tally.admit_ns.push_back(
          std::max(0.0, static_cast<double>(t1 - t0) - overhead_ns));
      if (admitted) {
        tally.route_ns.push_back(
            std::max(0.0, static_cast<double>(t2 - t1) - overhead_ns));
      }
      if (++samples % (kSpanSampleEvery / kLatencySampleEvery) == 0) {
        const auto parent = static_cast<std::int64_t>(tally.spans.size());
        const auto s = static_cast<std::int64_t>(slot);
        tally.spans.push_back(Span{"decide", t0, t2, -1, s});
        tally.spans.push_back(Span{"admit", t0, t1, parent, s});
        if (admitted) tally.spans.push_back(Span{"route", t1, t2, parent, s});
      }
    }
    decisions += kDriverBatch;
    tally.progress.store(decisions, std::memory_order_relaxed);
  }
  tally.routed = routed;
  tally.shed = shed;
}

void drive(std::stop_token stop, const Stack& st,
           const std::atomic<std::size_t>& current, std::size_t driver,
           int cpu, bool trace, double overhead_ns, DriverTally& tally) {
  if (cpu >= 0) pin_current_thread({cpu});
  try {
    drive_loop(stop, st, current, driver, trace, overhead_ns, tally);
  } catch (const std::exception& e) {
    tally.error = e.what();
  }
}

/// Per-phase request tallies printed as sent / ok / failed.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t no_route = 0;
};

void print_tally(const char* phase, const Tally& t) {
  std::printf("%-10s sent %llu ok %llu failed %llu (shed %llu, no-route "
              "%llu)\n",
              phase, static_cast<unsigned long long>(t.sent),
              static_cast<unsigned long long>(t.ok),
              static_cast<unsigned long long>(t.shed + t.no_route),
              static_cast<unsigned long long>(t.shed),
              static_cast<unsigned long long>(t.no_route));
}

/// Everything the slot phase measures, before it becomes metrics.
struct SlotPhase {
  double seconds = 0.0;
  std::vector<double> slot_ms;
  /// Driver decisions per second over each slot period but the first.
  std::vector<double> window_mps;
  Tally drivers;
  Tally probes;
  Tally replay;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  double net_profit = 0.0;
  PolicyStats stats;
  std::map<int, std::uint64_t> rungs;
  std::uint64_t repairs = 0;
  std::uint64_t stalled_solves = 0;
  std::uint64_t plans_checked = 0;
  std::uint64_t violations = 0;
  std::vector<double> check_ns;
  std::vector<double> route_compile_ns;
  std::vector<double> admit_compile_ns;
  serve::Dispatcher::Stats dispatch;
  serve::AdmissionController::Stats admission;
  Usage usage;
  std::vector<double> admit_ns;
  std::vector<double> route_ns;
  std::vector<std::vector<Span>> driver_spans;
};

/// The measured phase: slot t = 1..num_slots is offered every period
/// while the drivers run; after each slot sample the slot thread audits
/// the plan being served and replays a fixed request block.
SlotPhase run_slots(Stack& st, const CpuPlan& cpus, SlotTrace* trace,
                    std::vector<std::string>& failures) {
  const Workload& w = st.workload;
  const bool tracing = trace != nullptr;
  const double overhead_ns = tracing ? clock_overhead_ns() : 0.0;
  const PlanChecker checker;
  SlotPhase out;

  std::atomic<std::size_t> current{0};
  std::vector<DriverTally> tallies(kDrivers);
  const serve::Dispatcher::Stats dispatch_before = st.dispatcher->stats();
  const serve::AdmissionController::Stats admission_before =
      st.admission->stats();
  const Usage usage_before = usage();
  const auto phase_start = Clock::now();
  // jthreads: on every way out of this function the drivers are asked
  // to stop and joined before `current` and `tallies` go away.
  std::vector<std::jthread> drivers;
  for (std::size_t d = 0; d < kDrivers; ++d) {
    const int cpu = cpus.drivers.empty() ? -1 : cpus.drivers[d];
    drivers.emplace_back(drive, std::cref(st), std::cref(current), d, cpu,
                         tracing, overhead_ns, std::ref(tallies[d]));
  }

  const auto driver_decisions = [&] {
    std::uint64_t total = 0;
    for (const DriverTally& tally : tallies) {
      total += tally.progress.load(std::memory_order_relaxed);
    }
    return total;
  };
  std::int64_t window_start = 0;
  std::uint64_t window_decisions = 0;
  std::uint64_t probe_index = kProbeIndexBase;
  for (std::size_t t = 1; t <= w.num_slots; ++t) {
    const auto due = phase_start +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             w.period_seconds * static_cast<double>(t - 1)));
    // Paces the offered slots like the paper's hourly loop, compressed;
    // plans and decisions never read the clock.
    // palb-lint: allow(D1) slot pacing only, outside the determinism perimeter
    std::this_thread::sleep_until(due);

    // ---- The slot sample: offered input -> first decision on its plan.
    const auto slot = static_cast<std::int64_t>(t);
    const std::int64_t offered = now_ns();
    const std::uint64_t decisions = driver_decisions();
    if (t > 1) {  // the first period includes the drivers' start-up
      out.window_mps.push_back(
          static_cast<double>(decisions - window_decisions) * 1e3 /
          static_cast<double>(offered - window_start));
    }
    window_start = offered;
    window_decisions = decisions;
    std::int64_t slot_span = -1;
    std::int64_t job_span = -1;
    if (tracing) {
      slot_span = trace->open("slot", offered, -1, slot);
      job_span = trace->open("job", now_ns(), slot_span, slot);
      trace->begin_job(job_span, slot);
    }
    const RunResult run = st.planner->solve_async(*st.policy, 1, t).get();
    const std::int64_t ready = now_ns();
    const std::uint64_t version = st.live.version();
    st.admission->set_offered(st.worlds[t].input);
    current.store(t, std::memory_order_release);
    // The drivers usually compile the new tables first (route() and
    // admit() refresh a stale table themselves); then these wait for them.
    const std::int64_t c0 = now_ns();
    st.dispatcher->refresh();
    const std::int64_t c1 = now_ns();
    st.admission->refresh();
    const std::int64_t c2 = now_ns();
    serve::Route first;
    std::uint64_t probes = 0;
    do {
      first = decide(st, st.streams[t].at(probe_index++));
      ++probes;
      ++out.probes.sent;
      if (first.status == serve::RouteStatus::kRouted) {
        ++out.probes.ok;
      } else if (first.status == serve::RouteStatus::kShed) {
        ++out.probes.shed;
      } else {
        ++out.probes.no_route;
      }
    } while (first.plan_version < version && probes < kMaxProbes);
    const std::int64_t decided = now_ns();
    out.slot_ms.push_back(ms(decided - offered));
    if (first.plan_version < version) {
      failures.push_back("probe: slot " + std::to_string(t) +
                         " never decided on plan version " +
                         std::to_string(version));
    }
    if (tracing) {
      trace->close(job_span, ready);
      trace->add("dispatch.refresh", c0, c1, slot_span, slot);
      trace->add("admission.refresh", c1, c2, slot_span, slot);
      trace->add("first_decision", c2, decided, slot_span, slot);
      trace->close(slot_span, decided);
    }

    // ---- Outside the slot window: audit the served plan and time the
    // two table compiles the serving objects ran on it.
    const PlanHandle::Snapshot served = st.live.acquire();
    const FaultedSlot& world = st.worlds[t];
    const Topology& topology = w.scenario.topology;
    const std::int64_t k0 = now_ns();
    const PlanCheckReport audit =
        checker.check(world.topology, world.input, *served.plan);
    const std::int64_t k1 = now_ns();
    serve::RoutingTable::compile(topology, *served.plan, version);
    const std::int64_t k2 = now_ns();
    serve::AdmissionTable::compile(topology, *served.plan, version,
                                   world.input, kBurstMargin);
    const std::int64_t k3 = now_ns();
    out.check_ns.push_back(static_cast<double>(k1 - k0));
    out.route_compile_ns.push_back(static_cast<double>(k2 - k1));
    out.admit_compile_ns.push_back(static_cast<double>(k3 - k2));
    if (tracing) {
      trace->add("plan_check", k0, k1, -1, slot);
      trace->add("dispatch.compile", k1, k2, -1, slot);
      trace->add("admission.compile", k2, k3, -1, slot);
    }
    ++out.plans_checked;
    out.violations += audit.violations.size();
    if (!audit.ok()) {
      failures.push_back("plan-check: slot " + std::to_string(t) + ": " +
                         audit.summary(3));
    }
    if (served.version != version) {
      failures.push_back("plan-version: slot " + std::to_string(t) +
                         " serves version " + std::to_string(served.version) +
                         ", planner published " + std::to_string(version));
    }

    // ---- Deterministic replay of stream indices [0, 1024).
    const std::int64_t r0 = now_ns();
    for (std::uint64_t i = 0; i < kReplayRequests; ++i) {
      const serve::RequestStream::Request req = st.streams[t].at(i);
      const serve::Route d = decide(st, req);
      ++out.replay.sent;
      std::uint64_t word = 0;
      if (d.status == serve::RouteStatus::kShed) {
        ++out.replay.shed;
        word = d.plan_version << 16 | 0xFFFFull;
      } else if (d.status == serve::RouteStatus::kNoRoute) {
        ++out.replay.no_route;
      } else {
        ++out.replay.ok;
        // The decision word of load_driver.hpp.
        word = d.plan_version << 16 | (static_cast<std::uint64_t>(d.dc) + 1);
        if (d.plan_version != version ||
            !(served.plan->rate[req.klass][req.frontend][d.dc] > 0.0)) {
          failures.push_back(
              "misroute: slot " + std::to_string(t) + " request " +
              std::to_string(i) + " routed to dc " + std::to_string(d.dc) +
              " with no planned rate for its (class, front-end)");
        }
      }
      out.digest = (out.digest ^ word) * 0x100000001b3ull;
    }
    if (tracing) trace->add("replay", r0, now_ns(), -1, slot);

    out.net_profit += run.total.net_profit();
    out.stats += run.stats;
    for (const int rung : run.fallback_rungs) ++out.rungs[rung];
    out.repairs += run.total_repairs();
    out.stalled_solves += run.stalled_solves;
  }
  if (tracing) trace->end_job();

  for (std::jthread& driver : drivers) driver.request_stop();
  for (std::jthread& driver : drivers) driver.join();
  out.seconds =
      std::chrono::duration<double>(Clock::now() - phase_start).count();
  const Usage usage_after = usage();
  out.usage.cpu_seconds = usage_after.cpu_seconds - usage_before.cpu_seconds;
  out.usage.context_switches =
      usage_after.context_switches - usage_before.context_switches;
  out.usage.max_rss_mb = usage_after.max_rss_mb;

  const serve::Dispatcher::Stats dispatch_after = st.dispatcher->stats();
  out.dispatch.rebuilds = dispatch_after.rebuilds - dispatch_before.rebuilds;
  out.dispatch.refresh_skips =
      dispatch_after.refresh_skips - dispatch_before.refresh_skips;
  out.dispatch.stalled_routes =
      dispatch_after.stalled_routes - dispatch_before.stalled_routes;
  const serve::AdmissionController::Stats admission_after =
      st.admission->stats();
  out.admission.rebuilds =
      admission_after.rebuilds - admission_before.rebuilds;
  out.admission.refresh_skips =
      admission_after.refresh_skips - admission_before.refresh_skips;

  for (DriverTally& tally : tallies) {
    out.drivers.sent += tally.progress.load(std::memory_order_relaxed);
    out.drivers.ok += tally.routed;
    out.drivers.shed += tally.shed;
    out.admit_ns.insert(out.admit_ns.end(), tally.admit_ns.begin(),
                        tally.admit_ns.end());
    out.route_ns.insert(out.route_ns.end(), tally.route_ns.begin(),
                        tally.route_ns.end());
    out.driver_spans.push_back(std::move(tally.spans));
    if (!tally.error.empty()) failures.push_back("driver: " + tally.error);
  }
  out.drivers.no_route = out.drivers.sent - out.drivers.ok - out.drivers.shed;
  if (out.dispatch.stalled_routes != 0) {
    failures.push_back("stalled-routes: " +
                       std::to_string(out.dispatch.stalled_routes) +
                       " routes blocked on a plan swap");
  }
  if (!std::isfinite(out.net_profit)) {
    failures.push_back("net-profit: not finite");
  }
  return out;
}

void add(std::vector<Metric>& metrics, const char* name, double value,
         const char* unit) {
  metrics.push_back(Metric{name, value, unit});
}

std::vector<Metric> end_to_end_metrics(double setup_s, const SlotPhase& p) {
  std::vector<Metric> m;
  add(m, "setup_s", setup_s, "s");
  add(m, "slot_ms_p50", quantile(p.slot_ms, 0.50), "ms");
  add(m, "slot_ms_p90", quantile(p.slot_ms, 0.90), "ms");
  add(m, "decide_mps", quantile(p.window_mps, 0.50), "M/s");
  add(m, "served_frac",
      ratio(static_cast<double>(p.replay.ok),
            static_cast<double>(p.replay.sent)),
      "fraction");
  add(m, "net_profit_usd", p.net_profit, "usd");
  add(m, "peak_rss_mb", p.usage.max_rss_mb, "MB");
  return m;
}

std::vector<Metric> per_layer_metrics(
    const SlotPhase& p, const std::map<std::string, SpanTimes>& spans) {
  const auto durations = [&](const char* name) -> std::vector<double> {
    const auto it = spans.find(name);
    return it == spans.end() ? std::vector<double>{} : it->second.duration_ns;
  };
  const auto span_ms = [&](const char* name, double q) {
    return quantile(durations(name), q) / 1e6;
  };
  const auto span_us = [&](const char* name, double q) {
    return quantile(durations(name), q) / 1e3;
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const PolicyStats& s = p.stats;
  const auto rung = [&](FallbackRung r) {
    const auto it = p.rungs.find(static_cast<int>(r));
    return it == p.rungs.end() ? 0.0 : count(it->second);
  };
  std::vector<double> job_self;
  if (const auto it = spans.find("job"); it != spans.end()) {
    job_self = it->second.self_ns;
  }
  std::vector<double> policy_ns = durations("plan_slot");
  const std::vector<double> degraded_ns = durations("plan_slot_degraded");
  policy_ns.insert(policy_ns.end(), degraded_ns.begin(), degraded_ns.end());
  double policy_ms = 0.0;
  for (const double ns : policy_ns) policy_ms += ns / 1e6;
  const double slots = count(p.slot_ms.size());

  std::vector<Metric> m;
  add(m, "planner.queue_wait_ms_p50", span_ms("queue_wait", 0.50), "ms");
  add(m, "planner.job_ms_p50", span_ms("job", 0.50), "ms");
  add(m, "planner.job_ms_p90", span_ms("job", 0.90), "ms");
  add(m, "core.plan_slot.calls", count(durations("plan_slot").size()),
      "count");
  add(m, "core.plan_slot.ms_p50", span_ms("plan_slot", 0.50), "ms");
  add(m, "core.plan_slot.ms_p90", span_ms("plan_slot", 0.90), "ms");
  add(m, "core.plan_slot_degraded.calls", count(degraded_ns.size()), "count");
  add(m, "core.plan_slot_degraded.ms_p50", span_ms("plan_slot_degraded", 0.50),
      "ms");
  add(m, "core.profiles_examined", count(s.profiles_examined), "count");
  add(m, "core.profiles_pruned", count(s.profiles_pruned), "count");
  add(m, "core.prune_ratio",
      ratio(count(s.profiles_pruned),
            count(s.profiles_examined + s.profiles_pruned)),
      "fraction");
  add(m, "core.warm_start_hit_rate", s.cache_hit_rate(), "fraction");
  add(m, "solver.pivots", count(s.lp_iterations), "count");
  add(m, "solver.pivots_per_ms", ratio(count(s.lp_iterations), policy_ms),
      "1/ms");
  add(m, "solver.phase1_skip_ratio",
      ratio(count(s.phase1_skips), count(s.profiles_examined)), "fraction");
  add(m, "solver.basis_warm_hit_ratio",
      ratio(count(s.basis_warm_hits), count(s.profiles_examined)),
      "fraction");
  add(m, "solver.sparse_skips_per_pivot",
      ratio(count(s.sparse_price_skips), count(s.lp_iterations)), "ratio");
  add(m, "solver.dw_master_iterations", count(s.master_iterations), "count");
  add(m, "solver.dw_subproblem_solves", count(s.subproblem_solves), "count");
  add(m, "fault.ladder_self_ms_p50", quantile(job_self, 0.50) / 1e6, "ms");
  add(m, "fault.rung_full_solve", rung(FallbackRung::kFullSolve), "count");
  add(m, "fault.rung_reduced_resolve", rung(FallbackRung::kReducedResolve),
      "count");
  add(m, "fault.rung_previous_plan", rung(FallbackRung::kPreviousPlan),
      "count");
  add(m, "fault.rung_heuristic", rung(FallbackRung::kHeuristic), "count");
  add(m, "fault.rung_shed_all", rung(FallbackRung::kShedAll), "count");
  add(m, "fault.full_solve_ratio",
      ratio(rung(FallbackRung::kFullSolve), slots), "fraction");
  add(m, "fault.repairs", count(p.repairs), "count");
  add(m, "fault.stalled_solves", count(p.stalled_solves), "count");
  add(m, "check.plan_check_us_p50", quantile(p.check_ns, 0.50) / 1e3, "us");
  add(m, "check.violations", count(p.violations), "count");
  add(m, "dispatch.compile_us_p50", quantile(p.route_compile_ns, 0.50) / 1e3,
      "us");
  add(m, "dispatch.rebuilds", count(p.dispatch.rebuilds), "count");
  add(m, "dispatch.refresh_skips", count(p.dispatch.refresh_skips), "count");
  add(m, "dispatch.stalled_routes", count(p.dispatch.stalled_routes),
      "count");
  add(m, "dispatch.route_ns_p50", quantile(p.route_ns, 0.50), "ns");
  add(m, "dispatch.route_ns_p99", quantile(p.route_ns, 0.99), "ns");
  add(m, "admission.compile_us_p50",
      quantile(p.admit_compile_ns, 0.50) / 1e3, "us");
  add(m, "admission.rebuilds", count(p.admission.rebuilds), "count");
  add(m, "admission.refresh_skips", count(p.admission.refresh_skips),
      "count");
  add(m, "admission.admit_ns_p50", quantile(p.admit_ns, 0.50), "ns");
  add(m, "admission.admit_ns_p99", quantile(p.admit_ns, 0.99), "ns");
  add(m, "admission.shed_frac",
      ratio(count(p.drivers.shed), count(p.drivers.sent)), "fraction");
  add(m, "swap.first_decision_us_p50", span_us("first_decision", 0.50), "us");
  add(m, "proc.cpu_util", p.usage.cpu_seconds / p.seconds, "cores");
  add(m, "proc.ctx_switches_per_s", p.usage.context_switches / p.seconds,
      "1/s");
  return m;
}

/// One group of set-up passes; appends each pass's seconds to `seconds`
/// and returns the last pass's objects.
std::unique_ptr<Stack> set_up_passes(const RunOptions& options,
                                     SlotTrace* trace,
                                     std::vector<double>& seconds) {
  std::unique_ptr<Stack> st;
  double total = 0.0;
  for (std::size_t pass = 0;
       pass < kMaxSetupPasses &&
       (pass < kMinSetupPasses || total < kSetupBudgetSeconds);
       ++pass) {
    st.reset();
    const auto start = Clock::now();
    st = set_up(options, trace);
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    total += seconds.back();
  }
  return st;
}

void print_self_times(const std::map<std::string, SpanTimes>& spans) {
  std::printf("%-22s %8s %12s %12s %12s\n", "span", "count", "self ms",
              "self p50 us", "dur p50 us");
  for (const auto& [name, times] : spans) {
    double self_total = 0.0;
    for (const double ns : times.self_ns) self_total += ns;
    std::printf("%-22s %8zu %12.3f %12.3f %12.3f\n", name.c_str(),
                times.self_ns.size(), self_total / 1e6,
                quantile(times.self_ns, 0.50) / 1e3,
                quantile(times.duration_ns, 0.50) / 1e3);
  }
}

}  // namespace

RunReport run_workload(const RunOptions& options) {
  const CpuPlan cpus = plan_cpus();
  // Before any planner exists, so its pool inherits the placement.
  pin_current_thread(cpus.slot);

  std::unique_ptr<SlotTrace> trace;
  if (options.trace) trace = std::make_unique<SlotTrace>();

  std::vector<double> setup_seconds;
  std::unique_ptr<Stack> st =
      set_up_passes(options, trace.get(), setup_seconds);
  std::printf("e2e %s seed %llu: %zu slots every %.0f ms, %zu drivers; "
              "cpus slot/planner %s, drivers %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              st->workload.num_slots, st->workload.period_seconds * 1e3,
              kDrivers, cpu_list(cpus.slot).c_str(),
              cpu_list(cpus.drivers).c_str());

  RunReport report;
  const SlotPhase p = run_slots(*st, cpus, trace.get(), report.failures);
  st.reset();
  set_up_passes(options, trace.get(), setup_seconds);
  const double setup_s = quantile(setup_seconds, 0.50);
  std::printf("%-10s %zu passes, median %.4f s, each sent 1 request\n",
              "setup", setup_seconds.size(), setup_s);
  print_tally("drivers", p.drivers);
  print_tally("probes", p.probes);
  print_tally("replay", p.replay);
  std::printf("%-10s n %zu slot samples, %llu plans audited, %llu "
              "violations, %llu stalled routes, decision digest %016llx\n",
              "slots", p.slot_ms.size(),
              static_cast<unsigned long long>(p.plans_checked),
              static_cast<unsigned long long>(p.violations),
              static_cast<unsigned long long>(p.dispatch.stalled_routes),
              static_cast<unsigned long long>(p.digest));

  report.attempted = p.plans_checked + p.replay.sent;
  const std::vector<Metric> e2e = end_to_end_metrics(setup_s, p);
  if (!options.trace) {
    report.metrics = e2e;
    return report;
  }

  std::printf("traced end-to-end:");
  for (const Metric& metric : e2e) {
    std::printf(" %s=%.17g", metric.name.c_str(), metric.value);
  }
  std::printf("\n");
  const std::vector<Span> slot_spans = trace->spans();
  std::map<std::string, SpanTimes> spans;
  collect_span_times(slot_spans, spans);
  for (const std::vector<Span>& list : p.driver_spans) {
    collect_span_times(list, spans);
  }
  print_self_times(spans);
  report.metrics = per_layer_metrics(p, spans);
  if (!options.trace_dir.empty()) {
    // One file per workload, overwritten by its next traced run: a traced
    // run writes tens of MB.
    const std::string path =
        options.trace_dir + "/" + options.workload + ".jsonl";
    std::vector<std::vector<Span>> lists = {slot_spans};
    lists.insert(lists.end(), p.driver_spans.begin(), p.driver_spans.end());
    if (write_spans_jsonl(path, lists)) {
      std::printf("spans written to %s\n", path.c_str());
    } else {
      report.failures.push_back("trace: cannot write " + path);
    }
  }
  return report;
}

}  // namespace palb::e2e
