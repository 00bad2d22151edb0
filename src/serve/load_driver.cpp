#include "serve/load_driver.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "serve/routing_table.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace palb::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

constexpr std::uint64_t kIndexStride = 0x9E3779B97F4A7C15ull;

/// Calibrates the cost of one steady-clock read: the min over a burst
/// of back-to-back Clock::now() pairs is the irreducible read-to-read
/// distance, which every timed latency sample pays on top of the route
/// itself. Subtracting it keeps the sampled p50 honest — on a sub-100ns
/// fast path the clock read is a double-digit percentage of the sample.
double calibrate_clock_overhead_ns() {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 256; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::nano>(b - a).count());
  }
  return best;
}

/// One driver thread's private tallies, merged after the join.
struct ThreadTally {
  std::uint64_t requests = 0;
  std::uint64_t routed = 0;
  std::uint64_t no_route = 0;
  std::uint64_t shed = 0;
  std::uint64_t min_version = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_version = 0;
  std::vector<double> latency_ns;

  void count(const Route& route) {
    ++requests;
    if (route.routed()) {
      ++routed;
      min_version = std::min(min_version, route.plan_version);
      max_version = std::max(max_version, route.plan_version);
    } else if (route.status == RouteStatus::kShed) {
      ++shed;
    } else {
      ++no_route;
    }
  }
};

/// One driver thread's table and gate snapshots, re-taken at every batch
/// boundary (no gate without QpsOptions::admission).
struct Snapshots {
  std::shared_ptr<const RoutingTable> table;
  std::shared_ptr<const AdmissionTable> gate;
};

/// The full per-request decision with the admission gate in front: a
/// rejected request is shed (stamped with the gate's plan version) and
/// never reaches the routing table.
Route decide(const Snapshots& snap, const RequestStream::Request& req) {
  if (snap.gate && !snap.gate->admit(req.klass, req.frontend, req.id)) {
    return Route{RouteStatus::kShed, 0, snap.gate->plan_version()};
  }
  if (!snap.table) return Route{};
  return snap.table->route(req.klass, req.frontend, req.id);
}

/// The recorded decision word (load_driver.hpp, QpsReport::decisions).
std::uint64_t decision_word(const Route& route) {
  switch (route.status) {
    case RouteStatus::kRouted:
      return route.plan_version << 16 |
             (static_cast<std::uint64_t>(route.dc) + 1);
    case RouteStatus::kShed:
      return route.plan_version << 16 | 0xFFFFull;
    case RouteStatus::kNoRoute:
      break;
  }
  return 0;
}

}  // namespace

RequestStream RequestStream::compile(const Topology& topology,
                                     const SlotInput& mix,
                                     std::uint64_t seed) {
  const std::size_t K = topology.num_classes();
  const std::size_t S = topology.num_frontends();
  PALB_REQUIRE(mix.arrival_rate.size() == K,
               "mix/topology class-count mismatch in RequestStream");
  RequestStream stream;
  stream.seed_ = seed;
  double total = 0.0;
  for (std::size_t k = 0; k < K; ++k) {
    PALB_REQUIRE(mix.arrival_rate[k].size() == S,
                 "mix/topology front-end-count mismatch in RequestStream");
    for (std::size_t s = 0; s < S; ++s) total += mix.arrival_rate[k][s];
  }
  PALB_REQUIRE(total > 0.0,
               "RequestStream needs at least one positive arrival rate");
  double cumulative = 0.0;
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < S; ++s) {
      const double rate = mix.arrival_rate[k][s];
      if (rate <= 0.0) continue;
      cumulative += rate / total;
      stream.cum_.push_back(cumulative);
      stream.klass_.push_back(static_cast<std::uint32_t>(k));
      stream.frontend_.push_back(static_cast<std::uint32_t>(s));
    }
  }
  stream.cum_.back() = 1.0;
  return stream;
}

RequestStream::Request RequestStream::at(std::uint64_t index) const {
  // Stateless golden-ratio scramble: (seed, index) -> two independent
  // 64-bit draws, so any thread partition replays the same stream.
  SplitMix64 mix(seed_ ^ (kIndexStride * (index + 1)));
  const double u =
      static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  const std::uint64_t id = mix.next();
  const auto hit = std::upper_bound(cum_.begin(), cum_.end(), u);
  const std::size_t i = hit == cum_.end()
                            ? cum_.size() - 1
                            : static_cast<std::size_t>(hit - cum_.begin());
  return Request{klass_[i], frontend_[i], id};
}

QpsReport run_qps(const Dispatcher& dispatcher, const RequestStream& stream,
                  const QpsOptions& options) {
  std::size_t threads = options.threads == 0
                            ? std::max<std::size_t>(
                                  1, std::thread::hardware_concurrency())
                            : options.threads;
  const bool fixed = options.total_requests > 0;
  if (fixed) {
    threads =
        std::min<std::size_t>(threads, options.total_requests);
  }
  const std::uint64_t refresh_every = std::max<std::uint64_t>(
      1, options.refresh_every);
  const std::uint64_t sample_every = std::max<std::uint64_t>(
      1, options.latency_sample_every);

  QpsReport report;
  report.threads = threads;
  if (options.record_decisions) {
    PALB_REQUIRE(fixed,
                 "record_decisions needs fixed mode (total_requests > 0)");
    report.decisions.assign(options.total_requests, 0);
  }

  // Catch the tables up to the current plan before any driver starts:
  // without this, the very first try_refresh() race lets the losing
  // threads route a batch against a not-yet-compiled (or stale) table,
  // which would make fixed-mode recordings depend on thread timing.
  // Plans published *during* the run are still picked up at batch
  // boundaries only. The admission gate follows the same discipline.
  dispatcher.refresh();
  const AdmissionController* admission = options.admission;
  if (admission != nullptr) admission->refresh();
  report.clock_overhead_ns = fixed ? 0.0 : calibrate_clock_overhead_ns();

  // Batch boundary, shared by both modes: pick up any freshly published
  // plan. Never blocks — a peer mid-compile means the thread keeps the
  // incumbent tables.
  const auto pick_up = [&] {
    dispatcher.try_refresh();
    Snapshots snap{dispatcher.tables(), nullptr};
    if (admission != nullptr) {
      admission->try_refresh();
      snap.gate = admission->table();
    }
    return snap;
  };

  const Dispatcher::Stats before = dispatcher.stats();
  std::vector<ThreadTally> tallies(threads);
  std::vector<std::thread> drivers;
  drivers.reserve(threads);
  const auto start = Clock::now();

  if (fixed) {
    // Contiguous index blocks per thread (SlotController's layout): the
    // decision at stream index i is identical no matter which thread
    // owns i, so recordings are byte-identical across thread counts.
    const std::uint64_t total = options.total_requests;
    const std::uint64_t base = total / threads;
    const std::uint64_t extra = total % threads;
    std::uint64_t offset = 0;
    for (std::size_t t = 0; t < threads; ++t) {
      const std::uint64_t count = base + (t < extra ? 1 : 0);
      const std::uint64_t first = offset;
      offset += count;
      drivers.emplace_back([&, t, first, count] {
        ThreadTally& tally = tallies[t];
        Snapshots snap;
        for (std::uint64_t n = 0; n < count; ++n) {
          if (n % refresh_every == 0) snap = pick_up();
          const std::uint64_t index = first + n;
          const RequestStream::Request req = stream.at(index);
          const Route route = decide(snap, req);
          tally.count(route);
          if (!report.decisions.empty()) {
            report.decisions[index] = decision_word(route);
          }
        }
      });
    }
  } else {
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.seconds));
    for (std::size_t t = 0; t < threads; ++t) {
      // `deadline` by value: the block scope it lives in closes before
      // the join below, so a reference capture would dangle.
      drivers.emplace_back([&, t, deadline] {
        ThreadTally& tally = tallies[t];
        // Disjoint per-thread index ranges decorrelate the streams
        // without shared state; 2^40 indices per thread is days of
        // headroom at any realistic rate.
        const std::uint64_t first = static_cast<std::uint64_t>(t) << 40;
        // Countdown gate instead of `n % sample_every`: the unsampled
        // fast path pays one predictable dec-and-branch, not a 64-bit
        // modulo per request.
        std::uint64_t until_sample = 1;
        std::uint64_t n = 0;
        while (Clock::now() < deadline) {
          const Snapshots snap = pick_up();
          const std::uint64_t batch_end = n + refresh_every;
          for (; n < batch_end; ++n) {
            const RequestStream::Request req = stream.at(first + n);
            if (--until_sample == 0) {
              until_sample = sample_every;
              const auto t0 = Clock::now();
              const Route route = decide(snap, req);
              const auto t1 = Clock::now();
              tally.count(route);
              const double raw =
                  std::chrono::duration<double, std::nano>(t1 - t0)
                      .count();
              tally.latency_ns.push_back(
                  std::max(0.0, raw - report.clock_overhead_ns));
            } else {
              tally.count(decide(snap, req));
            }
          }
        }
      });
    }
  }

  for (std::thread& th : drivers) th.join();
  report.elapsed_seconds = seconds_since(start);

  SampleSet latencies;
  std::uint64_t min_version = std::numeric_limits<std::uint64_t>::max();
  for (const ThreadTally& tally : tallies) {
    report.requests += tally.requests;
    report.routed += tally.routed;
    report.no_route += tally.no_route;
    report.shed += tally.shed;
    min_version = std::min(min_version, tally.min_version);
    report.max_plan_version =
        std::max(report.max_plan_version, tally.max_version);
    for (const double ns : tally.latency_ns) latencies.add(ns);
  }
  report.min_plan_version = report.routed > 0 ? min_version : 0;
  report.latency_samples = latencies.samples().size();
  if (report.latency_samples > 0) {
    report.p50_ns = latencies.quantile(0.50);
    report.p90_ns = latencies.quantile(0.90);
    report.p99_ns = latencies.quantile(0.99);
    report.p999_ns = latencies.quantile(0.999);
    report.max_ns = latencies.max();
  }

  const Dispatcher::Stats after = dispatcher.stats();
  report.dispatcher.rebuilds = after.rebuilds - before.rebuilds;
  report.dispatcher.refresh_skips =
      after.refresh_skips - before.refresh_skips;
  return report;
}

std::uint64_t wait_for_version(const Dispatcher& dispatcher,
                               std::uint64_t min_version,
                               double timeout_seconds) {
  const auto start = Clock::now();
  for (;;) {
    dispatcher.refresh();
    const std::uint64_t have = dispatcher.table_version();
    if (have >= min_version || seconds_since(start) >= timeout_seconds) {
      return have;
    }
    std::this_thread::yield();
  }
}

}  // namespace palb::serve
