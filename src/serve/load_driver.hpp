#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cloud/model.hpp"
#include "serve/admission.hpp"
#include "serve/dispatcher.hpp"

namespace palb::serve {

/// Deterministic synthetic request stream, the gRPC-QPS-style driver's
/// workload half: request index -> (class, front-end, request id), a
/// pure function of (mix, seed, index). The (class, front-end) pair is
/// drawn from the CDF of the slot's offered arrival rates (so the
/// synthetic mix matches what the optimizer planned for) and the id is
/// an independent 64-bit draw. Because at() carries no state, any
/// partition of the index range over driver threads replays the exact
/// same stream — the root of the byte-identical-across-thread-counts
/// guarantee (tests/test_dispatch_determinism.cpp).
class RequestStream {
 public:
  struct Request {
    std::size_t klass = 0;
    std::size_t frontend = 0;
    std::uint64_t id = 0;
  };

  /// Compiles the (class, front-end) mix from `mix`'s arrival rates.
  /// Throws InvalidArgument when every offered rate is zero.
  static RequestStream compile(const Topology& topology,
                               const SlotInput& mix, std::uint64_t seed);

  Request at(std::uint64_t index) const;

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_ = 0;
  std::vector<double> cum_;  ///< CDF over positive-rate streams, ends at 1.0
  std::vector<std::uint32_t> klass_;
  std::vector<std::uint32_t> frontend_;
};

/// Closed-loop driver configuration. Two modes:
///  * timed (total_requests == 0): every thread routes back-to-back
///    until `seconds` elapse — the throughput/latency benchmark.
///  * fixed (total_requests > 0): exactly that many stream indices are
///    routed, contiguous blocks per thread, optionally recording each
///    decision — the determinism harness. Byte-identical recordings
///    across thread counts require a quiescent plan (no concurrent
///    publishes), which is the caller's to arrange.
struct QpsOptions {
  std::size_t threads = 1;  ///< 0 = one per hardware thread
  double seconds = 1.0;
  std::uint64_t total_requests = 0;
  /// Poll Dispatcher::try_refresh() every this many requests per thread
  /// (the plan-swap pickup cadence of the batch fast path).
  std::uint64_t refresh_every = 1024;
  /// Sample the per-route latency on every Nth request (timed mode).
  /// The gate is a per-thread countdown, not a modulo, and the steady-
  /// clock read overhead (calibrated once per run) is subtracted from
  /// every sample — so sampling distorts neither the unsampled fast
  /// path nor the sampled latencies themselves (docs/SERVING.md).
  std::uint64_t latency_sample_every = 16;
  bool record_decisions = false;  ///< fixed mode only
  /// Optional admission gate (not owned; must outlive the run). When
  /// set, every request is admission-controlled *before* routing:
  /// rejected requests count as shed and never reach the dispatcher
  /// (docs/OVERLOAD.md). Refreshed at the same batch cadence as the
  /// routing tables.
  const AdmissionController* admission = nullptr;
};

/// Merged result of one driver run.
struct QpsReport {
  std::size_t threads = 0;
  std::uint64_t requests = 0;
  std::uint64_t routed = 0;
  std::uint64_t no_route = 0;
  /// Requests dropped by the admission gate before routing (always 0
  /// when QpsOptions::admission is unset).
  std::uint64_t shed = 0;
  double elapsed_seconds = 0.0;
  /// Aggregate routing decisions per second across all driver threads.
  double qps() const {
    return elapsed_seconds > 0.0
               ? static_cast<double>(requests) / elapsed_seconds
               : 0.0;
  }
  /// Routing-decision latency percentiles in nanoseconds (0 when no
  /// samples were taken — fixed mode does not time individual routes).
  double p50_ns = 0.0, p90_ns = 0.0, p99_ns = 0.0, p999_ns = 0.0;
  double max_ns = 0.0;
  std::uint64_t latency_samples = 0;
  /// Calibrated steady-clock read overhead subtracted from every
  /// latency sample (the min of a back-to-back Clock::now() burst).
  double clock_overhead_ns = 0.0;
  /// Plan versions observed on routed requests (both 0 when none routed).
  std::uint64_t min_plan_version = 0;
  std::uint64_t max_plan_version = 0;
  /// Dispatcher counter deltas over this run: table rebuilds, benign
  /// refresh skips, and the plan-swap stall count (structurally 0).
  Dispatcher::Stats dispatcher;
  /// Fixed mode with record_decisions: one word per stream index —
  /// 0 for no-route, (plan_version << 16) | (dc + 1) for a routed
  /// request, and (plan_version << 16) | 0xFFFF for one the admission
  /// gate shed (version = the gate's compiled plan version; 0xFFFF
  /// cannot collide with dc + 1 at paper-scale DC counts). Two runs
  /// decided identically iff these vectors compare equal.
  std::vector<std::uint64_t> decisions;
};

/// Runs the closed-loop driver against `dispatcher`.
QpsReport run_qps(const Dispatcher& dispatcher, const RequestStream& stream,
                  const QpsOptions& options);

/// Spins (yielding, never sleeping) until the dispatcher's compiled
/// tables reach `min_version` or `timeout_seconds` pass; returns the
/// table version actually reached. The serving handshake: start driver
/// threads only once the slow path has published its first plan.
std::uint64_t wait_for_version(const Dispatcher& dispatcher,
                               std::uint64_t min_version,
                               double timeout_seconds);

}  // namespace palb::serve
