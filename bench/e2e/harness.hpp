#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace palb::e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  /// Wraps the policy and records spans; reports the per-layer metrics
  /// instead of the end-to-end ones.
  bool trace = false;
  /// Where a traced run writes its spans as JSONL (empty = nowhere).
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  /// Empty when every correctness check held; otherwise one named
  /// message per failed check.
  std::vector<std::string> failures;
  /// Checked operations: audited plans plus replayed decisions.
  std::uint64_t attempted = 0;
  /// Failed checks (failures.size(), set by the caller).
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload end to end: repeated set-up, the paced slot phase
/// with two closed-loop driver threads, the per-slot correctness checks
/// and the deterministic replay. Human-readable detail goes to stdout;
/// the caller prints the result line.
RunReport run_workload(const RunOptions& options);

}  // namespace palb::e2e
