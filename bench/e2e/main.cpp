// End-to-end benchmark of the two-speed serving system (README.md):
// AsyncPlanner -> ResilientController -> OptimizedPolicy -> PlanHandle
// -> Dispatcher / AdmissionController, one workload per run.
//
//   palb_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--trace-dir DIR]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Exit 0 when every correctness check held, 1 when
// one failed (each named on stderr, "correct": false), 2 on a usage or
// set-up error (no result line).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr, "error: %s\n", message);
  std::fprintf(stderr,
               "usage: palb_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-dir DIR]\nworkloads:");
  for (const std::string& name : palb::e2e::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_unsigned(const char* text, unsigned long long& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && text[0] != '-';
}

void print_result(const palb::e2e::RunReport& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const palb::e2e::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  palb::e2e::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && parse_unsigned(value, number)) {
      options.seed = number;
    } else if (flag == "--seconds" && parse_unsigned(value, number) &&
               number > 0 && number <= 600) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && parse_unsigned(value, number) &&
               number <= 1) {
      options.trace = number == 1;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (options.workload.empty()) return usage("--workload is required");

  palb::e2e::RunReport report;
  try {
    report = palb::e2e::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  for (const palb::e2e::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.failures.push_back("metric " + m.name + " is not finite");
    }
  }
  constexpr std::size_t kMaxPrinted = 20;
  for (std::size_t i = 0; i < report.failures.size() && i < kMaxPrinted;
       ++i) {
    std::fprintf(stderr, "FAIL %s\n", report.failures[i].c_str());
  }
  if (report.failures.size() > kMaxPrinted) {
    std::fprintf(stderr, "FAIL ... %zu more\n",
                 report.failures.size() - kMaxPrinted);
  }
  std::fflush(stderr);
  report.failed = report.failures.size();
  print_result(report);
  return report.failures.empty() ? 0 : 1;
}
