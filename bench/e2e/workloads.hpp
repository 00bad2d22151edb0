#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "fault/fault.hpp"

namespace palb::e2e {

/// One benchmark workload, fully generated from (name, seed, seconds).
/// Slot 0 is solved during set-up; slots 1..num_slots are the measured
/// slot phase, one offered every `period_seconds`.
struct Workload {
  std::string name;
  Scenario scenario;
  FaultSchedule schedule;
  std::size_t num_slots = 0;
  double period_seconds = 0.0;
};

/// The workload names, in their default run order.
const std::vector<std::string>& workload_names();

/// Builds the named workload's inputs; throws InvalidArgument on an
/// unknown name. Same (name, seed, seconds) gives the same inputs.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds);

}  // namespace palb::e2e
