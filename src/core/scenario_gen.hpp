#pragma once

#include <cstdint>

#include "core/controller.hpp"

namespace palb {

/// Seeded random-scenario generator: the workhorse behind the fuzz
/// suite, the scale bench and the CLI's `random:SEED` scenarios. Every
/// draw is deterministic in (seed, options), so a failing seed is a
/// complete bug report.
namespace scenario_gen {

struct Options {
  std::size_t min_classes = 1, max_classes = 3;
  std::size_t min_frontends = 1, max_frontends = 4;
  std::size_t min_datacenters = 1, max_datacenters = 4;
  int min_servers = 2, max_servers = 10;
  std::size_t max_tuf_levels = 3;
  std::size_t slots = 24;
  /// Fraction of (class, front-end) streams that are silent.
  double zero_rate_probability = 0.1;
};

/// Builds a validated scenario (topology + diurnal-ish arrival traces +
/// OU price traces) from the seed.
Scenario generate(std::uint64_t seed, const Options& options);
Scenario generate(std::uint64_t seed);

}  // namespace scenario_gen
}  // namespace palb
