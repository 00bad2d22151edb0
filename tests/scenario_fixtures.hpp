#pragma once

#include <cstdint>
#include <string>

#include "cloud/model.hpp"

namespace palb::testing_fixtures {

/// FNV-1a over the bytes of `text`: pins a generator's or a solver's
/// serialized output across commits.
inline std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t digest = 0xcbf29ce484222325ull;  // offset basis
  for (const unsigned char byte : text) {
    digest = (digest ^ byte) * 0x100000001b3ull;  // prime
  }
  return digest;
}

/// Small 2-class / 2-front-end / 2-DC system with meaningful price and
/// distance asymmetry: dc1 is cheap-energy and close, dc2 is expensive
/// and far but has more muscle for class 1.
inline Topology small_topology() {
  Topology topo;
  topo.classes = {
      {"web", StepTuf::constant(0.01, 0.1), 1e-6},
      {"api", StepTuf({0.02, 0.01}, {0.05, 0.15}), 2e-6},
  };
  topo.frontends = {{"fe1"}, {"fe2"}};
  topo.datacenters = {
      {"dc1", 4, 1.0, {100.0, 90.0}, {0.002, 0.003}, 1.0},
      {"dc2", 4, 1.0, {140.0, 80.0}, {0.003, 0.002}, 1.0},
  };
  topo.distance_miles = {{200.0, 1500.0}, {600.0, 1000.0}};
  return topo;
}

inline SlotInput small_input(double scale = 1.0) {
  SlotInput input;
  input.arrival_rate = {{60.0 * scale, 40.0 * scale},
                        {30.0 * scale, 50.0 * scale}};
  input.price = {0.04, 0.09};
  input.slot_seconds = 3600.0;
  return input;
}

}  // namespace palb::testing_fixtures
