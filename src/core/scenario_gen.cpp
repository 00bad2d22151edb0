#include "core/scenario_gen.hpp"

#include "market/price_generator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace palb::scenario_gen {

namespace {

/// Per-request utility range ($) for the top TUF level.
constexpr double kMinUtility = 0.004, kMaxUtility = 0.05;

}  // namespace

Scenario generate(std::uint64_t seed) { return generate(seed, Options{}); }

Scenario generate(std::uint64_t seed, const Options& opt) {
  PALB_REQUIRE(opt.min_classes >= 1 && opt.max_classes >= opt.min_classes,
               "bad class count range");
  PALB_REQUIRE(opt.min_frontends >= 1 &&
                   opt.max_frontends >= opt.min_frontends,
               "bad front-end count range");
  PALB_REQUIRE(opt.min_datacenters >= 1 &&
                   opt.max_datacenters >= opt.min_datacenters,
               "bad data-center count range");
  PALB_REQUIRE(opt.min_servers >= 1 && opt.max_servers >= opt.min_servers,
               "bad server count range");
  PALB_REQUIRE(opt.max_tuf_levels >= 1, "need at least one TUF level");
  PALB_REQUIRE(opt.slots >= 1, "need at least one slot");

  Rng rng(seed * 2654435761u + 97);
  Scenario sc;
  sc.slot_seconds = 3600.0;

  const std::size_t K =
      opt.min_classes + rng.uniform_index(opt.max_classes - opt.min_classes + 1);
  const std::size_t S = opt.min_frontends +
                        rng.uniform_index(opt.max_frontends -
                                          opt.min_frontends + 1);
  const std::size_t L = opt.min_datacenters +
                        rng.uniform_index(opt.max_datacenters -
                                          opt.min_datacenters + 1);

  for (std::size_t k = 0; k < K; ++k) {
    const std::size_t levels = 1 + rng.uniform_index(opt.max_tuf_levels);
    std::vector<double> utilities, deadlines;
    double u = rng.uniform(kMinUtility, kMaxUtility);
    double d = rng.uniform(0.02, 0.2);
    for (std::size_t q = 0; q < levels; ++q) {
      utilities.push_back(u);
      deadlines.push_back(d);
      u *= rng.uniform(0.3, 0.8);
      d *= rng.uniform(1.5, 3.0);
    }
    sc.topology.classes.push_back(
        RequestClass{"class" + std::to_string(k),
                     StepTuf(std::move(utilities), std::move(deadlines)),
                     rng.uniform(0.0, 3e-6), 0.0});
  }
  for (std::size_t s = 0; s < S; ++s) {
    sc.topology.frontends.push_back(FrontEnd{"fe" + std::to_string(s)});
  }
  for (std::size_t l = 0; l < L; ++l) {
    DataCenter dc;
    dc.name = "dc" + std::to_string(l);
    dc.num_servers =
        opt.min_servers +
        static_cast<int>(rng.uniform_index(
            static_cast<std::uint64_t>(opt.max_servers - opt.min_servers) +
            1));
    dc.server_capacity = rng.uniform(0.5, 2.0);
    // Some DCs get idle power, and PUEs above 1.
    dc.pue = rng.uniform(1.0, 1.8);
    dc.idle_power_kw = rng.bernoulli(0.3) ? rng.uniform(0.0, 5.0) : 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      dc.service_rate.push_back(rng.uniform(40.0, 250.0));
      dc.energy_per_request_kwh.push_back(rng.uniform(0.0, 0.01));
    }
    sc.topology.datacenters.push_back(std::move(dc));
  }
  sc.topology.distance_miles.assign(S, std::vector<double>(L, 0.0));
  for (auto& row : sc.topology.distance_miles) {
    for (double& d : row) d = rng.uniform(0.0, 3000.0);
  }

  // Arrivals: diurnal base per stream, some streams silent.
  sc.arrivals.resize(K);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < S; ++s) {
      if (rng.bernoulli(opt.zero_rate_probability)) {
        sc.arrivals[k].push_back(
            workload::constant("silent", 0.0, opt.slots));
        continue;
      }
      workload::WorldCupParams wp;
      wp.base_rate = rng.uniform(5.0, 60.0);
      wp.daily_peak = wp.base_rate * rng.uniform(2.0, 6.0);
      wp.match_boost = rng.uniform(1.0, 1.8);
      wp.burst_sigma = rng.uniform(0.0, 0.25);
      wp.phase_shift = rng.uniform_index(24);
      wp.slots = opt.slots;
      Rng stream = rng.substream(k * 131 + s);
      sc.arrivals[k].push_back(workload::worldcup_like(
          "k" + std::to_string(k) + "s" + std::to_string(s), wp, stream));
    }
  }

  // Prices: OU around a per-location mean.
  OuPriceGenerator::Params ou;
  for (std::size_t l = 0; l < L; ++l) {
    ou.mean = rng.uniform(0.02, 0.1);
    ou.diurnal_amplitude = rng.uniform(0.0, 0.04);
    ou.peak_hour = rng.uniform(10.0, 20.0);
    ou.volatility = rng.uniform(0.0, 0.01);
    OuPriceGenerator gen(ou);
    Rng stream = rng.substream(1000 + l);
    sc.prices.push_back(
        gen.generate("loc" + std::to_string(l), opt.slots, stream));
  }

  sc.validate();
  return sc;
}

}  // namespace palb::scenario_gen
