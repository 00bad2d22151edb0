#include "serve/admission.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace palb::serve {

namespace {

/// Decorrelates the admission hash from the routing hash: both map the
/// request id into [0, 1) via SplitMix64, and without a salt the two
/// draws would be the *same* number — every admitted request would carry
/// a low hash and pile onto the low end of the routing CDF. XORing a
/// fixed odd constant plus a per-stream offset before scrambling makes
/// the admission draw independent of the routing draw and of every
/// other stream's, while staying a pure function of (stream, id).
constexpr std::uint64_t kAdmissionSalt = 0xC2B2AE3D27D4EB4Full;

double admission_unit(std::size_t stream, std::uint64_t request_id) {
  SplitMix64 mix(request_id ^
                 (kAdmissionSalt * (static_cast<std::uint64_t>(stream) + 1)));
  return static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
}

}  // namespace

AdmissionTable AdmissionTable::compile(const Topology& topology,
                                       const DispatchPlan& plan,
                                       std::uint64_t plan_version,
                                       const SlotInput& offered,
                                       double burst_margin) {
  const std::size_t K = topology.num_classes();
  const std::size_t S = topology.num_frontends();
  const std::size_t L = topology.num_datacenters();
  PALB_REQUIRE(plan.rate.size() == K,
               "plan/topology class-count mismatch in AdmissionTable");
  PALB_REQUIRE(offered.arrival_rate.size() == K,
               "offered/topology class-count mismatch in AdmissionTable");
  PALB_REQUIRE(burst_margin >= 0.0 && std::isfinite(burst_margin),
               "burst margin must be finite and non-negative");

  AdmissionTable table;
  table.num_classes_ = K;
  table.num_frontends_ = S;
  table.plan_version_ = plan_version;
  table.fraction_.assign(K * S, 0.0);

  // Planned dispatched rate per stream: what the optimizer provisioned.
  std::vector<double> planned(K * S, 0.0);
  for (std::size_t k = 0; k < K; ++k) {
    PALB_REQUIRE(plan.rate[k].size() == S,
                 "plan/topology front-end-count mismatch in AdmissionTable");
    PALB_REQUIRE(offered.arrival_rate[k].size() == S,
                 "offered/topology front-end-count mismatch in AdmissionTable");
    for (std::size_t s = 0; s < S; ++s) {
      const std::vector<double>& row = plan.rate[k][s];
      PALB_REQUIRE(row.size() == L,
                   "plan/topology DC-count mismatch in AdmissionTable");
      double total = 0.0;
      for (std::size_t l = 0; l < L; ++l) {
        PALB_REQUIRE(row[l] >= 0.0, "negative dispatch rate in AdmissionTable");
        total += row[l];
      }
      const double lambda = offered.arrival_rate[k][s];
      PALB_REQUIRE(lambda >= 0.0 && std::isfinite(lambda),
                   "offered arrival rate must be finite and non-negative");
      planned[k * S + s] = total;
    }
  }

  // Per front-end: pool the spare planned capacity of under-subscribed
  // streams, then grant it to over-subscribed streams in class order —
  // class 0 (interactive) refills first, so under front-end-wide
  // overload the batch classes run out of grant and shed first.
  for (std::size_t s = 0; s < S; ++s) {
    double spare = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      const double lambda = offered.arrival_rate[k][s];
      spare += std::max(0.0, planned[k * S + s] - lambda);
    }
    for (std::size_t k = 0; k < K; ++k) {
      const std::size_t i = k * S + s;
      const double lambda = offered.arrival_rate[k][s];
      if (lambda <= 0.0) {
        // Nothing offered: a provisioned stream stays open (a trickle
        // beyond the forecast should route, not shed), an unprovisioned
        // one stays closed.
        table.fraction_[i] = planned[i] > 0.0 ? 1.0 : 0.0;
        continue;
      }
      const double deficit = std::max(0.0, lambda - planned[i]);
      const double grant = std::min(deficit, spare);
      spare -= grant;
      const double admitted = (planned[i] + grant) * (1.0 + burst_margin);
      table.fraction_[i] = std::min(1.0, admitted / lambda);
    }
  }
  return table;
}

bool AdmissionTable::admit(std::size_t klass, std::size_t frontend,
                           std::uint64_t request_id) const {
  const std::size_t i = klass * num_frontends_ + frontend;
  const double fraction = fraction_[i];
  if (fraction >= 1.0) return true;
  if (fraction <= 0.0) return false;
  return admission_unit(i, request_id) < fraction;
}

double AdmissionTable::admit_fraction(std::size_t klass,
                                      std::size_t frontend) const {
  return fraction_[klass * num_frontends_ + frontend];
}

AdmissionController::AdmissionController(Topology topology,
                                         const PlanHandle& plans,
                                         SlotInput offered,
                                         double burst_margin)
    : SnapshotCompiler(
          plans, AdmissionSource{topology, std::move(offered), burst_margin},
          [](const AdmissionSource& source, const DispatchPlan& plan,
             std::uint64_t plan_version) {
            return AdmissionTable::compile(source.topology, plan, plan_version,
                                           source.offered, source.burst_margin);
          }) {
  topology.validate();
}

void AdmissionController::set_offered(const SlotInput& offered) {
  update([&](AdmissionSource& source) { source.offered = offered; });
}

bool AdmissionController::admit(std::size_t klass, std::size_t frontend,
                                std::uint64_t request_id) const {
  const std::shared_ptr<const AdmissionTable> table = fresh_table();
  if (!table) return true;  // no plan yet: route() reports kNoRoute anyway
  return table->admit(klass, frontend, request_id);
}

}  // namespace palb::serve
