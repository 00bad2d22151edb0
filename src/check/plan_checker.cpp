#include "check/plan_checker.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "queueing/mm1.hpp"

namespace palb {

const char* to_string(PlanViolationCode code) {
  switch (code) {
    case PlanViolationCode::kShapeMismatch:
      return "shape-mismatch";
    case PlanViolationCode::kNonFiniteRate:
      return "non-finite-rate";
    case PlanViolationCode::kNegativeRate:
      return "negative-rate";
    case PlanViolationCode::kFlowConservation:
      return "flow-conservation";
    case PlanViolationCode::kShareRange:
      return "share-range";
    case PlanViolationCode::kShareBudget:
      return "share-budget";
    case PlanViolationCode::kServerBudget:
      return "server-budget";
    case PlanViolationCode::kOrphanLoad:
      return "orphan-load";
    case PlanViolationCode::kUnstableQueue:
      return "unstable-queue";
    case PlanViolationCode::kDeadlineExceeded:
      return "deadline-exceeded";
  }
  return "unknown";
}

bool PlanCheckReport::has(PlanViolationCode code) const {
  return count(code) > 0;
}

std::size_t PlanCheckReport::count(PlanViolationCode code) const {
  std::size_t n = 0;
  for (const auto& v : violations) {
    if (v.code == code) ++n;
  }
  return n;
}

std::string PlanCheckReport::summary(std::size_t max_lines) const {
  std::ostringstream os;
  std::size_t shown = 0;
  for (const auto& v : violations) {
    if (shown == max_lines) break;
    if (shown > 0) os << "\n";
    os << "[" << to_string(v.code) << "] " << v.message;
    ++shown;
  }
  if (violations.size() > shown) {
    os << "\n... and " << (violations.size() - shown) << " more";
    if (truncated) os << " (and the checker stopped collecting)";
  } else if (truncated) {
    os << "\n... and more (violation cap reached)";
  }
  return os.str();
}

namespace {

/// Relative slack on the Eq. 6 deadline comparison (solver plans sit
/// exactly on band edges; FP round-trips must not flag them).
constexpr double kDeadlineSlack = 1e-6;

/// Collects violations up to the configured cap.
class Collector {
 public:
  Collector(PlanCheckReport& report, std::size_t cap)
      : report_(report), cap_(cap) {}

  bool full() const { return report_.violations.size() >= cap_; }

  void add(PlanViolation v) {
    if (full()) {
      report_.truncated = true;
      return;
    }
    report_.violations.push_back(std::move(v));
  }

 private:
  PlanCheckReport& report_;
  std::size_t cap_;
};

std::string fmt(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

}  // namespace

PlanCheckReport PlanChecker::check(const Topology& topology,
                                   const SlotInput& input,
                                   const DispatchPlan& plan) const {
  PlanCheckReport report;
  Collector out(report, options_.max_violations);
  const double tol = options_.tol;
  const std::size_t K = topology.num_classes();
  const std::size_t S = topology.num_frontends();
  const std::size_t L = topology.num_datacenters();

  // --- Structural shape: everything else indexes through these. -------------
  bool shape_ok = plan.rate.size() == K && plan.dc.size() == L;
  for (std::size_t k = 0; shape_ok && k < K; ++k) {
    shape_ok = plan.rate[k].size() == S;
    for (std::size_t s = 0; shape_ok && s < S; ++s) {
      shape_ok = plan.rate[k][s].size() == L;
    }
  }
  for (std::size_t l = 0; shape_ok && l < L; ++l) {
    shape_ok = plan.dc[l].share.size() == K;
  }
  if (!shape_ok) {
    out.add({PlanViolationCode::kShapeMismatch, PlanViolation::kNoIndex,
             PlanViolation::kNoIndex, PlanViolation::kNoIndex, 0.0, 0.0,
             "plan dimensions do not match the topology (" +
                 std::to_string(K) + " classes x " + std::to_string(S) +
                 " front-ends x " + std::to_string(L) + " data centers)"});
    return report;  // indexing further would be out of bounds
  }

  // --- Rate sanity + Eq. 7 flow conservation per (k, s). --------------------
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < S; ++s) {
      double dispatched = 0.0;
      bool row_finite = true;
      for (std::size_t l = 0; l < L; ++l) {
        const double r = plan.rate[k][s][l];
        if (!std::isfinite(r)) {
          row_finite = false;
          out.add({PlanViolationCode::kNonFiniteRate, k, s, l, r, 0.0,
                   "non-finite rate for class " + topology.classes[k].name +
                       " at " + topology.frontends[s].name + "->" +
                       topology.datacenters[l].name});
          continue;
        }
        if (r < -tol) {
          out.add({PlanViolationCode::kNegativeRate, k, s, l, r, 0.0,
                   "negative rate " + fmt(r) + " req/s for class " +
                       topology.classes[k].name + " at " +
                       topology.frontends[s].name + "->" +
                       topology.datacenters[l].name});
        }
        dispatched += r;
      }
      const double offered = input.arrival_rate[k][s];
      if (row_finite && dispatched > offered + tol) {
        out.add({PlanViolationCode::kFlowConservation, k, s,
                 PlanViolation::kNoIndex, dispatched, offered,
                 "Eq. 7: dispatched " + fmt(dispatched) +
                     " req/s exceeds offered " + fmt(offered) +
                     " req/s for class " + topology.classes[k].name +
                     " at " + topology.frontends[s].name});
      }
    }
  }

  // --- Per-data-center allocation: Eq. 8 budget, server bounds. -------------
  for (std::size_t l = 0; l < L; ++l) {
    const auto& alloc = plan.dc[l];
    const auto& center = topology.datacenters[l];
    if (alloc.servers_on < 0 || alloc.servers_on > center.num_servers) {
      out.add({PlanViolationCode::kServerBudget, PlanViolation::kNoIndex,
               PlanViolation::kNoIndex, l,
               static_cast<double>(alloc.servers_on),
               static_cast<double>(center.num_servers),
               "servers_on " + std::to_string(alloc.servers_on) +
                   " outside [0, " + std::to_string(center.num_servers) +
                   "] at " + center.name});
    }
    double share_sum = 0.0;
    bool shares_finite = true;
    for (std::size_t k = 0; k < K; ++k) {
      const double phi = alloc.share[k];
      if (!std::isfinite(phi)) {
        shares_finite = false;
        out.add({PlanViolationCode::kNonFiniteRate, k,
                 PlanViolation::kNoIndex, l, phi, 0.0,
                 "non-finite CPU share for class " +
                     topology.classes[k].name + " at " + center.name});
        continue;
      }
      if (phi < -tol || phi > 1.0 + tol) {
        out.add({PlanViolationCode::kShareRange, k, PlanViolation::kNoIndex,
                 l, phi, 1.0,
                 "share " + fmt(phi) + " outside [0, 1] for class " +
                     topology.classes[k].name + " at " + center.name});
      }
      share_sum += phi;
    }
    if (shares_finite && share_sum > 1.0 + tol) {
      out.add({PlanViolationCode::kShareBudget, PlanViolation::kNoIndex,
               PlanViolation::kNoIndex, l, share_sum, 1.0,
               "Eq. 8: share sum " + fmt(share_sum) + " exceeds 1 at " +
                   center.name});
    }
  }

  // --- Loaded streams: routing sanity, rho < 1, Eq. 6 delay bound. ----------
  // From here the Eq. 1 algebra runs on typed quantities: mu and lambda
  // are role-tagged req/s, delays and deadlines are Seconds.
  for (std::size_t k = 0; k < K; ++k) {
    const auto& cls = topology.classes[k];
    for (std::size_t l = 0; l < L; ++l) {
      double load = 0.0;
      for (std::size_t s = 0; s < S; ++s) {
        const double r = plan.rate[k][s][l];
        if (std::isfinite(r)) load += r;
      }
      if (load <= tol) continue;
      const auto& alloc = plan.dc[l];
      const auto& center = topology.datacenters[l];
      const double phi = alloc.share[k];
      if (alloc.servers_on <= 0 || !std::isfinite(phi) || phi <= tol) {
        out.add({PlanViolationCode::kOrphanLoad, k, PlanViolation::kNoIndex,
                 l, load, 0.0,
                 "load " + fmt(load) + " req/s of class " + cls.name +
                     " routed to " + center.name +
                     (alloc.servers_on <= 0 ? " with no server on"
                                            : " with zero CPU share")});
        continue;
      }
      const units::ServiceRate mu = center.service_rate_of(k);
      if (!std::isfinite(mu.value()) || mu.value() <= 0.0 ||
          center.server_capacity <= 0.0) {
        // A degenerate topology (mu == 0, zero capacity) makes any load
        // unstable by definition; report it instead of tripping the
        // queueing layer's domain checks.
        out.add({PlanViolationCode::kUnstableQueue, k,
                 PlanViolation::kNoIndex, l,
                 load / static_cast<double>(alloc.servers_on), 0.0,
                 "unstable queue for class " + cls.name + " at " +
                     center.name + ": service rate " + fmt(mu.value()) +
                     " req/s x capacity " + fmt(center.server_capacity) +
                     " cannot serve any load"});
        continue;
      }
      const units::ArrivalRate lambda{
          load / static_cast<double>(alloc.servers_on)};
      // mm1 asserts share in [0, 1]; an out-of-range phi was already
      // reported as kShareRange, so evaluate the queue at the clamped
      // (most lenient) share instead of tripping that assertion.
      const units::CpuShare phi_eff{std::min(phi, 1.0)};
      if (!mm1::is_stable(phi_eff, center.server_capacity, mu, lambda)) {
        const units::ServiceRate mu_eff =
            mm1::effective_rate(phi_eff, center.server_capacity, mu);
        out.add({PlanViolationCode::kUnstableQueue, k,
                 PlanViolation::kNoIndex, l, lambda.value(), mu_eff.value(),
                 "unstable queue (rho >= 1) for class " + cls.name + " at " +
                     center.name + ": per-server arrival " +
                     fmt(lambda.value()) + " req/s vs effective service " +
                     fmt(mu_eff.value()) + " req/s"});
        continue;
      }
      if (options_.check_deadline) {
        const units::Seconds delay = mm1::expected_delay(
            phi_eff, center.server_capacity, mu, lambda);
        const units::Seconds deadline = cls.tuf.deadline();
        if (delay > deadline * (1.0 + kDeadlineSlack)) {
          out.add({PlanViolationCode::kDeadlineExceeded, k,
                   PlanViolation::kNoIndex, l, delay.value(),
                   deadline.value(),
                   "Eq. 6: mean delay " + fmt(delay.value()) +
                       " s past the final deadline " + fmt(deadline.value()) +
                       " s for class " + cls.name + " at " + center.name});
        }
      }
    }
  }
  return report;
}

PlanRepairReport PlanChecker::repair(const Topology& topology,
                                     const SlotInput& input,
                                     DispatchPlan plan) const {
  PlanRepairReport report;
  const double tol = options_.tol;
  const std::size_t K = topology.num_classes();
  const std::size_t S = topology.num_frontends();
  const std::size_t L = topology.num_datacenters();

  // 1. Shape: without matching dimensions nothing below can index the
  // plan, so the only safe projection is the zero plan.
  bool shape_ok = plan.rate.size() == K && plan.dc.size() == L;
  for (std::size_t k = 0; shape_ok && k < K; ++k) {
    shape_ok = plan.rate[k].size() == S;
    for (std::size_t s = 0; shape_ok && s < S; ++s) {
      shape_ok = plan.rate[k][s].size() == L;
    }
  }
  for (std::size_t l = 0; shape_ok && l < L; ++l) {
    shape_ok = plan.dc[l].share.size() == K;
  }
  if (!shape_ok) {
    report.plan = DispatchPlan::zero(topology);
    report.reshaped = 1;
    return report;
  }

  // 2. Element sanity. Thresholds mirror check() exactly (strictly
  // outside the tolerance band), so an already-clean plan is untouched.
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < S; ++s) {
      for (std::size_t l = 0; l < L; ++l) {
        double& r = plan.rate[k][s][l];
        if (!std::isfinite(r) || r < -tol) {
          r = 0.0;
          ++report.rates_zeroed;
        }
      }
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    auto& alloc = plan.dc[l];
    const auto& center = topology.datacenters[l];
    if (alloc.servers_on < 0 || alloc.servers_on > center.num_servers) {
      alloc.servers_on =
          std::min(std::max(alloc.servers_on, 0), center.num_servers);
      ++report.servers_clamped;
    }
    for (std::size_t k = 0; k < K; ++k) {
      double& phi = alloc.share[k];
      if (!std::isfinite(phi)) {
        phi = 0.0;
        ++report.shares_clamped;
      } else if (phi < -tol || phi > 1.0 + tol) {
        phi = std::min(std::max(phi, 0.0), 1.0);
        ++report.shares_clamped;
      }
    }
  }

  // 3. Eq. 7 flow conservation: scale over-dispatching rows down to the
  // offered rate. A non-finite offered rate imposes no constraint in
  // check() (the comparison is vacuous), so it is left alone here too.
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t s = 0; s < S; ++s) {
      const double offered = input.arrival_rate[k][s];
      if (!std::isfinite(offered)) continue;
      double dispatched = 0.0;
      for (std::size_t l = 0; l < L; ++l) dispatched += plan.rate[k][s][l];
      if (dispatched > offered + tol && dispatched > 0.0) {
        const double scale = std::max(offered, 0.0) / dispatched;
        for (std::size_t l = 0; l < L; ++l) plan.rate[k][s][l] *= scale;
        ++report.rows_scaled;
      }
    }
  }

  // 4. Eq. 8 share budget: renormalize so the sum lands exactly on 1.
  for (std::size_t l = 0; l < L; ++l) {
    auto& alloc = plan.dc[l];
    double share_sum = 0.0;
    for (std::size_t k = 0; k < K; ++k) share_sum += alloc.share[k];
    if (share_sum > 1.0 + tol) {
      for (std::size_t k = 0; k < K; ++k) alloc.share[k] /= share_sum;
      ++report.budgets_renormalized;
    }
  }

  // 5. Loaded (k, l) streams: shed orphan load; scale unstable or
  // past-deadline streams down to the largest Eq. 6-feasible load,
  // servers_on * max_rate(phi, C, mu, D) = servers_on * (phi*C*mu - 1/D).
  // Shedding only lowers per-row dispatch and leaves shares untouched,
  // so steps 3 and 4 stay satisfied.
  for (std::size_t k = 0; k < K; ++k) {
    const auto& cls = topology.classes[k];
    for (std::size_t l = 0; l < L; ++l) {
      double load = 0.0;
      for (std::size_t s = 0; s < S; ++s) load += plan.rate[k][s][l];
      if (load <= tol) continue;
      const auto& alloc = plan.dc[l];
      const auto& center = topology.datacenters[l];
      const double phi = alloc.share[k];
      const auto cut = [&] {
        for (std::size_t s = 0; s < S; ++s) plan.rate[k][s][l] = 0.0;
        ++report.flows_shed;
      };
      if (alloc.servers_on <= 0 || phi <= tol) {
        cut();  // orphan: no server on / no CPU share
        continue;
      }
      const double mu = center.service_rate[k];
      const double capacity = center.server_capacity;
      if (!std::isfinite(mu) || mu <= 0.0 || capacity <= 0.0) {
        cut();  // degenerate topology: any load is unstable
        continue;
      }
      const double phi_eff = std::min(phi, 1.0);
      const double servers = static_cast<double>(alloc.servers_on);
      const double lambda = load / servers;
      bool violated = !mm1::is_stable(phi_eff, capacity, mu, lambda);
      double allowed_per_server;
      if (options_.check_deadline) {
        const double deadline = cls.tuf.deadline().value();
        if (!violated) {
          violated = mm1::expected_delay(phi_eff, capacity, mu, lambda) >
                     deadline * (1.0 + kDeadlineSlack);
        }
        // Delay at max_rate is exactly the deadline, strictly inside the
        // kDeadlineSlack band check() allows.
        allowed_per_server = mm1::max_rate(phi_eff, capacity, mu, deadline);
      } else {
        // Stability alone: stay a hair below the effective service rate.
        allowed_per_server =
            mm1::effective_rate(phi_eff, capacity, mu) * (1.0 - 1e-9);
      }
      if (!violated) continue;
      const double allowed = allowed_per_server * servers;
      if (allowed <= tol) {
        cut();
        continue;
      }
      const double scale = allowed / load;
      for (std::size_t s = 0; s < S; ++s) plan.rate[k][s][l] *= scale;
      ++report.flows_shed;
    }
  }

  report.plan = std::move(plan);
  return report;
}

void PlanChecker::enforce(const Topology& topology, const SlotInput& input,
                          const DispatchPlan& plan,
                          const std::string& context) const {
  const PlanCheckReport report = check(topology, input, plan);
  if (!report.ok()) {
    throw ConstraintViolation(context + ": plan violates " +
                              std::to_string(report.violations.size()) +
                              " constraint(s):\n" + report.summary());
  }
}

namespace check {
namespace {

/// -1 = not yet resolved; 0 = off; 1 = on.
std::atomic<int> g_plan_checks{-1};

int default_plan_checks() {
  if (const char* env = std::getenv("PALB_CHECK_PLANS")) {
    return (env[0] != '\0' && env[0] != '0') ? 1 : 0;
  }
#ifdef NDEBUG
  return 0;
#else
  return 1;
#endif
}

}  // namespace

bool plan_checks_enabled() {
  int mode = g_plan_checks.load(std::memory_order_relaxed);
  if (mode < 0) {
    // Lazy env resolution via CAS: the unconditional store this
    // replaces was a check-then-act — a thread parked between "observe
    // -1" and "store default" could clobber a concurrent
    // set_plan_checks_enabled() override. The CAS only ever fills the
    // unresolved slot; if someone else resolved (or overrode) first,
    // their value wins and we re-read it.
    int expected = -1;
    g_plan_checks.compare_exchange_strong(expected, default_plan_checks(),
                                          std::memory_order_relaxed);
    mode = g_plan_checks.load(std::memory_order_relaxed);
  }
  return mode != 0;
}

void set_plan_checks_enabled(bool enabled) {
  g_plan_checks.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void maybe_check_plan(const Topology& topology, const SlotInput& input,
                      const DispatchPlan& plan, const char* context) {
  if (!plan_checks_enabled()) return;
  PlanChecker().enforce(topology, input, plan, context);
}

}  // namespace check
}  // namespace palb
