#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "cloud/model.hpp"
#include "cloud/plan.hpp"

namespace palb {

/// What a plan violated. Each code maps to one constraint of the paper's
/// slot optimization (FORMULATION.md / docs/STATIC_ANALYSIS.md):
///
///   kFlowConservation   Eq. 7  — dispatched <= arriving per (k, s)
///   kShareBudget        Eq. 8  — sum_k phi_{k,l} <= 1 per data center
///   kDeadlineExceeded   Eq. 6  — mean sojourn within the final deadline
///                                for every loaded (k, l) stream
///   kUnstableQueue      Eq. 1 domain — rho < 1 for every loaded stream
///
/// plus the structural sanity the equations assume implicitly.
enum class PlanViolationCode {
  kShapeMismatch,    ///< plan dimensions disagree with the topology
  kNonFiniteRate,    ///< NaN or +-inf routing rate or share
  kNegativeRate,     ///< routing rate below zero
  kFlowConservation, ///< Eq. 7: dispatched exceeds offered at a front-end
  kShareRange,       ///< phi outside [0, 1]
  kShareBudget,      ///< Eq. 8: sum of shares exceeds the server's CPU
  kServerBudget,     ///< servers_on outside [0, M_l]
  kOrphanLoad,       ///< load routed to a dark DC or a zero-share VM
  kUnstableQueue,    ///< rho >= 1: the M/M/1 queue diverges
  kDeadlineExceeded, ///< Eq. 6: mean delay past the class final deadline
};

/// Stable kebab-case name ("flow-conservation", ...) used by the CLI and
/// CI greps; never reworded once released.
const char* to_string(PlanViolationCode code);

/// One violated constraint, with enough structure that callers can react
/// programmatically (the message is for humans).
struct PlanViolation {
  /// Sentinel for an index axis a violation does not involve.
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  PlanViolationCode code;
  std::size_t class_index = kNoIndex;     ///< k, when applicable
  std::size_t frontend_index = kNoIndex;  ///< s, when applicable
  std::size_t dc_index = kNoIndex;        ///< l, when applicable
  double observed = 0.0;  ///< the offending value (rate, share sum, delay)
  double bound = 0.0;     ///< the limit it had to respect
  std::string message;    ///< one human-readable sentence
};

/// Outcome of one PlanChecker pass.
struct PlanCheckReport {
  std::vector<PlanViolation> violations;
  /// True when the checker hit Options::max_violations and stopped
  /// collecting; the plan has more problems than `violations` lists.
  bool truncated = false;

  bool ok() const { return violations.empty(); }
  bool has(PlanViolationCode code) const;
  std::size_t count(PlanViolationCode code) const;
  /// Up to `max_lines` one-per-line "[code] message" entries (the rest
  /// summarized as a count); empty string when ok().
  std::string summary(std::size_t max_lines = 10) const;
};

/// Outcome of one PlanChecker::repair() pass: the repaired plan plus a
/// count of every adjustment category. repair() is deterministic and
/// idempotent, and — provided the SlotInput itself is valid (finite,
/// non-negative) — its output always passes check() under the same
/// Options (tests/test_fuzz.cpp holds both properties on randomized
/// corrupted plans).
struct PlanRepairReport {
  DispatchPlan plan;
  /// Plan dimensions disagreed with the topology; rebuilt as the zero
  /// plan (nothing salvageable without a shape to index through).
  std::size_t reshaped = 0;
  std::size_t rates_zeroed = 0;      ///< NaN/inf/negative routing rates
  std::size_t shares_clamped = 0;    ///< non-finite or out-of-[0,1] shares
  std::size_t servers_clamped = 0;   ///< servers_on outside [0, M_l]
  std::size_t rows_scaled = 0;       ///< Eq. 7 over-dispatch scaled down
  std::size_t budgets_renormalized = 0;  ///< Eq. 8 share sums renormalized
  std::size_t flows_shed = 0;  ///< orphan/unstable/past-deadline streams cut

  /// Total adjustments across all categories; 0 means the plan came back
  /// byte-identical (it already passed check()).
  std::size_t adjustments() const {
    return reshaped + rates_zeroed + shares_clamped + servers_clamped +
           rows_scaled + budgets_renormalized + flows_shed;
  }
  bool touched() const { return adjustments() > 0; }
};

/// Audits a DispatchPlan against the paper's constraint system for one
/// slot: Eq. 6 (delay bound), Eq. 7 (flow conservation), Eq. 8 (CPU-share
/// budget), M/M/1 stability, and rate/share sanity. Policies are required
/// to emit plans this checker passes; the controller, the simulators and
/// the `palb check-plan` CLI all run it behind the plan-check flag (on by
/// default in debug builds, opt-in via PALB_CHECK_PLANS=1 in release).
class PlanChecker {
 public:
  struct Options {
    /// Absolute slack on rate/share comparisons, matching the solvers'
    /// feasibility tolerance.
    double tol = 1e-6;
    /// Disable to audit baselines that are allowed to plan past-deadline
    /// (zero-revenue) streams; all hard constraints still apply.
    bool check_deadline = true;
    /// Stop collecting after this many violations (a corrupted plan can
    /// otherwise produce K*S*L lines).
    std::size_t max_violations = 64;
  };

  PlanChecker() = default;
  explicit PlanChecker(Options options) : options_(options) {}

  const Options& options() const { return options_; }

  /// Full audit; never throws on a bad plan (the report carries it).
  PlanCheckReport check(const Topology& topology, const SlotInput& input,
                        const DispatchPlan& plan) const;

  /// check() + throw ConstraintViolation naming `context` (a policy or
  /// call-site label) when the report is not ok().
  void enforce(const Topology& topology, const SlotInput& input,
               const DispatchPlan& plan, const std::string& context) const;

  /// Minimal deterministic projection of `plan` back into the feasible
  /// region (docs/RESILIENCE.md "repair math"):
  ///
  ///   1. wrong shape         -> zero plan (reshaped);
  ///   2. NaN/inf/negative rates zeroed; shares clamped into [0, 1];
  ///      servers_on clamped into [0, M_l];
  ///   3. Eq. 7 over-dispatch  -> the (k, s) row scaled by offered/sum;
  ///   4. Eq. 8 over-budget    -> the DC's shares scaled by 1/sum;
  ///   5. loaded streams that are orphaned, unstable or past-deadline
  ///      -> scaled down to servers_on * (phi*C*mu - 1/D) (the largest
  ///      Eq. 6-feasible load, mm1::max_rate), or cut entirely.
  ///
  /// Every trigger mirrors a check() violation under the same Options,
  /// so a plan that already passes check() comes back byte-identical,
  /// and repair(repair(p)) == repair(p). Never throws.
  PlanRepairReport repair(const Topology& topology, const SlotInput& input,
                          DispatchPlan plan) const;

 private:
  Options options_;
};

namespace check {

/// Whether the guarded call sites (controller, policies, simulators) run
/// the PlanChecker. Defaults to on in debug (!NDEBUG) builds and off in
/// release; the PALB_CHECK_PLANS environment variable ("1"/"0") overrides
/// the default at first query.
bool plan_checks_enabled();

/// Programmatic override (tests; release callers opting in).
void set_plan_checks_enabled(bool enabled);

/// Guarded audit used at every plan hand-off point: no-op when checks
/// are disabled, otherwise enforces with a default-options PlanChecker.
void maybe_check_plan(const Topology& topology, const SlotInput& input,
                      const DispatchPlan& plan, const char* context);

}  // namespace check
}  // namespace palb
