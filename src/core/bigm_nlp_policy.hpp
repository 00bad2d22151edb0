#pragma once

#include "core/policy.hpp"
#include "solver/nlp.hpp"

namespace palb {

/// Paper-faithful solver path (§IV-2/3): instead of conditioning on TUF
/// bands, keep the per-(class, DC) utility U_{k,l} as a *decision
/// variable*, tie it to the delay through the big-M constraint system
/// (Eqs. 11-13 / 17) materialized by StepTufBigM, and hand the resulting
/// non-convex NLP to a general solver — the paper used CPLEX/AIMMS, this
/// tree uses the in-house augmented-Lagrangian solver with multi-start.
///
/// Decision vector: routing x_{k,s,l}, per-server shares phi_{k,l}
/// (identical across a DC's homogeneous servers, which all stay powered
/// on while the DC carries load), utilities U_{k,l}. Delay enters as
/// R = 1/(phi C mu - X/M); constraints involving R are load-scaled so an
/// idle (class, DC) pair imposes nothing.
///
/// This path is intentionally slower and only near-optimal — it exists to
/// reproduce the paper's methodology and the Fig. 11 computation-time
/// behaviour; OptimizedPolicy is the production path.
class BigMNlpPolicy : public Policy {
 public:
  struct Options {
    int multistarts = 6;
    AugLagSolver::Options nlp;
  };

  BigMNlpPolicy();
  explicit BigMNlpPolicy(Options options);

  const std::string& name() const override { return name_; }
  DispatchPlan plan_slot(const Topology& topology,
                         const SlotInput& input) override;
  /// Fresh copy with the same options; the copy's counters start empty.
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<BigMNlpPolicy>(options_);
  }
  /// Cumulative counters since construction; nlp_iterations carries the
  /// inner-minimizer work.
  PolicyStats stats() const override { return totals_; }

  /// Total inner NLP iterations spent by the last plan_slot (Fig. 11).
  int inner_iterations() const { return inner_iterations_; }

 private:
  std::string name_ = "BigM-NLP";
  Options options_;
  int inner_iterations_ = 0;
  PolicyStats totals_;
};

}  // namespace palb
