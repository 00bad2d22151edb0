#pragma once

#include <vector>

#include "core/optimized_policy.hpp"

namespace palb {

/// Dynamic right-sizing with switching costs (extension).
///
/// The paper assumes "server switching costs and durations are
/// negligible" (§IV) and powers the minimal fleet each slot. Its own
/// citation [8] (Lin, Wierman, Andrew, Thereska: "Dynamic right-sizing
/// for power-proportional data centers") is about exactly the opposite
/// regime: toggling a server costs real money (wear, migration, staff),
/// so a controller should *hold* recently-idled servers for a while.
///
/// This wrapper plans each slot with OptimizedPolicy, then applies the
/// classic rental-problem timeout: a server idled at slot t stays powered
/// for `hold = ceil(switch_cost / idle_cost_per_slot)` more slots — the
/// break-even point where holding and re-toggling cost the same — before
/// switching off. With zero switch cost it degenerates to the paper's
/// behaviour. The policy is stateful across slots (call reset() between
/// independent runs).
class RightSizingPolicy : public Policy {
 public:
  struct Options {
    /// Dollars paid per server power-state transition (either direction).
    double switch_cost = 0.0;
    /// Cap on the hold window (slots), bounding break-even when idle
    /// power is very cheap.
    int max_hold_slots = 24;
    OptimizedPolicy::Options inner;
  };

  RightSizingPolicy();
  explicit RightSizingPolicy(Options options);

  const std::string& name() const override { return name_; }
  DispatchPlan plan_slot(const Topology& topology,
                         const SlotInput& input) override;
  // No clone() override: the hold-window state makes plans depend on the
  // slot *sequence*, so a fresh per-slot clone would change them.
  // for_each_slot runs a policy whose clone() returns nullptr serially.

  /// Forget the power state (start of an independent run).
  void reset();

  /// Switching dollars paid by the most recent plan_slot.
  double last_switch_cost() const { return last_switch_cost_; }
  /// Total switching dollars since construction / reset().
  double total_switch_cost() const { return total_switch_cost_; }
  /// Total number of power-state transitions since construction/reset().
  int total_transitions() const { return total_transitions_; }

 private:
  std::string name_ = "RightSizing";
  Options options_;
  OptimizedPolicy inner_;
  /// Per-DC powered-on counts after the previous slot (empty = no state).
  std::vector<int> prev_on_;
  /// Per-DC countdown: slots a held (idle) server block remains powered.
  std::vector<int> hold_remaining_;
  double last_switch_cost_ = 0.0;
  double total_switch_cost_ = 0.0;
  int total_transitions_ = 0;
};

}  // namespace palb
