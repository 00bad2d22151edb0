#pragma once

#include <cstdint>
#include <vector>

#include "core/policy.hpp"

namespace palb {

/// The paper's "Optimized" approach: jointly decide request dispatching
/// (lambda_{k,s,l}), CPU shares (phi_{k,l}) and powered-on server counts
/// to maximize net profit (Eq. 4-8).
///
/// Solution method (DESIGN.md §3): for step TUFs the only delay question
/// per (class, data center) is *which utility band* the mean delay lands
/// in. Conditioning on a band profile {q_{k,l}} (including "not served")
/// turns the whole problem into a linear program in the routing rates —
/// the minimal share for band q is phi = (lambda_per_server + 1/D_q)/(C mu)
/// so the per-server share budget becomes a linear capacity row. The
/// policy searches profile space (exhaustively below a threshold,
/// first-improvement local search above it), solving one LP per profile
/// with the monolithic SimplexSolver. Each plan_slot is one serial
/// search that carries no state from earlier slots; slot-level fan-out
/// (SlotController workers) is the only parallelism.
///
/// Each plan_slot first compiles a table of everything a profile
/// evaluation reads that does not depend on the profile: the value
/// coefficient of every (class, front-end, DC, band) up to its idle
/// term, each band's effective deadline and share overhead, and each
/// DC's idle-power numerator. A profile then costs its band sums, its
/// LP assembly and its pivots. Before any LP is solved, the profile's optimistic value
/// bound is checked: a profile whose bound falls strictly below an
/// objective already in hand (the sweep's incumbent, or local search's
/// current profile) cannot change the plan and is skipped unsolved.
///
/// Simplex bases are reused within the slot. The enumerated sweep solves
/// one anchor profile (every cell at its last TUF band, whose LP holds
/// every other profile's columns) cold and warm-starts every other
/// profile from its basis; local search chains each accepted profile's
/// basis into its neighbors. Each LP's pivot path is thus a function of
/// (topology, input, profile), which keeps plans byte-identical across
/// worker counts.
///
/// For one-level TUFs the profile space is {off, on}^(K*L) and each LP is
/// exactly the paper's linearized formulation (§IV-1).
class OptimizedPolicy : public Policy {
 public:
  /// What the TUF sub-deadlines constrain. The paper uses the *mean*
  /// sojourn (Eq. 1). kTailPercentile instead requires
  /// P(sojourn <= D_q) >= tail_percentile, which for an M/M/1 queue
  /// (P(T > t) = e^{-(mu_eff - lambda) t}) is exactly a mean-delay
  /// constraint with the deadline shrunk by ln(1/(1-p)) — so the same
  /// LP machinery plans hard latency SLOs at a capacity premium.
  enum class DelayMetric { kMeanDelay, kTailPercentile };

  struct Options {
    /// Exhaustive enumeration is used while the profile count stays below
    /// this bound; larger spaces fall back to local search.
    std::uint64_t max_enumerated_profiles = 1u << 20;
    DelayMetric delay_metric = DelayMetric::kMeanDelay;
    /// Percentile for kTailPercentile, in (0, 1).
    double tail_percentile = 0.95;
    /// Local-search restarts (profile space too big to enumerate).
    int local_search_restarts = 4;
    /// Give unused CPU share back to loaded classes after solving — the
    /// extra headroom shortens delays and can only raise utility.
    bool distribute_spare_share = true;
    /// Relative safety margin inside each sub-deadline: the plan targets
    /// delays of at most D*(1-margin) so that (a) floating-point
    /// round-trips and (b) the sampling noise of *empirical* mean delays
    /// in a stochastic replay keep the stream strictly inside its
    /// intended utility band. 2% costs almost no capacity (the per-server
    /// rate loss is ~margin/D req/s) and makes plans robust end-to-end.
    double deadline_margin = 0.02;
    /// Per-LP simplex pivot budget (0 = the solver's default). A profile
    /// whose LP exhausts the budget is treated as infeasible and skipped
    /// — the all-off zero plan is always available, so plan_slot still
    /// returns. degraded() uses a small budget as a per-slot deadline;
    /// fault schedules can also force-exhaust it to model solver
    /// failures.
    std::uint64_t lp_max_iterations = 0;
    /// Cooperative cancellation token (not owned; may be nullptr),
    /// normally installed via Policy::set_cancel(). Forwarded into every
    /// profile LP (SimplexSolver::Options::cancel) and polled between
    /// profiles; once it reads true plan_slot throws SolveCancelled.
    /// Living in Options means clone() propagates it to slot-level
    /// workers; degraded() clears it.
    const std::atomic<bool>* cancel = nullptr;
  };

  OptimizedPolicy() = default;
  explicit OptimizedPolicy(Options options) : options_(options) {}

  const std::string& name() const override { return name_; }
  DispatchPlan plan_slot(const Topology& topology,
                         const SlotInput& input) override;
  /// Fresh copy with the same options; the copy's counters start empty.
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<OptimizedPolicy>(options_);
  }
  /// Rung-2 variant: the same search with a small profile space, one
  /// local-search restart and a tight per-LP pivot budget, so one slot's
  /// re-solve is cheap and bounded. Plans remain deterministic in
  /// (topology, input) alone.
  std::unique_ptr<Policy> degraded() const override;
  /// Installs the watchdog's cancellation token (see Options::cancel).
  void set_cancel(const std::atomic<bool>* cancel) override {
    options_.cancel = cancel;
  }
  /// Cumulative counters since construction, including value-bound
  /// prunes. warm_start_hits/misses stay zero: no state crosses slots.
  PolicyStats stats() const override { return totals_; }

  /// Profiles examined (LP-solved or found structurally infeasible) by
  /// the most recent plan_slot (observability for the computation-time
  /// study, Fig. 11). Excludes profiles_pruned().
  std::uint64_t profiles_examined() const { return profiles_examined_; }
  /// Profiles the most recent plan_slot skipped without an LP solve
  /// because their value bound fell strictly below a known objective:
  /// the anchor's objective in the enumerated sweep, or the current
  /// profile's value in local search. Disjoint from
  /// profiles_examined().
  std::uint64_t profiles_pruned() const { return profiles_pruned_; }
  /// LP simplex iterations accumulated by the most recent plan_slot.
  std::uint64_t lp_iterations() const { return lp_iterations_; }
  /// LP solves of the most recent plan_slot that needed no phase-1 work.
  std::uint64_t phase1_skips() const { return phase1_skips_; }
  /// LP solves of the most recent plan_slot that accepted a warm basis.
  std::uint64_t basis_warm_hits() const { return basis_warm_hits_; }
  /// Dense column updates the simplex's support-walking pivot kernel
  /// skipped across the most recent plan_slot's LP solves.
  std::uint64_t sparse_price_skips() const { return sparse_price_skips_; }
  /// Marginal dollar value, per slot, of adding one server to each data
  /// center — the dual of the winning profile's capacity row scaled by a
  /// server's net capacity contribution. Zero where capacity is slack.
  /// Sized [num_datacenters] after a plan_slot; what-if capacity planning
  /// reads this instead of re-solving (see bench/ext_shadow_prices).
  const std::vector<double>& server_shadow_prices() const {
    return server_shadow_prices_;
  }

 private:
  std::string name_ = "Optimized";
  Options options_;
  std::uint64_t profiles_examined_ = 0;
  std::uint64_t profiles_pruned_ = 0;
  std::uint64_t lp_iterations_ = 0;
  std::uint64_t phase1_skips_ = 0;
  std::uint64_t basis_warm_hits_ = 0;
  std::uint64_t sparse_price_skips_ = 0;
  std::vector<double> server_shadow_prices_;
  PolicyStats totals_;
};

}  // namespace palb
