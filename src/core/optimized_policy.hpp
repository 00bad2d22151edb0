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
/// first-improvement local search above it), solving one LP per profile;
/// the exhaustive sweep fans across a thread pool.
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

  /// Whether profile LPs route through the block-decomposed
  /// (Dantzig-Wolfe) driver in src/solver/decomposed.hpp. The driver
  /// detects block-angular structure at runtime and falls back to the
  /// monolithic simplex when it is absent, and its crossover +
  /// deterministic refactorization make decomposed and monolithic
  /// solves return bitwise-identical points — so this switch changes
  /// solve *time* on large topologies, never plans.
  enum class DecomposedSolve { kOff, kAuto, kOn };

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
    /// Parallelize the enumeration sweep across hardware threads.
    bool parallel = true;
    /// Relative safety margin inside each sub-deadline: the plan targets
    /// delays of at most D*(1-margin) so that (a) floating-point
    /// round-trips and (b) the sampling noise of *empirical* mean delays
    /// in a stochastic replay keep the stream strictly inside its
    /// intended utility band. 2% costs almost no capacity (the per-server
    /// rate loss is ~margin/D req/s) and makes plans robust end-to-end.
    double deadline_margin = 0.02;
    /// Seed each slot from the previous slot's winning band profile when
    /// every arrival rate and price moved less than warm_start_tolerance
    /// (relative), and use the incumbent's objective to skip profiles
    /// whose optimistic LP value bound falls strictly below it. Plans
    /// are unchanged: a skipped profile can neither win nor tie, and
    /// exact-objective ties always resolve to the lowest profile index.
    /// Only the exhaustive-enumeration path consults the cache.
    bool warm_start = true;
    /// Maximum relative per-entry drift of arrival rates and prices for
    /// the previous slot's solution to count as a warm start.
    double warm_start_tolerance = 0.05;
    /// Reuse simplex bases across the profile search (basis-level warm
    /// starts, independent of the profile-level `warm_start` cache). The
    /// enumerated sweep solves one deterministic *anchor* profile (every
    /// cell at its last TUF band — the profile whose LP contains every
    /// other profile's columns) cold, then warm-starts every other
    /// profile from the anchor's optimal basis; each LP's pivot path
    /// thus depends only on (topology, input, profile), never on worker
    /// partition or cache state, so plans stay byte-identical across
    /// worker counts. The local-search path chains each accepted
    /// profile's basis into its neighbors instead (serial, equally
    /// deterministic). The solver discards any basis that lands
    /// out-of-bounds, so this can change pivot counts but never plans.
    bool warm_start_bases = true;
    /// Per-LP simplex pivot budget (0 = the solver's default). A profile
    /// whose LP exhausts the budget is treated as infeasible and skipped
    /// — the all-off zero plan is always available, so plan_slot still
    /// returns. degraded() uses a small budget as a per-slot deadline;
    /// fault schedules can also force-exhaust it to model solver
    /// failures.
    std::uint64_t lp_max_iterations = 0;
    /// kAuto (the default) decomposes only the LPs big enough for the
    /// column-generation overhead to pay off (>= decomposed_min_variables
    /// variables) — small topologies keep the plain simplex path with
    /// zero overhead. kOn forces the decomposed driver everywhere (it
    /// still falls back per-LP when no block structure exists); kOff
    /// disables it. degraded() forces kOff: rung 2 wants the smallest
    /// constant factor, not asymptotic scaling.
    DecomposedSolve decomposed_solve = DecomposedSolve::kAuto;
    /// kAuto size threshold, in LP variables (active (k, s, l) routing
    /// arcs). Below this the monolithic simplex wins outright.
    int decomposed_min_variables = 192;
    /// Worker budget for the decomposed driver's per-round subproblem
    /// fan-out. The default 1 solves inline — the right choice while the
    /// profile sweep itself fans across the pool; raise it only when
    /// profiles are solved one at a time (huge LPs, serial sweeps).
    /// Plans are identical for every value.
    std::size_t decomposed_workers = 1;
    /// Cooperative cancellation token (not owned; may be nullptr),
    /// normally installed via Policy::set_cancel(). Forwarded into every
    /// profile LP (SimplexSolver::Options::cancel) and polled between
    /// profiles; once it reads true the sweep stops solving and
    /// plan_slot throws SolveCancelled. Living in Options means clone()
    /// propagates it to parallel workers; degraded() clears it.
    const std::atomic<bool>* cancel = nullptr;
  };

  OptimizedPolicy() = default;
  explicit OptimizedPolicy(Options options) : options_(options) {}

  const std::string& name() const override { return name_; }
  DispatchPlan plan_slot(const Topology& topology,
                         const SlotInput& input) override;
  /// Fresh copy with the same options; the copy's warm-start cache and
  /// counters start empty (each parallel worker grows its own chain).
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<OptimizedPolicy>(options_);
  }
  /// Rung-2 variant: serial, no warm-start state, a small profile space
  /// and a tight per-LP pivot budget, so one slot's re-solve is cheap
  /// and bounded. Plans remain deterministic in (topology, input) alone
  /// — the ResilientController builds a fresh instance per failed slot.
  std::unique_ptr<Policy> degraded() const override;
  /// Installs the watchdog's cancellation token (see Options::cancel).
  void set_cancel(const std::atomic<bool>* cancel) override {
    options_.cancel = cancel;
  }
  /// Cumulative counters since construction, including warm-start cache
  /// hits/misses and value-bound prunes.
  PolicyStats stats() const override { return totals_; }

  /// Profiles examined (LP-solved or found structurally infeasible) by
  /// the most recent plan_slot (observability for the computation-time
  /// study, Fig. 11). Excludes profiles_pruned().
  std::uint64_t profiles_examined() const { return profiles_examined_; }
  /// Profiles the most recent plan_slot skipped without an LP solve
  /// because their value bound fell strictly below a known objective:
  /// the enumerated sweep's incumbent (anchor or warm-start re-solve),
  /// or the current profile's value in local search. Disjoint from
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
  /// Dantzig-Wolfe master re-solves across the most recent plan_slot
  /// (zero when no LP took the decomposed path).
  std::uint64_t master_iterations() const { return master_iterations_; }
  /// Dantzig-Wolfe block subproblem solves across the most recent
  /// plan_slot.
  std::uint64_t subproblem_solves() const { return subproblem_solves_; }
  /// Marginal dollar value, per slot, of adding one server to each data
  /// center — the dual of the winning profile's capacity row scaled by a
  /// server's net capacity contribution. Zero where capacity is slack.
  /// Sized [num_datacenters] after a plan_slot; what-if capacity planning
  /// reads this instead of re-solving (see bench/ext_shadow_prices).
  const std::vector<double>& server_shadow_prices() const {
    return server_shadow_prices_;
  }

 private:
  /// Previous enumerated slot's inputs + winning profile index. The
  /// signature (per-cell radices, input shapes) guards against reuse
  /// across topologies; correctness never depends on a hit because the
  /// incumbent is re-solved under the current inputs before it prunes.
  struct WarmCache {
    bool valid = false;
    std::uint64_t winning_index = 0;
    std::vector<std::uint64_t> radices;  ///< per (k,l) cell, topology sig
    std::vector<std::vector<double>> arrival_rate;
    std::vector<double> price;
  };

  bool warm_applicable(const Topology& topology, const SlotInput& input) const;

  std::string name_ = "Optimized";
  Options options_;
  std::uint64_t profiles_examined_ = 0;
  std::uint64_t profiles_pruned_ = 0;
  std::uint64_t lp_iterations_ = 0;
  std::uint64_t phase1_skips_ = 0;
  std::uint64_t basis_warm_hits_ = 0;
  std::uint64_t sparse_price_skips_ = 0;
  std::uint64_t master_iterations_ = 0;
  std::uint64_t subproblem_solves_ = 0;
  std::vector<double> server_shadow_prices_;
  WarmCache cache_;
  PolicyStats totals_;
};

}  // namespace palb
