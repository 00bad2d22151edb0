#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cloud/model.hpp"
#include "core/plan_handle.hpp"
#include "serve/snapshot_compiler.hpp"

namespace palb::serve {

/// Immutable per-(class, front-end) admission table compiled from one
/// DispatchPlan and the slot's *offered* mix — the overload gate that
/// sits in front of Dispatcher::route (docs/OVERLOAD.md).
///
/// Sizing: each stream's admitted capacity starts at the plan's total
/// dispatched rate for that stream (what the optimizer actually
/// provisioned). Spare planned capacity of under-subscribed streams at
/// the same front-end is then pooled and re-granted in class-priority
/// order — class 0 (interactive) first — so when the front-end as a
/// whole is overloaded, batch classes shed before interactive ones.
/// A burst margin on top absorbs the Poisson jitter of a stream that
/// is exactly at plan.
///
/// The per-request decision is a deterministic "hash-space token
/// bucket": request id -> SplitMix64 hash into [0, 1), admitted iff the
/// hash falls below the stream's admit fraction. admit() is therefore a
/// pure function of (table, class, front-end, request id) — no counters,
/// no clock — which is what keeps shed/route decision sequences
/// byte-identical across driver-thread counts (the same guarantee
/// RoutingTable::route gives, tests/test_dispatch_determinism.cpp).
///
/// A rung-5 shed-all plan admits nothing: every planned rate is zero, so
/// every admit fraction is zero and 100% of requests shed — the
/// acceptance case tests/test_admission.cpp pins down.
class AdmissionTable {
 public:
  AdmissionTable() = default;

  /// Compiles the admit fractions for `plan` (published as
  /// `plan_version`) against the offered arrival rates in `offered`.
  /// Throws InvalidArgument on a shape mismatch or a negative rate.
  static AdmissionTable compile(const Topology& topology,
                                const DispatchPlan& plan,
                                std::uint64_t plan_version,
                                const SlotInput& offered,
                                double burst_margin);

  /// Admission-controls one class-`klass` request at front-end
  /// `frontend`. Pure and lock-free: any number of threads may call it
  /// on a shared immutable table.
  bool admit(std::size_t klass, std::size_t frontend,
             std::uint64_t request_id) const;

  /// The compiled admit fraction of one stream, in [0, 1] — the test
  /// surface for the sizing rules.
  double admit_fraction(std::size_t klass, std::size_t frontend) const;

  std::uint64_t plan_version() const { return plan_version_; }
  std::size_t num_classes() const { return num_classes_; }
  std::size_t num_frontends() const { return num_frontends_; }

 private:
  std::size_t num_classes_ = 0;
  std::size_t num_frontends_ = 0;
  std::uint64_t plan_version_ = 0;
  /// fraction_[k * S + s]: probability mass of the id-hash space this
  /// stream admits.
  std::vector<double> fraction_;
};

/// What an AdmissionController compiles its tables from, besides the plan.
struct AdmissionSource {
  Topology topology;
  SlotInput offered;
  double burst_margin = 0.0;
};

/// A SnapshotCompiler of AdmissionTables (the Dispatcher's hot swap,
/// serve/snapshot_compiler.hpp) plus admit(), the gate in front of
/// routing on the fast path:
///
///   if (!admission.admit(k, s, id)) return shed;
///   return dispatcher.route(k, s, id);
class AdmissionController
    : private SnapshotCompiler<AdmissionTable, AdmissionSource> {
 public:
  using Stats = SnapshotStats;

  /// `plans` is not owned and must outlive the controller.
  AdmissionController(Topology topology, const PlanHandle& plans,
                      SlotInput offered, double burst_margin = 0.05);

  /// Replaces the offered mix — part of admission sizing — and
  /// recompiles at once, even at an unchanged plan version (the chaos
  /// harness re-points it every slot as demand surges reshape the load).
  void set_offered(const SlotInput& offered);

  /// One-shot coherent admit. Admits everything before the first plan
  /// compiles (routing reports kNoRoute then anyway).
  bool admit(std::size_t klass, std::size_t frontend,
             std::uint64_t request_id) const;

  using SnapshotCompiler::refresh;
  using SnapshotCompiler::stats;
  using SnapshotCompiler::table;
  using SnapshotCompiler::table_version;
  using SnapshotCompiler::try_refresh;
};

}  // namespace palb::serve
