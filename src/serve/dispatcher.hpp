#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "cloud/model.hpp"
#include "core/plan_handle.hpp"
#include "serve/routing_table.hpp"
#include "serve/snapshot_compiler.hpp"

namespace palb::serve {

/// The online fast path: routes individual requests against the plan
/// the slow path (AsyncPlanner / ResilientController) last published
/// into a PlanHandle — a SnapshotCompiler of RoutingTables plus route().
///
/// Two reader surfaces, both safe from any number of threads: route()
/// is the coherent one-shot (rebuilds a stale table opportunistically,
/// never blocks on a swap); tables() + try_refresh() is the batch hot
/// path the QPS driver uses — hold the immutable snapshot across a batch
/// (RoutingTable::route is pure arithmetic) and poll between batches.
class Dispatcher : private SnapshotCompiler<RoutingTable, Topology> {
 public:
  struct Stats : SnapshotStats {
    /// Routes that blocked on a swap: structurally 0, since route() only
    /// ever try_refresh()es. Kept for the palb-qps-v1 / palb-chaos-v1
    /// reports, whose gates read it.
    std::uint64_t stalled_routes = 0;
  };

  /// `plans` is not owned and must outlive the dispatcher.
  Dispatcher(Topology topology, const PlanHandle& plans);

  /// Routes one class-`klass` request arriving at front-end `frontend`;
  /// kNoRoute (version 0) before the first plan is compiled.
  Route route(std::size_t klass, std::size_t frontend,
              std::uint64_t request_id) const;

  std::shared_ptr<const RoutingTable> tables() const { return table(); }
  using SnapshotCompiler::refresh;
  using SnapshotCompiler::table_version;
  using SnapshotCompiler::try_refresh;
  Stats stats() const { return Stats{SnapshotCompiler::stats()}; }
};

}  // namespace palb::serve
