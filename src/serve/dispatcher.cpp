#include "serve/dispatcher.hpp"

#include <cstdint>
#include <memory>

#include "core/plan_handle.hpp"
#include "serve/routing_table.hpp"

namespace palb::serve {

Dispatcher::Dispatcher(Topology topology, const PlanHandle& plans)
    : SnapshotCompiler(plans, topology, &RoutingTable::compile) {
  topology.validate();
}

Route Dispatcher::route(std::size_t klass, std::size_t frontend,
                        std::uint64_t request_id) const {
  const std::shared_ptr<const RoutingTable> table = fresh_table();
  if (!table) return Route{RouteStatus::kNoRoute, 0, 0};
  return table->route(klass, frontend, request_id);
}

}  // namespace palb::serve
