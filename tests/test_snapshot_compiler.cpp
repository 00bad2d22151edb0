// SnapshotCompiler unit tests (serve/snapshot_compiler.hpp), driven with
// a trivial table type so the swap discipline is pinned apart from any
// routing or admission arithmetic: nothing before the first publish,
// rebuilds on a plan-version lag (shed-all included), update() epochs
// recompiling at an unchanged version — also when they land before the
// first publish — a deterministic try_refresh() skip while a peer
// holds the compile lock, and a throwing compile that leaves the compile
// lock free.

#include "serve/snapshot_compiler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <memory>
#include <thread>

#include "cloud/plan.hpp"
#include "core/plan_handle.hpp"
#include "scenario_fixtures.hpp"
#include "util/error.hpp"

namespace palb {
namespace {

using serve::SnapshotCompiler;
using testing_fixtures::small_topology;

/// A compile that parks until released, so a test can hold the compile
/// lock for as long as it needs.
struct Latches {
  std::latch entered{1};
  std::latch release{1};
};

struct TinySource {
  int scale = 1;
  Latches* latches = nullptr;  ///< null = compile without blocking
};

/// Records what it was compiled from: the plan version, the source's
/// scale, and the plan's total dispatched rate.
struct TinyTable {
  std::uint64_t version = 0;
  int scale = 0;
  double total_rate = 0.0;

  std::uint64_t plan_version() const { return version; }
};

/// Rejects a plan with no class rows, as a real table rejects a plan
/// whose shape does not match its topology.
TinyTable compile_tiny(const TinySource& source, const DispatchPlan& plan,
                       std::uint64_t plan_version) {
  PALB_REQUIRE(!plan.rate.empty(), "plan has no class rows");
  if (source.latches != nullptr) {
    source.latches->entered.count_down();
    source.latches->release.wait();
  }
  double total = 0.0;
  for (const auto& per_frontend : plan.rate) {
    for (const auto& per_dc : per_frontend) {
      for (const double rate : per_dc) total += rate;
    }
  }
  return TinyTable{plan_version, source.scale, total};
}

using TinyCompiler = SnapshotCompiler<TinyTable, TinySource>;

DispatchPlan busy_plan(const Topology& topo) {
  DispatchPlan plan = DispatchPlan::zero(topo);
  plan.rate = {{{10.0, 0.0}, {0.0, 5.0}}, {{1.0, 1.0}, {0.0, 0.0}}};
  return plan;
}

TEST(SnapshotCompiler, NullTableAndVersionZeroBeforeFirstPublish) {
  PlanHandle live;
  const TinyCompiler compiler(live, TinySource{}, &compile_tiny);
  EXPECT_EQ(compiler.table(), nullptr);
  EXPECT_EQ(compiler.fresh_table(), nullptr);
  EXPECT_EQ(compiler.table_version(), 0u);
  EXPECT_FALSE(compiler.refresh());
  EXPECT_FALSE(compiler.try_refresh());
  EXPECT_EQ(compiler.stats().rebuilds, 0u);
  EXPECT_EQ(compiler.stats().refresh_skips, 0u);
}

TEST(SnapshotCompiler, RebuildsOnVersionLagIncludingShedAll) {
  const Topology topo = small_topology();
  PlanHandle live;
  const TinyCompiler compiler(live, TinySource{}, &compile_tiny);
  live.publish(busy_plan(topo));
  const std::shared_ptr<const TinyTable> first = compiler.fresh_table();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->total_rate, 17.0);
  // Current table: the one-shot serves it without recompiling.
  EXPECT_EQ(compiler.fresh_table(), first);
  EXPECT_EQ(compiler.stats().rebuilds, 1u);

  // The rung-5 shed-all plan is a version lag like any other: the table
  // must lose its rates, not keep serving the old ones.
  live.publish(DispatchPlan::zero(topo));
  const std::shared_ptr<const TinyTable> shed = compiler.fresh_table();
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->version, 2u);
  EXPECT_EQ(shed->total_rate, 0.0);
  EXPECT_EQ(compiler.table_version(), 2u);
  EXPECT_FALSE(compiler.refresh());  // idempotent at the current version
  EXPECT_EQ(compiler.stats().rebuilds, 2u);
  EXPECT_EQ(first->version, 1u);  // a held snapshot never changes
}

TEST(SnapshotCompiler, UpdateRecompilesAtUnchangedPlanVersion) {
  const Topology topo = small_topology();
  PlanHandle live;
  TinyCompiler compiler(live, TinySource{}, &compile_tiny);
  live.publish(busy_plan(topo));
  ASSERT_TRUE(compiler.refresh());
  const std::shared_ptr<const TinyTable> held = compiler.table();

  EXPECT_TRUE(compiler.update([](TinySource& source) { source.scale = 3; }));
  const std::shared_ptr<const TinyTable> now = compiler.table();
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(now->version, 1u);
  EXPECT_EQ(now->scale, 3);
  EXPECT_EQ(held->scale, 1);
  EXPECT_FALSE(compiler.refresh());  // the epoch is caught up too
  EXPECT_EQ(compiler.stats().rebuilds, 2u);
}

TEST(SnapshotCompiler, UpdateBeforeFirstPublishReachesTheFirstCompile) {
  const Topology topo = small_topology();
  PlanHandle live;
  TinyCompiler compiler(live, TinySource{}, &compile_tiny);
  // Nothing to compile yet: the update only moves the source and epoch.
  EXPECT_FALSE(compiler.update([](TinySource& source) { source.scale = 7; }));
  EXPECT_EQ(compiler.table(), nullptr);
  EXPECT_EQ(compiler.stats().rebuilds, 0u);

  live.publish(busy_plan(topo));
  const std::shared_ptr<const TinyTable> table = compiler.fresh_table();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->version, 1u);
  EXPECT_EQ(table->scale, 7);
  EXPECT_EQ(compiler.stats().rebuilds, 1u);
}

TEST(SnapshotCompiler, TryRefreshSkipsWhileAPeerCompiles) {
  const Topology topo = small_topology();
  PlanHandle live;
  Latches latches;
  const TinyCompiler compiler(live, TinySource{1, &latches}, &compile_tiny);
  live.publish(busy_plan(topo));

  // The peer enters the compile and parks there, holding the compile
  // lock until released.
  std::thread peer([&] { EXPECT_TRUE(compiler.refresh()); });
  latches.entered.wait();
  EXPECT_FALSE(compiler.try_refresh());
  EXPECT_EQ(compiler.stats().refresh_skips, 1u);
  // The one-shot does not wait either: it serves the incumbent (none).
  EXPECT_EQ(compiler.fresh_table(), nullptr);
  EXPECT_EQ(compiler.stats().refresh_skips, 2u);

  latches.release.count_down();
  peer.join();
  EXPECT_EQ(compiler.table_version(), 1u);
  EXPECT_EQ(compiler.stats().rebuilds, 1u);
  EXPECT_EQ(compiler.stats().refresh_skips, 2u);
}

TEST(SnapshotCompiler, ThrowingCompileReleasesTheCompileLock) {
  const Topology topo = small_topology();
  PlanHandle live;
  const TinyCompiler compiler(live, TinySource{}, &compile_tiny);
  live.publish(DispatchPlan{});
  EXPECT_THROW(compiler.try_refresh(), InvalidArgument);
  EXPECT_EQ(compiler.table(), nullptr);

  // A leaked lock would make the second thread's try_refresh() skip (and
  // a refresh() hang); from another thread, the call also cannot re-lock
  // a mutex its own thread still owns.
  live.publish(busy_plan(topo));
  bool swapped = false;
  std::thread peer([&] { swapped = compiler.try_refresh(); });
  peer.join();
  EXPECT_TRUE(swapped);
  EXPECT_EQ(compiler.stats().refresh_skips, 0u);
  EXPECT_EQ(compiler.table_version(), 2u);
  EXPECT_EQ(compiler.stats().rebuilds, 1u);
}

}  // namespace
}  // namespace palb
