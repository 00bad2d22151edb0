#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "cloud/plan.hpp"
#include "core/plan_handle.hpp"
#include "util/mutex.hpp"

namespace palb::serve {

/// Counters of one SnapshotCompiler.
struct SnapshotStats {
  std::uint64_t rebuilds = 0;       ///< tables compiled and swapped in
  std::uint64_t refresh_skips = 0;  ///< try_refresh found a peer compiling
};

/// The one hot-swap discipline behind the serving tables (Dispatcher's
/// RoutingTable, AdmissionController's AdmissionTable; docs/SERVING.md):
/// compiles each plan published into a PlanHandle, with a compile-time
/// `Source` value, into an immutable `Table` stamped with the plan
/// version (`Table::plan_version()`), and swaps it in.
///
/// Readers, from any number of threads: table() is one pointer copy
/// under table_mutex_, valid while held (RCU via shared_ptr, exactly
/// PlanHandle's grace period), so a batch driver holds it and polls
/// try_refresh() between batches. fresh_table() is the per-request
/// one-shot: table() plus one PlanHandle::version() read, refreshing
/// first only when the table lags (the rung-5 shed-all plan included).
/// Neither ever waits on a compile — the zero-stall contract
/// tests/test_plan_swap_coherence.cpp hammers.
///
/// Writers: compiles are serialized on compile_mutex_ and run outside
/// table_mutex_, which guards only the pointer copy/swap (a K2 fast-path
/// mutex in tools/palb_analyze/layers.txt). A table is stale when its
/// plan version or the source's epoch lags; the epoch is compared only
/// under compile_mutex_, never per request.
template <class Table, class Source>
class SnapshotCompiler {
 public:
  using Compile = Table (*)(const Source& source, const DispatchPlan& plan,
                            std::uint64_t plan_version);

  /// `plans` is not owned and must outlive the compiler.
  SnapshotCompiler(const PlanHandle& plans, Source source, Compile compile)
      : plans_(plans), compile_(compile), source_(std::move(source)) {}

  SnapshotCompiler(const SnapshotCompiler&) = delete;
  SnapshotCompiler& operator=(const SnapshotCompiler&) = delete;

  /// Current table (null until the first plan is published and compiled).
  std::shared_ptr<const Table> table() const PALB_EXCLUDES(table_mutex_) {
    MutexLock lock(table_mutex_);
    return table_;
  }

  /// Plan version of the current table (0 = none compiled yet).
  std::uint64_t table_version() const PALB_EXCLUDES(table_mutex_) {
    MutexLock lock(table_mutex_);
    return table_ ? table_->plan_version() : 0;
  }

  /// table(), no older than the newest plan published before the call —
  /// unless a peer is compiling, when the incumbent is returned.
  std::shared_ptr<const Table> fresh_table() const
      PALB_EXCLUDES(compile_mutex_, table_mutex_) {
    std::shared_ptr<const Table> current = table();
    if (!current || current->plan_version() < plans_.version()) {
      try_refresh();
      current = table();
    }
    return current;
  }

  /// Recompiles iff the plan or the epoch moved past the table; true
  /// when a new table was swapped in. Waits for a peer's compile.
  bool refresh() const PALB_EXCLUDES(compile_mutex_, table_mutex_) {
    MutexLock lock(compile_mutex_);
    return refresh_locked();
  }

  /// refresh() that returns false at once while a peer is compiling.
  /// A compile that throws propagates and releases the compile lock.
  bool try_refresh() const PALB_EXCLUDES(compile_mutex_, table_mutex_) {
    if (!compile_mutex_.try_lock()) {
      refresh_skips_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const AdoptedLock lock(compile_mutex_);
    return refresh_locked();
  }

  /// Applies `fn(Source&)`, bumps the epoch and recompiles at once, even
  /// at an unchanged plan version (before the first publish, the first
  /// compile sees the updated source). True when a table was swapped in.
  template <class Fn>
  bool update(Fn&& fn) PALB_EXCLUDES(compile_mutex_, table_mutex_) {
    MutexLock lock(compile_mutex_);
    std::forward<Fn>(fn)(source_);
    ++epoch_;
    return refresh_locked();
  }

  SnapshotStats stats() const {
    return SnapshotStats{rebuilds_.load(std::memory_order_relaxed),
                         refresh_skips_.load(std::memory_order_relaxed)};
  }

 private:
  bool refresh_locked() const PALB_REQUIRES(compile_mutex_)
      PALB_EXCLUDES(table_mutex_) {
    // acquire_if_newer(0) returns any published plan: an epoch bump
    // recompiles at an unchanged plan version.
    const std::optional<PlanHandle::Snapshot> snap = plans_.acquire_if_newer(
        compiled_epoch_ == epoch_ ? table_version() : 0);
    if (!snap) return false;
    // Compile outside table_mutex_: readers keep the incumbent table for
    // the whole build and only wait out the pointer swap.
    auto compiled = std::make_shared<const Table>(
        compile_(source_, *snap->plan, snap->version));
    compiled_epoch_ = epoch_;
    {
      MutexLock lock(table_mutex_);
      table_ = std::move(compiled);
    }
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  const PlanHandle& plans_;
  const Compile compile_;
  /// Fixed order: compile_mutex_ (held across a whole build) before
  /// table_mutex_ (held only for the pointer copy/swap).
  mutable Mutex compile_mutex_;
  mutable Mutex table_mutex_ PALB_ACQUIRED_AFTER(compile_mutex_);
  Source source_ PALB_GUARDED_BY(compile_mutex_);
  std::uint64_t epoch_ PALB_GUARDED_BY(compile_mutex_) = 0;
  mutable std::uint64_t compiled_epoch_ PALB_GUARDED_BY(compile_mutex_) = 0;
  mutable std::shared_ptr<const Table> table_ PALB_GUARDED_BY(table_mutex_);
  mutable std::atomic<std::uint64_t> rebuilds_{0};
  mutable std::atomic<std::uint64_t> refresh_skips_{0};
};

}  // namespace palb::serve
