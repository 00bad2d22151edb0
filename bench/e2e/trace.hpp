#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace palb::e2e {

/// Nanoseconds on the steady clock since the process's trace epoch.
std::int64_t now_ns();

/// One timed interval. `parent` indexes the span list the span lives in
/// (-1 = a root); `slot` is the slot it belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t slot = -1;
};

/// Spans of the slot thread and the planner thread. The two never run a
/// span at the same time (the slot thread waits on the job's future), but
/// a lock keeps the hand-over obviously race-free.
///
/// A job's queue wait ends when the planner makes its first policy call,
/// which only the policy wrapper sees; begin_job() arms that span.
class SlotTrace {
 public:
  /// Opens a span whose end close() sets later; returns its index.
  std::int64_t open(const char* name, std::int64_t start_ns,
                    std::int64_t parent, std::int64_t slot) PALB_EXCLUDES(mu_);
  void close(std::int64_t index, std::int64_t end_ns) PALB_EXCLUDES(mu_);
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t parent, std::int64_t slot) PALB_EXCLUDES(mu_);

  /// The job span policy calls nest under until end_job().
  void begin_job(std::int64_t job_index, std::int64_t slot)
      PALB_EXCLUDES(mu_);
  void end_job() PALB_EXCLUDES(mu_);
  /// Records one policy call as a child of the current job, preceded by
  /// the job's queue_wait span on its first call. Calls outside a job
  /// (set-up solves) are not recorded.
  void policy_call(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns) PALB_EXCLUDES(mu_);

  std::vector<Span> spans() const PALB_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<Span> spans_ PALB_GUARDED_BY(mu_);
  std::int64_t job_ PALB_GUARDED_BY(mu_) = -1;
  std::int64_t job_slot_ PALB_GUARDED_BY(mu_) = -1;
  bool awaiting_first_call_ PALB_GUARDED_BY(mu_) = false;
};

/// Forwards every Policy call to `inner` and records each plan_slot as a
/// `span` child of the current job. degraded() instances are wrapped too,
/// under the span name "plan_slot_degraded".
class TracedPolicy final : public Policy {
 public:
  TracedPolicy(std::unique_ptr<Policy> inner, SlotTrace& trace,
               const char* span);

  const std::string& name() const override { return inner_->name(); }
  DispatchPlan plan_slot(const Topology& topology,
                         const SlotInput& input) override;
  std::unique_ptr<Policy> clone() const override;
  std::unique_ptr<Policy> degraded() const override;
  void set_cancel(const std::atomic<bool>* cancel) override {
    inner_->set_cancel(cancel);
  }
  PolicyStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<Policy> inner_;
  SlotTrace& trace_;
  const char* span_;
};

/// Durations and self times (duration minus the part covered by direct
/// children), in nanoseconds, grouped by span name.
struct SpanTimes {
  std::vector<double> duration_ns;
  std::vector<double> self_ns;
};
void collect_span_times(const std::vector<Span>& spans,
                        std::map<std::string, SpanTimes>& into);

/// Writes every list as JSONL, one span per line, with ids unique across
/// the lists; returns false when the file cannot be written.
bool write_spans_jsonl(const std::string& path,
                       const std::vector<std::vector<Span>>& lists);

}  // namespace palb::e2e
