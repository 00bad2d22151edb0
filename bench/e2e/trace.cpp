#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

namespace palb::e2e {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::int64_t SlotTrace::open(const char* name, std::int64_t start_ns,
                             std::int64_t parent, std::int64_t slot) {
  MutexLock lock(mu_);
  spans_.push_back(Span{name, start_ns, start_ns, parent, slot});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SlotTrace::close(std::int64_t index, std::int64_t end_ns) {
  MutexLock lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
}

void SlotTrace::add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::int64_t parent,
                    std::int64_t slot) {
  MutexLock lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, slot});
}

void SlotTrace::begin_job(std::int64_t job_index, std::int64_t slot) {
  MutexLock lock(mu_);
  job_ = job_index;
  job_slot_ = slot;
  awaiting_first_call_ = true;
}

void SlotTrace::end_job() {
  MutexLock lock(mu_);
  job_ = -1;
}

void SlotTrace::policy_call(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns) {
  MutexLock lock(mu_);
  if (job_ < 0) return;  // a set-up solve, outside the measured slots
  if (awaiting_first_call_) {
    awaiting_first_call_ = false;
    const std::int64_t submitted =
        spans_[static_cast<std::size_t>(job_)].start_ns;
    spans_.push_back(Span{"queue_wait", submitted, start_ns, job_, job_slot_});
  }
  spans_.push_back(Span{name, start_ns, end_ns, job_, job_slot_});
}

std::vector<Span> SlotTrace::spans() const {
  MutexLock lock(mu_);
  return spans_;
}

TracedPolicy::TracedPolicy(std::unique_ptr<Policy> inner, SlotTrace& trace,
                           const char* span)
    : inner_(std::move(inner)), trace_(trace), span_(span) {}

DispatchPlan TracedPolicy::plan_slot(const Topology& topology,
                                     const SlotInput& input) {
  const std::int64_t start = now_ns();
  try {
    DispatchPlan plan = inner_->plan_slot(topology, input);
    trace_.policy_call(span_, start, now_ns());
    return plan;
  } catch (...) {
    trace_.policy_call(span_, start, now_ns());
    throw;
  }
}

std::unique_ptr<Policy> TracedPolicy::clone() const {
  std::unique_ptr<Policy> copy = inner_->clone();
  if (!copy) return nullptr;
  return std::make_unique<TracedPolicy>(std::move(copy), trace_, span_);
}

std::unique_ptr<Policy> TracedPolicy::degraded() const {
  std::unique_ptr<Policy> cheap = inner_->degraded();
  if (!cheap) return nullptr;
  return std::make_unique<TracedPolicy>(std::move(cheap), trace_,
                                        "plan_slot_degraded");
}

void collect_span_times(const std::vector<Span>& spans,
                        std::map<std::string, SpanTimes>& into) {
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      covered[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    SpanTimes& times = into[spans[i].name];
    times.duration_ns.push_back(static_cast<double>(duration));
    times.self_ns.push_back(static_cast<double>(duration - covered[i]));
  }
}

bool write_spans_jsonl(const std::string& path,
                       const std::vector<std::vector<Span>>& lists) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  long long offset = 0;
  for (const std::vector<Span>& spans : lists) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      char parent[32] = "null";
      if (s.parent >= 0) {
        std::snprintf(parent, sizeof parent, "%lld",
                      offset + static_cast<long long>(s.parent));
      }
      std::fprintf(out,
                   "{\"id\": %lld, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %s, \"slot\": %lld}\n",
                   offset + static_cast<long long>(i), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), parent,
                   static_cast<long long>(s.slot));
    }
    offset += static_cast<long long>(spans.size());
  }
  return std::fclose(out) == 0;
}

}  // namespace palb::e2e
