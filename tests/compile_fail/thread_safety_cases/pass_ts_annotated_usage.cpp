// Control case: disciplined use of every annotated primitive must
// compile cleanly under -Wthread-safety -Werror=thread-safety (and
// under gcc, where the annotations expand to nothing). If this control
// fails, the harness flags itself broken rather than letting the
// fail_* verdicts pass vacuously.
#include <utility>

#include "core/plan_handle.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace {

struct Queue {
  palb::Mutex mutex;
  palb::CondVar cv;
  int depth PALB_GUARDED_BY(mutex) = 0;
  bool closed PALB_GUARDED_BY(mutex) = false;

  void push() PALB_EXCLUDES(mutex) {
    {
      palb::MutexLock lock(mutex);
      ++depth;
    }
    cv.notify_one();
  }

  void drain_locked() PALB_REQUIRES(mutex) { depth = 0; }

  int pop_all() PALB_EXCLUDES(mutex) {
    palb::MutexLock lock(mutex);
    while (depth == 0 && !closed) cv.wait(mutex);
    const int seen = depth;
    drain_locked();  // REQUIRES satisfied: lock is held here
    return seen;
  }
};

int use_queue() {
  Queue q;
  q.push();
  return q.pop_all();
}

palb::PlanHandle::Snapshot use_plan_handle(palb::PlanHandle& handle,
                                           palb::DispatchPlan plan,
                                           palb::DispatchPlan next) {
  handle.publish(std::move(plan));  // one-step publish, not holding
  {
    // Two-step read-modify-publish under the publish capability.
    // acquire() is legal here — it takes only the internal snapshot
    // mutex, so inspecting the incumbent mid-sequence does not
    // self-deadlock (and the analysis agrees).
    palb::MutexLock lock(handle.publish_mutex());
    const palb::PlanHandle::Snapshot incumbent = handle.acquire();
    (void)incumbent;
    handle.publish_locked(std::move(next));
  }
  return handle.acquire();
}

// Raw lock()/unlock() balance is legal when it balances on every path.
int balanced_raw_usage(palb::Mutex& mu) {
  mu.lock();
  mu.unlock();
  if (mu.try_lock()) {
    mu.unlock();
    return 1;
  }
  return 0;
}

// A successful try_lock() adopted by an AdoptedLock is released when
// the scope ends, on every path.
int adopted_try_lock(palb::Mutex& mu) {
  if (!mu.try_lock()) return 0;
  const palb::AdoptedLock hold(mu);
  return 1;
}

}  // namespace

int touch_all(palb::PlanHandle& handle, palb::DispatchPlan a,
              palb::DispatchPlan b, palb::Mutex& mu) {
  const palb::PlanHandle::Snapshot snap =
      use_plan_handle(handle, std::move(a), std::move(b));
  return use_queue() + balanced_raw_usage(mu) + adopted_try_lock(mu) +
         static_cast<int>(snap.version);
}
