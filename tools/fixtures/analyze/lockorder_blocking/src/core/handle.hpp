#pragma once

// Seeded K2 violations: mu_ is designated `fastpath` in this fixture's
// layers.txt, and stall() dispatches pool work while holding it — the
// blocking call the zero-stall contract forbids. fan_out() runs a whole
// slot fan-out (solves plus a pool join) under the same lock.

namespace fixture {

class Handle {
 public:
  void stall() {
    MutexLock hold(mu_);
    pool_.submit([] {});
  }

  void fan_out(Policy& policy) {
    MutexLock hold(mu_);
    for_each_slot(policy, 4, 2, [](Policy&, std::size_t) {});
  }

 private:
  Mutex mu_;
  ThreadPool pool_;
};

}  // namespace fixture
