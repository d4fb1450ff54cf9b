// Cooperative cancellation for long-running engine work.
//
// A CancelToken carries an absolute steady-clock deadline. The service
// arms it before dispatching a command and the chase saturation loops —
// the only places the engine can spend unbounded time — poll it and bail
// out with DeadlineExceeded. Cancellation is checked *before* state is
// mutated at each step, so a cancelled command leaves the structure it
// was working on unusable only when the caller is told so (the inquiry
// engine then drops that structure and rebuilds it on next use, see
// repair/inquiry.h).
//
// Thread model: one thread arms/disarms, any thread polls. All accesses
// are relaxed atomics on a single int64 — cheap enough to poll from a
// chase inner loop.

#ifndef KBREPAIR_UTIL_CANCEL_H_
#define KBREPAIR_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace kbrepair {

class CancelToken {
 public:
  // Arms the token: work polling it fails once `budget_ms` elapses.
  // A non-positive budget expires the token immediately.
  void ArmDeadline(int64_t budget_ms) {
    deadline_ns_.store(NowNs() + budget_ms * 1000000, std::memory_order_relaxed);
  }

  // Clears the deadline; Expired() returns false until re-armed.
  void Disarm() { deadline_ns_.store(0, std::memory_order_relaxed); }

  bool armed() const {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }

  bool Expired() const {
    const int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    return deadline != 0 && NowNs() >= deadline;
  }

  // Ok, or DeadlineExceeded mentioning `what` (the work being cut off).
  Status Check(const char* what) const {
    if (!Expired()) return Status::Ok();
    return Status::DeadlineExceeded(std::string(what) +
                                    ": command deadline exceeded");
  }

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // 0 = disarmed; otherwise absolute steady-clock nanoseconds.
  std::atomic<int64_t> deadline_ns_{0};
};

}  // namespace kbrepair

#endif  // KBREPAIR_UTIL_CANCEL_H_
