// Cooperative cancellation token shared by a job's tasks.
//
// A CancelToken is the one-way edge "this job must stop": the service
// layer (timeouts, client aborts, drain) flips it once, and every layer
// underneath — MR task attempts, node-graph pumps, gated splits — polls it
// at its next safe point and unwinds with StatusCode::kCancelled carrying
// the recorded cause. Callbacks registered with OnCancel run exactly
// once, on whichever thread flips the token (or inline when already
// cancelled), mirroring ReadySignal's contract; they are how gated work
// that would otherwise wait forever (a ReadySignal that will never fire
// because the upstream round was cancelled) gets released.

#ifndef GESALL_UTIL_CANCEL_H_
#define GESALL_UTIL_CANCEL_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace gesall {

/// \brief One-shot cooperative cancellation flag with a cause and
/// exactly-once callbacks. Thread-safe; typically held by shared_ptr.
class CancelToken {
 public:
  /// Flips the token. The first call wins: its cause is recorded and the
  /// registered callbacks run (on this thread, outside the lock); later
  /// calls are no-ops.
  void Cancel(std::string cause) {
    std::vector<std::function<void()>> callbacks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (cancelled_.load(std::memory_order_relaxed)) return;
      cause_ = std::move(cause);
      cancelled_.store(true, std::memory_order_release);
      callbacks = std::move(callbacks_);
      callbacks_.clear();
    }
    for (auto& cb : callbacks) cb();
  }

  /// Cheap poll — safe on hot paths (single acquire load).
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// The first Cancel()'s cause; empty while not cancelled.
  std::string cause() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cause_;
  }

  /// OK while live, Status::Cancelled(cause) once cancelled.
  Status status() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (!cancelled_.load(std::memory_order_relaxed)) return Status::OK();
    return Status::Cancelled(cause_);
  }

  /// `fn` runs exactly once: inside the winning Cancel() in registration
  /// order, or inline right here when the token is already cancelled.
  void OnCancel(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!cancelled_.load(std::memory_order_relaxed)) {
        callbacks_.push_back(std::move(fn));
        return;
      }
    }
    fn();
  }

 private:
  mutable std::mutex mu_;
  std::atomic<bool> cancelled_{false};
  std::string cause_;                             // guarded by mu_
  std::vector<std::function<void()>> callbacks_;  // guarded by mu_
};

}  // namespace gesall

#endif  // GESALL_UTIL_CANCEL_H_
