#pragma once

// Cooperative cancellation primitive shared by the serving tier and the
// sampling engines.
//
// A CancelSource owns a cancellation flag; CancelToken is a cheap,
// copyable observer handle. Engines poll tokens at per-instance step
// boundaries (one relaxed atomic load when armed, two branches when
// not), so cancellation is prompt — the current step finishes, nothing
// else starts — but never preemptive.
//
// Sources can be *linked*: `CancelSource::linked(parent)` creates a
// source whose token also reports cancelled when `parent` fires. The
// service uses this to chain the client-held request token into its own
// per-request source, so both the client (cancel()) and the dispatcher
// (deadline) can stop the same request, first reason wins.
//
// Determinism contract: cancelling instance i only ever *removes* work
// belonging to instance i (its chains stop at the next step boundary,
// its queued frontier entries are dropped). Per-instance RNG streams
// are counter-based, so the bytes of every non-cancelled instance in
// the same run are unchanged. A run-level token (RunControl::cancel,
// core/engine.hpp) is coarser — it stops whole chains as they come up for execution, in
// a thread-schedule-dependent order — and is therefore only used when
// every instance of the run is already condemned.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace csaw {

/// Why a request / run was cancelled. First cancel wins; later calls
/// with a different reason are ignored.
enum class CancelReason : std::uint8_t {
  kNone = 0,       ///< Not cancelled.
  kRequested = 1,  ///< Explicit client cancellation.
  kDeadline = 2,   ///< The request's deadline expired.
};

inline std::string to_string(CancelReason reason) {
  switch (reason) {
    case CancelReason::kNone:
      return "none";
    case CancelReason::kRequested:
      return "requested";
    case CancelReason::kDeadline:
      return "deadline";
  }
  return "unknown";
}

class CancelSource;

/// Observer half of a cancellation pair. Default-constructed tokens are
/// inert: `cancelled()` is false forever and costs one pointer compare.
class CancelToken {
 public:
  CancelToken() = default;

  /// True when this token observes a live source (armed).
  bool valid() const noexcept { return state_ != nullptr; }

  bool cancelled() const noexcept {
    const State* s = state_.get();
    while (s != nullptr) {
      if (s->reason.load(std::memory_order_acquire) !=
          static_cast<std::uint8_t>(CancelReason::kNone)) {
        return true;
      }
      s = s->parent.get();
    }
    return false;
  }

  /// The first reason that fired along the chain (own source before
  /// parent), or kNone when not cancelled.
  CancelReason reason() const noexcept {
    const State* s = state_.get();
    while (s != nullptr) {
      const auto r = s->reason.load(std::memory_order_acquire);
      if (r != static_cast<std::uint8_t>(CancelReason::kNone)) {
        return static_cast<CancelReason>(r);
      }
      s = s->parent.get();
    }
    return CancelReason::kNone;
  }

 private:
  friend class CancelSource;

  struct State {
    std::atomic<std::uint8_t> reason{
        static_cast<std::uint8_t>(CancelReason::kNone)};
    std::shared_ptr<const State> parent;  ///< Linked upstream source.
  };

  explicit CancelToken(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const State> state_;
};

/// Owner half: the side allowed to fire. Copyable (copies share the
/// same flag), cheap to move, safe to destroy before or after its
/// tokens — lifetime is managed by shared_ptr.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<CancelToken::State>()) {}

  /// A source that also observes `parent`: its tokens report cancelled
  /// when either this source or the parent chain fires.
  static CancelSource linked(const CancelToken& parent) {
    CancelSource source;
    source.state_->parent = parent.state_;
    return source;
  }

  /// Fire. First reason wins; kNone is ignored.
  void cancel(CancelReason reason = CancelReason::kRequested) noexcept {
    if (reason == CancelReason::kNone) return;
    std::uint8_t expected = static_cast<std::uint8_t>(CancelReason::kNone);
    state_->reason.compare_exchange_strong(
        expected, static_cast<std::uint8_t>(reason), std::memory_order_release,
        std::memory_order_relaxed);
  }

  bool cancelled() const noexcept { return token().cancelled(); }
  CancelReason reason() const noexcept { return token().reason(); }

  CancelToken token() const noexcept { return CancelToken(state_); }

 private:
  std::shared_ptr<CancelToken::State> state_;
};

}  // namespace csaw
