/// \file
/// SLO-aware batching: a target-p99 feedback controller over the batch knobs.
///
/// The static max-batch/max-wait policy (BatchPolicy below) has a tuning
/// problem: a max-wait generous enough to fill batches at low traffic
/// inflates tail latency the moment an SLO is attached, and a tight one
/// wastes batching headroom. The controller closes the loop: after each
/// served batch the host feeds it the p99 observed over a recent sample
/// window, and the controller steers the *effective* max-wait (and, at the
/// extremes, the effective max-batch) toward the largest values that keep
/// p99 at or under the target.
///
/// The update rule is deliberately simple and provably monotone — for a
/// fixed controller state, a higher observed p99 never yields a larger
/// effective max-wait (tests/test_properties.cc pins this down, along with
/// clamping and convergence on synthetic latency traces):
///
///   observed p99 > target            -> shrink wait multiplicatively
///                                       (floor max_shrink); once wait is at
///                                       its minimum, step max-batch down
///   observed p99 < headroom * target -> recover max-batch first, then grow
///                                       wait (factor grow + additive step so
///                                       growth escapes zero)
///   otherwise                        -> hold (the stability band)
///
/// Everything is clamped to configured bounds, and every shrink/grow is
/// counted — the BENCH JSON reports the counters so a run can prove the
/// mechanism engaged even when it ties the static policy.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace triad::serve {

/// Static batch-formation knobs of one served model. A batch leaves once it
/// holds max_batch requests or max_wait_us has passed since its first
/// request was collected. queue_capacity bounds admission: a full queue
/// rejects try_submit (back-pressure instead of unbounded growth).
struct BatchPolicy {
  int max_batch = 8;
  std::int64_t max_wait_us = 200;
  std::size_t queue_capacity = 1024;
};

/// SLO policy knobs. Disabled by default: a ServingHost model without an SLO
/// serves under its static BatchPolicy alone.
struct SloPolicy {
  bool enabled = false;
  std::int64_t target_p99_us = 10000;  ///< the latency SLO being steered to
  std::int64_t min_wait_us = 0;        ///< lower clamp for effective max-wait
  /// Upper clamp for effective max-wait; <= 0 means "the BatchPolicy's own
  /// max_wait_us" (the static knob becomes the ceiling, never exceeded).
  std::int64_t max_wait_us = 0;
  int min_batch = 1;          ///< lower clamp for effective max-batch
  double headroom = 0.7;      ///< grow region: p99 < headroom * target
  double grow = 1.25;         ///< multiplicative wait growth per update
  std::int64_t grow_step_us = 25;  ///< additive growth floor (escapes zero)
  double max_shrink = 0.25;   ///< per-update shrink-factor floor
  std::size_t window = 64;    ///< recent samples behind the p99 observation
  /// Observations are skipped until this many samples exist — a p99 over two
  /// requests is noise, not a signal.
  std::size_t min_samples = 8;
};

/// The feedback controller. Pure state machine — no threads, no clocks, no
/// histogram: the caller observes a p99 however it likes and feeds it in.
/// Thread-safe; workers read the effective knobs while another worker feeds
/// an observation.
class SloBatchController {
 public:
  SloBatchController(const SloPolicy& policy, const BatchPolicy& base)
      : policy_(policy),
        base_batch_(std::max(1, base.max_batch)),
        min_batch_(std::clamp(policy.min_batch, 1, std::max(1, base.max_batch))),
        min_wait_(std::max<std::int64_t>(0, policy.min_wait_us)),
        max_wait_(std::max(min_wait_, policy.max_wait_us > 0
                                          ? policy.max_wait_us
                                          : std::max<std::int64_t>(
                                                0, base.max_wait_us))),
        wait_us_(std::clamp(base.max_wait_us, min_wait_, max_wait_)),
        max_batch_(base_batch_) {}

  /// One feedback update from an observed p99 (seconds). Non-positive
  /// observations (no samples yet) and disabled policies are no-ops.
  void observe_p99(double p99_seconds) {
    if (!policy_.enabled || p99_seconds <= 0) return;
    const double target = static_cast<double>(policy_.target_p99_us) * 1e-6;
    std::lock_guard<std::mutex> lock(mu_);
    ++updates_;
    if (p99_seconds > target) {
      if (wait_us_ > min_wait_) {
        // Proportional shrink: gentle just over the target, capped at
        // max_shrink under gross violation; minus-one guarantees progress
        // when the multiplicative step rounds to a no-op.
        const double f = std::max(policy_.max_shrink, target / p99_seconds);
        wait_us_ = std::clamp(
            static_cast<std::int64_t>(static_cast<double>(wait_us_) * f),
            min_wait_, wait_us_ - 1);
        ++shrinks_;
      } else if (max_batch_ > min_batch_) {
        --max_batch_;
        ++shrinks_;
      }
    } else if (p99_seconds < policy_.headroom * target) {
      if (max_batch_ < base_batch_) {
        ++max_batch_;
        ++grows_;
      } else if (wait_us_ < max_wait_) {
        wait_us_ = std::min(
            max_wait_,
            static_cast<std::int64_t>(static_cast<double>(wait_us_) *
                                      policy_.grow) +
                policy_.grow_step_us);
        ++grows_;
      }
    }
    // p99 in [headroom * target, target]: the stability band — hold.
  }

  std::int64_t effective_wait_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wait_us_;
  }
  int effective_max_batch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_batch_;
  }

  std::uint64_t shrinks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shrinks_;
  }
  std::uint64_t grows() const {
    std::lock_guard<std::mutex> lock(mu_);
    return grows_;
  }
  std::uint64_t updates() const {
    std::lock_guard<std::mutex> lock(mu_);
    return updates_;
  }

  const SloPolicy& policy() const { return policy_; }

 private:
  const SloPolicy policy_;
  const int base_batch_;       ///< upper clamp for effective max-batch
  const int min_batch_;        ///< lower clamp (never above base_batch_)
  const std::int64_t min_wait_;
  const std::int64_t max_wait_;

  mutable std::mutex mu_;
  std::int64_t wait_us_;
  int max_batch_;
  std::uint64_t shrinks_ = 0;
  std::uint64_t grows_ = 0;
  std::uint64_t updates_ = 0;
};

}  // namespace triad::serve
