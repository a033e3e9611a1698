/// \file
/// Bounded MPMC blocking queue with close semantics and priority lanes.
///
/// The admission-control buffer of the serving runtime (serve/host.h):
/// producers block (or fail fast via try_push) when the queue is full, so a
/// traffic burst turns into back-pressure instead of unbounded memory growth.
/// close() wakes every waiter; consumers drain what is left and then observe
/// end-of-stream as an empty optional.
///
/// A queue may be constructed with N priority lanes (default 1). Capacity is
/// shared across lanes — admission control sees one depth — but consumers
/// always drain lane 0 before lane 1 before lane 2, FIFO within a lane. This
/// is how the multi-model host serves High-priority requests first under a
/// saturated queue without starving FIFO fairness inside a class.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace triad {

/// Fixed-capacity multi-producer multi-consumer queue. All methods are
/// thread-safe; a capacity of 0 is promoted to 1, a lane count < 1 to 1.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity, int lanes = 1)
      : capacity_(capacity > 0 ? capacity : 1),
        lanes_(static_cast<std::size_t>(lanes > 0 ? lanes : 1)) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false (item dropped) once the queue is
  /// closed — producers use this as the shutdown signal. Out-of-range lanes
  /// are clamped to the last (lowest-priority) lane.
  bool push(T item, int lane = 0) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_space_.wait(lock, [this] { return closed_ || size_ < capacity_; });
    if (closed_) return false;
    lanes_[clamp_lane(lane)].push_back(std::move(item));
    ++size_;
    cv_item_.notify_one();
    return true;
  }

  /// Never blocks. Returns false when full or closed — the admission-control
  /// path: a rejected request is the caller's to retry, shed, or fail.
  bool try_push(T item, int lane = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || size_ >= capacity_) return false;
    lanes_[clamp_lane(lane)].push_back(std::move(item));
    ++size_;
    cv_item_.notify_one();
    return true;
  }

  /// Blocks while empty. Empty optional means closed *and* drained: items
  /// enqueued before close() are always delivered.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_item_.wait(lock, [this] { return closed_ || size_ > 0; });
    return take(lock);
  }

  /// Like pop(), but gives up at `deadline` (empty optional on timeout). A
  /// deadline in the past still delivers an immediately available item —
  /// the zero-wait batching policy relies on that.
  template <typename Clock, typename Duration>
  std::optional<T> pop_until(std::chrono::time_point<Clock, Duration> deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_item_.wait_until(lock, deadline,
                             [this] { return closed_ || size_ > 0; })) {
      return std::nullopt;
    }
    return take(lock);
  }

  /// Never blocks: an immediately available item or nothing. The multi-model
  /// host's workers use this to scan per-model queues without committing to
  /// one queue's condition variable.
  std::optional<T> try_pop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (size_ == 0) return std::nullopt;
    return take(lock);
  }

  /// Wakes all waiters. Pending items stay poppable; further pushes fail.
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_item_.notify_all();
    cv_space_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  std::size_t capacity() const { return capacity_; }
  int num_lanes() const { return static_cast<int>(lanes_.size()); }

 private:
  std::size_t clamp_lane(int lane) const {
    if (lane < 0) return 0;
    const auto l = static_cast<std::size_t>(lane);
    return l < lanes_.size() ? l : lanes_.size() - 1;
  }

  /// Pops the highest-priority (lowest-index) non-empty lane under an
  /// already-held lock; empty when drained (only reachable when closed or
  /// from the non-blocking paths).
  std::optional<T> take(std::unique_lock<std::mutex>&) {
    for (std::deque<T>& lane : lanes_) {
      if (lane.empty()) continue;
      std::optional<T> item(std::move(lane.front()));
      lane.pop_front();
      --size_;
      cv_space_.notify_one();
      return item;
    }
    return std::nullopt;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_item_;
  std::condition_variable cv_space_;
  std::vector<std::deque<T>> lanes_;
  std::size_t size_ = 0;  ///< total items across lanes
  bool closed_ = false;
};

}  // namespace triad
