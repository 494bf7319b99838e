#pragma once
// Bounded local store of readings.
//
// The paper's related-work discussion argues a sensor service "should be
// capable of storing data to the local store" because devices produce data
// faster than clients consume it. Each elementary sensor provider owns a
// DataLog: a fixed-capacity ring buffer with windowed queries and streaming
// statistics, so aggregation never has to touch the device.

#include <cstddef>
#include <limits>
#include <vector>

#include "sensor/reading.h"
#include "util/stats.h"

namespace sensorcer::sensor {

/// Open upper bound for windowed DataLog queries.
inline constexpr util::SimTime kEndOfTime =
    std::numeric_limits<util::SimTime>::max();

class DataLog {
 public:
  /// `capacity` readings are retained; older ones are evicted FIFO.
  explicit DataLog(std::size_t capacity = 1024);

  void append(const Reading& reading);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Readings evicted because the buffer was full.
  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }

  /// Most recent reading; requires !empty().
  [[nodiscard]] const Reading& latest() const;

  /// Oldest retained reading; requires !empty().
  [[nodiscard]] const Reading& oldest() const;

  /// Logical index (0 = oldest) of the first retained reading with
  /// timestamp >= since, or size() when none. Timestamps are appended in
  /// non-decreasing order, so this is a binary search — the windowed
  /// queries below start here instead of scanning from the oldest element.
  [[nodiscard]] std::size_t first_at_or_after(util::SimTime since) const;

  /// Readings with since <= timestamp < until, oldest first.
  [[nodiscard]] std::vector<Reading> window(
      util::SimTime since, util::SimTime until = kEndOfTime) const;

  /// All retained readings, oldest first.
  [[nodiscard]] std::vector<Reading> snapshot() const { return window(0); }

  /// Streaming stats over readings with since <= timestamp < until
  /// (good+suspect quality only; kBad readings are excluded from
  /// aggregates).
  [[nodiscard]] util::StatAccumulator stats_since(
      util::SimTime since, util::SimTime until = kEndOfTime) const;

  /// Visit readings with since <= timestamp < until, oldest first, without
  /// materializing a vector (the historian's raw-scan query path).
  template <typename Fn>
  void for_each(util::SimTime since, util::SimTime until, Fn&& fn) const {
    for (std::size_t i = first_at_or_after(since); i < size_; ++i) {
      const Reading& r = buffer_[(head_ + i) % capacity_];
      if (r.timestamp >= until) break;
      fn(r);
    }
  }

  void clear();

 private:
  std::size_t capacity_;
  /// Reserved at capacity up front, but slots are constructed by the first
  /// write that reaches them: a young log touches only what it holds.
  /// buffer_.size() < capacity_ only before the first wrap, when head_ is 0.
  std::vector<Reading> buffer_;
  std::size_t head_ = 0;  // index of the oldest element
  std::size_t size_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace sensorcer::sensor
