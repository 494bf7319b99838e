#include "sensor/data_log.h"

#include <cassert>

namespace sensorcer::sensor {

DataLog::DataLog(std::size_t capacity) : capacity_(capacity ? capacity : 1) {
  buffer_.reserve(capacity_);
}

void DataLog::append(const Reading& reading) {
  if (size_ < capacity_) {
    // Not yet full, so head_ is 0 and the next slot is size_.
    if (size_ < buffer_.size()) {
      buffer_[size_] = reading;
    } else {
      buffer_.push_back(reading);
    }
    ++size_;
  } else {
    buffer_[head_] = reading;
    head_ = (head_ + 1) % capacity_;
    ++evicted_;
  }
}

const Reading& DataLog::latest() const {
  assert(size_ > 0 && "latest() on empty DataLog");
  return buffer_[(head_ + size_ - 1) % capacity_];
}

const Reading& DataLog::oldest() const {
  assert(size_ > 0 && "oldest() on empty DataLog");
  return buffer_[head_];
}

std::size_t DataLog::first_at_or_after(util::SimTime since) const {
  // Timestamps are non-decreasing in append order, so the ring (read from
  // head_) is sorted: binary-search the first logical index at or after
  // `since` instead of scanning from the oldest element.
  std::size_t lo = 0;
  std::size_t hi = size_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (buffer_[(head_ + mid) % capacity_].timestamp < since) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<Reading> DataLog::window(util::SimTime since,
                                     util::SimTime until) const {
  std::vector<Reading> out;
  const std::size_t start = first_at_or_after(since);
  out.reserve(size_ - start);
  for (std::size_t i = start; i < size_; ++i) {
    const Reading& r = buffer_[(head_ + i) % capacity_];
    if (r.timestamp >= until) break;
    out.push_back(r);
  }
  return out;
}

util::StatAccumulator DataLog::stats_since(util::SimTime since,
                                           util::SimTime until) const {
  util::StatAccumulator acc;
  for_each(since, until, [&acc](const Reading& r) {
    if (r.quality != Quality::kBad) acc.add(r.value);
  });
  return acc;
}

void DataLog::clear() {
  head_ = 0;
  size_ = 0;
}

}  // namespace sensorcer::sensor
