#include "hist/rollup.h"

#include <algorithm>

namespace sensorcer::hist {

void RollupBucket::add(util::SimTime ts, double value) {
  if (count == 0) {
    min = max = value;
    last = value;
    last_ts = ts;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
    if (ts >= last_ts) {
      last = value;
      last_ts = ts;
    }
  }
  sum += value;
  ++count;
}

void RollupBucket::merge(const RollupBucket& other) {
  if (other.empty()) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
    last = other.last;
    last_ts = other.last_ts;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    if (other.last_ts >= last_ts) {
      last = other.last;
      last_ts = other.last_ts;
    }
  }
  sum += other.sum;
  count += other.count;
}

void AggregateStats::add_sample(util::SimTime ts, double value) {
  if (count == 0) {
    min = max = value;
    last = value;
    last_ts = ts;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
    if (ts >= last_ts) {
      last = value;
      last_ts = ts;
    }
  }
  sum += value;
  ++count;
}

void AggregateStats::add_bucket(const RollupBucket& bucket) {
  if (bucket.empty()) return;
  if (count == 0) {
    min = bucket.min;
    max = bucket.max;
    last = bucket.last;
    last_ts = bucket.last_ts;
  } else {
    min = std::min(min, bucket.min);
    max = std::max(max, bucket.max);
    if (bucket.last_ts >= last_ts) {
      last = bucket.last;
      last_ts = bucket.last_ts;
    }
  }
  sum += bucket.sum;
  count += bucket.count;
}

RollupRing::RollupRing(util::SimDuration resolution, std::size_t bucket_count)
    : res_(resolution > 0 ? resolution : 1),
      capacity_(bucket_count > 0 ? bucket_count : 1) {}

RollupBucket& RollupRing::slot(util::SimTime aligned) {
  const std::size_t i = index_of(aligned);
  if (i >= ring_.size()) {
    // One step from the first slice to the exact capacity; never doubling.
    if (i >= ring_.capacity()) ring_.reserve(capacity_);
    ring_.resize(i + 1);
  }
  return ring_[i];
}

const RollupBucket* RollupRing::peek(util::SimTime aligned) const {
  const std::size_t i = index_of(aligned);
  return i < ring_.size() ? &ring_[i] : nullptr;
}

bool RollupRing::append(util::SimTime ts, double value) {
  const util::SimTime s = align(ts);
  if (!any_) {
    any_ = true;
    ring_.reserve(std::min(capacity_, kFirstSlice));
    origin_ = s;
    newest_start_ = s;
    valid_from_ = s;
    RollupBucket& b = slot(s);
    b = RollupBucket{};
    b.start = s;
    b.add(ts, value);
    return true;
  }
  if (s > newest_start_) {
    const auto n = static_cast<util::SimTime>(capacity_);
    const util::SimTime steps = (s - newest_start_) / res_;
    if (steps >= n) {
      // The whole retained window ages out in one jump; slots restart from
      // the new bucket.
      for (const RollupBucket& b : ring_) evicted_readings_ += b.count;
      ring_.clear();
      origin_ = s;
      newest_start_ = s;
      valid_from_ = s;
    } else {
      // Advance bucket by bucket, evicting whatever each slot held.
      for (util::SimTime i = 1; i <= steps; ++i) {
        const util::SimTime start = newest_start_ + i * res_;
        RollupBucket& b = slot(start);
        evicted_readings_ += b.count;
        b = RollupBucket{};
        b.start = start;
      }
      newest_start_ = s;
      valid_from_ = std::max(valid_from_, newest_start_ - (n - 1) * res_);
    }
    RollupBucket& b = slot(s);
    b.start = s;
    b.add(ts, value);
    return true;
  }
  if (s >= valid_from_) {
    // In-window, out-of-order (backfill): the slot for this bucket is live.
    RollupBucket& b = slot(s);
    b.start = s;
    b.add(ts, value);
    return true;
  }
  return false;  // predates the retained window
}

AggregateStats RollupRing::aggregate(util::SimTime from,
                                     util::SimTime to) const {
  AggregateStats out;
  if (!any_ || to <= from) return out;
  const util::SimTime lo = std::max(align(from), valid_from_);
  const util::SimTime hi = std::min(align_up(to), newest_start_ + res_);
  for (util::SimTime s = lo; s < hi; s += res_) {
    const RollupBucket* b = peek(s);
    if (b != nullptr && !b->empty() && b->start == s) out.add_bucket(*b);
  }
  return out;
}

void RollupRing::visit(
    util::SimTime from, util::SimTime to,
    const std::function<void(const RollupBucket&)>& fn) const {
  if (!any_ || to <= from) return;
  const util::SimTime lo = std::max(align(from), valid_from_);
  const util::SimTime hi = std::min(align_up(to), newest_start_ + res_);
  for (util::SimTime s = lo; s < hi; s += res_) {
    const RollupBucket* b = peek(s);
    if (b != nullptr && !b->empty() && b->start == s) fn(*b);
  }
}

}  // namespace sensorcer::hist
