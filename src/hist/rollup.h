#pragma once
// Multi-resolution rollup rings — the aggregation substrate of the
// historian (src/hist/).
//
// A RollupRing is a fixed-capacity circular array of time-aligned buckets
// at one resolution (e.g. 600 one-second buckets). Buckets hold streaming
// aggregates (count/min/max/sum/last) and are maintained incrementally at
// append time — a reading lands in exactly one bucket per ring, never by
// rescanning raw data. A range aggregate over a ring therefore costs
// O(buckets in range) regardless of how many readings were ingested, which
// is what makes wide historical queries cheap (ISSUE 4's ≥50× bound).

#include <cstdint>
#include <functional>
#include <vector>

#include "util/sim_time.h"

namespace sensorcer::hist {

/// One time-aligned aggregate bucket: [start, start + resolution).
struct RollupBucket {
  util::SimTime start = 0;
  std::uint32_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double last = 0.0;
  util::SimTime last_ts = 0;

  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  void add(util::SimTime ts, double value);

  /// Fold another bucket's aggregates in (downsample re-binning).
  void merge(const RollupBucket& other);
};

/// Mergeable aggregate over samples and/or buckets (unlike
/// util::StatAccumulator, which cannot merge pre-aggregated partials).
struct AggregateStats {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double last = 0.0;
  util::SimTime last_ts = 0;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  void add_sample(util::SimTime ts, double value);
  void add_bucket(const RollupBucket& bucket);
};

/// Circular array of aligned buckets at one resolution. Appends must be
/// time-ordered at bucket granularity going forward; readings older than
/// the retained window are dropped (the caller counts them). In-window
/// out-of-order appends (e.g. a failover backfill racing fresh samples)
/// land in their proper bucket.
class RollupRing {
 public:
  RollupRing(util::SimDuration resolution, std::size_t bucket_count);

  [[nodiscard]] util::SimDuration resolution() const { return res_; }
  [[nodiscard]] std::size_t bucket_capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return !any_; }

  /// Bucket start containing `t`.
  [[nodiscard]] util::SimTime align(util::SimTime t) const {
    return (t / res_) * res_;
  }
  /// Smallest bucket boundary >= t.
  [[nodiscard]] util::SimTime align_up(util::SimTime t) const {
    return ((t + res_ - 1) / res_) * res_;
  }

  /// Start of the oldest bucket still retained (data before this aged out).
  [[nodiscard]] util::SimTime retained_from() const { return valid_from_; }
  [[nodiscard]] util::SimTime newest_start() const { return newest_start_; }

  /// True when the ring can answer a query reaching back to `from` without
  /// missing aged-out buckets.
  [[nodiscard]] bool covers(util::SimTime from) const {
    return any_ && align(from) >= valid_from_;
  }

  /// Returns false when the reading predates the retained window (dropped).
  bool append(util::SimTime ts, double value);

  /// Aggregate over the bucket-aligned window [align(from), align_up(to)),
  /// clamped to what the ring retains. O(buckets).
  [[nodiscard]] AggregateStats aggregate(util::SimTime from,
                                         util::SimTime to) const;

  /// Visit every non-empty bucket intersecting [from, to), oldest first.
  void visit(util::SimTime from, util::SimTime to,
             const std::function<void(const RollupBucket&)>& fn) const;

  /// Readings aged out of this ring (their bucket was evicted).
  [[nodiscard]] std::uint64_t evicted_readings() const {
    return evicted_readings_;
  }

  /// Memory footprint of the ring at full capacity (what budgets charge,
  /// however many buckets have been written so far).
  [[nodiscard]] std::size_t bytes() const {
    return capacity_ * sizeof(RollupBucket);
  }

 private:
  /// Slots are numbered from the first bucket ever written (`origin_`), so
  /// a ring fills its slots in order and each slot is constructed the first
  /// time time reaches it. Storage is reserved on first write — a first
  /// slice of kFirstSlice buckets, then the exact capacity once the ring
  /// outgrows it — so a coarse ring that sees a few buckets an hour holds
  /// a few buckets' worth of memory, not its whole window.
  static constexpr std::size_t kFirstSlice = 64;
  [[nodiscard]] std::size_t index_of(util::SimTime aligned) const {
    return static_cast<std::size_t>(((aligned - origin_) / res_) %
                                    static_cast<util::SimTime>(capacity_));
  }
  /// The slot for bucket `aligned`, constructing slots up to it.
  RollupBucket& slot(util::SimTime aligned);
  /// The slot for bucket `aligned`, or null when never written.
  [[nodiscard]] const RollupBucket* peek(util::SimTime aligned) const;

  util::SimDuration res_;
  std::size_t capacity_;
  util::SimTime origin_ = 0;
  std::vector<RollupBucket> ring_;  // size() = slots constructed so far
  bool any_ = false;
  util::SimTime newest_start_ = 0;
  util::SimTime valid_from_ = 0;
  std::uint64_t evicted_readings_ = 0;
};

}  // namespace sensorcer::hist
