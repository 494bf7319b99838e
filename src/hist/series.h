#pragma once
// Per-sensor storage segment of the historian.
//
// The raw tier is an active append block (sensor::DataLog — the same
// building block each ESP already uses as its local store) plus a chain of
// sealed, immutable, Gorilla-compressed blocks (hist/block.h). When the
// active block fills it is sealed whole; when the raw tier exceeds its
// reading budget or age horizon, the oldest sealed block is demoted — not
// dropped — into a 1s rollup TierBlock (the mid tier), and mid blocks past
// their own budget/horizon re-bucket into 60s cold blocks. Only the cold
// tier ever actually discards history. Rollup rings (PR 4) are unchanged
// and keep serving recent wide aggregates in O(buckets).
//
// Concurrency: one mutex guards the hot state (active block, rings,
// counters); the sealed/tier chain is an immutable copy-on-write snapshot
// behind a shared_ptr. A deep read locks only long enough to copy the
// bounded active block and grab the chain pointer, then decodes/scans
// compressed history entirely lock-free — readers never block the append
// path for more than that bounded copy (seqlock-spirit coordination).
//
// Queries go through a tiny planner: a stats or downsample request names
// the coarsest bucket width it can accept and is answered from the
// coarsest ring that is fine enough and still retains the window start;
// otherwise it falls to a deep scan over sealed blocks + active (exact,
// footer-accelerated), or — when the window reaches past the raw tier and
// the caller tolerates tier-width buckets — to the tiered path combining
// cold buckets, mid buckets and raw readings.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hist/block.h"
#include "hist/rollup.h"
#include "sensor/data_log.h"
#include "sensor/reading.h"
#include "util/sim_time.h"

namespace sensorcer::hist {

/// One rollup ring: bucket width and how many buckets are retained.
struct RingSpec {
  util::SimDuration resolution = util::kSecond;
  std::size_t buckets = 600;
};

/// Storage layout of one sensor's segment. The defaults retain ~1.5h of
/// 1 Hz data across three resolutions, with raw history compressed once a
/// block seals.
struct SeriesConfig {
  /// Raw readings retained across the active block and the sealed chain.
  /// Overflow demotes the oldest sealed block to the mid tier.
  std::size_t raw_capacity = 4096;
  /// Readings per sealed block: the active block seals when it reaches
  /// this size (clamped to raw_capacity).
  std::size_t block_readings = 512;
  /// Rollup resolutions; order does not matter (sorted on construction).
  std::vector<RingSpec> rings{{util::kSecond, 600},
                              {10 * util::kSecond, 360},
                              {60 * util::kSecond, 240}};

  /// Tiering: sealed blocks demote raw -> mid (1s buckets) -> cold (60s
  /// buckets) -> dropped. Bucket budgets bound each tier's footprint.
  util::SimDuration mid_resolution = util::kSecond;
  util::SimDuration cold_resolution = 60 * util::kSecond;
  std::size_t mid_max_buckets = 4096;
  std::size_t cold_max_buckets = 4096;
  /// Age horizons relative to the newest appended timestamp; 0 disables
  /// age-based demotion for that tier (size budgets still apply).
  util::SimDuration raw_horizon = 0;
  util::SimDuration mid_horizon = 0;
  util::SimDuration cold_horizon = 0;
};

/// A (timestamp, value) pair of a range or downsample result.
struct Point {
  util::SimTime timestamp = 0;
  double value = 0.0;
};

/// Result of a stats query. `from_effective`/`to_effective` report the
/// window actually answered: rollup/tier answers are bucket-aligned, and
/// every path clamps to what is retained.
struct StatsResult {
  AggregateStats stats;
  util::SimTime from_effective = 0;
  util::SimTime to_effective = 0;
  /// "raw", "rollup:<resolution>" (e.g. "rollup:60s"), or "tiered" when
  /// demoted tiers contributed buckets.
  std::string source;
  /// Bucket width used; 0 for the raw path. For "tiered" this is the
  /// coarsest tier that contributed.
  util::SimDuration resolution = 0;
};

/// Result of a range or downsample query.
struct SeriesResult {
  std::vector<Point> points;
  std::string source;
  /// True when a range query had more matching readings than max_points.
  bool truncated = false;
};

/// The most points that the read path's reused storage (downsample bins,
/// the historian's kept answer, a façade shell's reply columns) holds on to
/// between queries. A query that needed more gives its storage back when it
/// returns, so one huge query does not pin its memory for the life of the
/// process.
inline constexpr std::size_t kMaxKeptPoints = 4096;

/// Free `v`'s storage when it outgrew kMaxKeptPoints.
template <class T>
void release_if_oversized(std::vector<T>& v) {
  if (v.capacity() > kMaxKeptPoints) std::vector<T>().swap(v);
}

class SensorSeries {
 public:
  explicit SensorSeries(const SeriesConfig& config = {});

  SensorSeries(const SensorSeries&) = delete;
  SensorSeries& operator=(const SensorSeries&) = delete;

  enum class Append {
    kAccepted,
    kAcceptedEvicted,  // accepted; readings left the raw tier (demotion)
    kDuplicate,        // timestamp <= newest retained; dropped (dedup)
  };

  /// Byte footprint split by storage class. active/ring are uncompressed
  /// fixed allocations; sealed is compressed block bytes (headers, streams
  /// and footers included); tier is demoted rollup buckets.
  struct Footprint {
    std::size_t active_bytes = 0;
    std::size_t ring_bytes = 0;
    std::size_t sealed_bytes = 0;
    std::size_t tier_bytes = 0;
    [[nodiscard]] std::size_t total() const {
      return active_bytes + ring_bytes + sealed_bytes + tier_bytes;
    }
  };

  /// Exact retention boundaries. -1 means the region holds nothing.
  /// Readings with ts >= raw_from are individually retrievable (range);
  /// readings in [tier_from, raw_from) survive only as tier buckets.
  struct Retention {
    util::SimTime tier_from = -1;
    util::SimTime raw_from = -1;
  };

  /// Monotonic + live counters, snapshotted atomically under the series
  /// lock (the store keeps its byte accounting via before/after deltas).
  struct Counters {
    std::uint64_t appended = 0;
    std::uint64_t raw_evicted = 0;    // readings demoted out of the raw tier
    std::uint64_t tier_evicted = 0;   // readings dropped from the cold tier
    std::uint64_t blocks_sealed = 0;  // total seals ever
    std::uint64_t blocks_demoted = 0;  // total raw->mid demotions ever
    std::uint64_t sealed_readings = 0;  // live readings in sealed blocks
    std::size_t sealed_blocks = 0;      // live
    std::size_t tier_blocks = 0;        // live (mid + cold)
    Footprint footprint;
  };

  /// Append one reading. Raw keeps every quality; rollups and tiers
  /// aggregate only good/suspect readings (kBad is excluded from
  /// aggregates, matching DataLog::stats_since). Timestamps must be
  /// non-decreasing per series — an equal-or-older timestamp is treated as
  /// a replayed duplicate (the failover-backfill dedup rule) and dropped.
  Append append(const sensor::Reading& reading);

  /// Aggregate over [from, to). `max_resolution` is the coarsest bucket
  /// width the caller accepts; 0 demands the exact raw path.
  [[nodiscard]] StatsResult stats(util::SimTime from, util::SimTime to,
                                  util::SimDuration max_resolution) const;

  /// Like stats(), but never answered from the rollup rings: the answer
  /// comes from the retention substrate (tiers + sealed chain + active).
  /// This is what the chaos conservation audit and the equivalence tests
  /// probe — it proves what the tiers actually hold.
  [[nodiscard]] StatsResult deep_stats(util::SimTime from, util::SimTime to,
                                       util::SimDuration max_resolution) const;

  /// Raw-tier readings in [from, to), oldest first, capped at max_points.
  /// Served from the sealed chain + active block (demoted history is no
  /// longer individually retrievable).
  [[nodiscard]] SeriesResult range(util::SimTime from, util::SimTime to,
                                   std::size_t max_points) const;
  /// range() into `out`, overwriting it whole and reusing its storage.
  void range(util::SimTime from, util::SimTime to, std::size_t max_points,
             SeriesResult& out) const;

  /// At most `target_points` (bucket-start, bucket-mean) points over
  /// [from, to), answered from the coarsest ring whose buckets are no wider
  /// than the implied point spacing, falling back to tiers + raw scan.
  [[nodiscard]] SeriesResult downsample(util::SimTime from, util::SimTime to,
                                        std::size_t target_points) const;
  /// downsample() into `out`, overwriting it whole and reusing its storage.
  void downsample(util::SimTime from, util::SimTime to,
                  std::size_t target_points, SeriesResult& out) const;

  /// Planner decision (exposed for tests): the ring that would answer a
  /// query reaching back to `from` at `max_resolution`, or nullptr for the
  /// deep path.
  [[nodiscard]] const RollupRing* pick_ring(
      util::SimTime from, util::SimDuration max_resolution) const;

  /// Free the coldest storage: drop the oldest cold block, else re-bucket
  /// the oldest mid block to cold, else demote the oldest sealed block
  /// straight to the cold tier. Returns bytes freed (0 when only the
  /// active block and rings remain — the caller should then evict the
  /// whole series). This is the store's eviction ladder: compressed-cold
  /// history goes first, hot uncompressed state last.
  std::size_t shed_coldest();

  // --- accessors (thread-safe unless noted) ---

  /// The active (uncompressed) append block. Test-only: not synchronized
  /// against a concurrent appender.
  [[nodiscard]] const sensor::DataLog& raw() const { return active_; }
  /// Test-only, as raw().
  [[nodiscard]] const std::vector<RollupRing>& rings() const { return rings_; }

  [[nodiscard]] util::SimTime last_timestamp() const;
  [[nodiscard]] std::uint64_t appended() const;
  /// Readings demoted out of the raw tier (they survive as tier buckets).
  [[nodiscard]] std::uint64_t raw_evicted() const;
  /// Readings dropped entirely (aged/evicted out of the cold tier).
  [[nodiscard]] std::uint64_t tier_evicted() const;
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] Footprint footprint() const;
  [[nodiscard]] Retention retention() const;
  [[nodiscard]] Counters counters() const;

 private:
  /// Immutable snapshot of all non-active storage, oldest-first within
  /// each vector; cold strictly older than mid strictly older than sealed.
  struct Chain {
    std::vector<std::shared_ptr<const SealedBlock>> sealed;
    std::vector<std::shared_ptr<const TierBlock>> mid;
    std::vector<std::shared_ptr<const TierBlock>> cold;
    std::uint64_t sealed_readings = 0;
    std::size_t sealed_bytes = 0;
    std::size_t tier_bytes = 0;
    std::size_t mid_buckets = 0;
    std::size_t cold_buckets = 0;
  };

  /// What a deep reader walks after releasing the lock: the chain snapshot
  /// plus a copy of the (bounded) active block. The copy lands in a buffer
  /// the view borrows from its thread and hands back when it dies, so a warm
  /// read allocates nothing; a view made while another is alive on the same
  /// thread finds no buffer to borrow and allocates its own.
  struct ReadView {
    /// Built under the series lock.
    ReadView(std::shared_ptr<const Chain> chain_in,
             const sensor::DataLog& active_log, util::SimTime last);
    ~ReadView();
    ReadView(const ReadView&) = delete;
    ReadView& operator=(const ReadView&) = delete;

    std::shared_ptr<const Chain> chain;
    std::vector<sensor::Reading> active;
    util::SimTime last_ts = -1;
  };

  /// Oldest individually-retrievable reading of the view; -1 when none.
  [[nodiscard]] static util::SimTime raw_from_of(const ReadView& view);

  [[nodiscard]] ReadView read_view_locked() const;
  [[nodiscard]] const RollupRing* pick_ring_locked(
      util::SimTime from, util::SimDuration max_resolution) const;
  void seal_active_locked();
  /// Apply size/age demotion policy to a mutable chain copy; returns true
  /// when it changed. Updates raw_evicted_/tier_evicted_/demotion counters.
  bool demote_locked(Chain& chain);
  void publish_locked(Chain&& chain);
  [[nodiscard]] Footprint footprint_locked() const;
  [[nodiscard]] Retention retention_of(const ReadView& view) const;

  [[nodiscard]] StatsResult deep_stats_view(const ReadView& view,
                                            util::SimTime from,
                                            util::SimTime to,
                                            util::SimDuration max_res) const;

  SeriesConfig config_;  // normalized (block size clamped, rings sorted)

  mutable std::mutex hot_mu_;
  sensor::DataLog active_;
  std::vector<RollupRing> rings_;  // sorted fine -> coarse
  std::shared_ptr<const Chain> chain_;  // never null
  util::SimTime last_ts_ = -1;
  std::uint64_t appended_ = 0;
  std::uint64_t raw_evicted_ = 0;
  std::uint64_t tier_evicted_ = 0;
  std::uint64_t blocks_sealed_ = 0;
  std::uint64_t blocks_demoted_ = 0;
  std::size_t ring_bytes_ = 0;
};

}  // namespace sensorcer::hist
