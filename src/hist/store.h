#pragma once
// HistorianStore — the sharded segment map behind the Historian provider.
//
// Sensor name → SensorSeries, split across a fixed shard array (hash of the
// name) so concurrent callers contend only per shard.
// Since PR 10 each series is internally thread-safe (active block + sealed
// chain snapshots): queries grab the segment's shared_ptr under a brief
// shard lock and then run entirely off-lock, so the read executor's workers
// never serialize behind an appender holding a shard.
//
// Byte accounting is split by storage class — uncompressed (active blocks +
// rollup rings), sealed (compressed blocks, footers included) and tiered
// (demoted rollup buckets) — and the eviction budget reflects the real
// total. Admitting past the budget first sheds the least-recently-appended
// series' coldest storage (cold tier → mid tier → oldest sealed block) and
// only evicts a segment wholesale once nothing sheddable remains. All
// ingest/query/eviction activity is mirrored onto the obs metrics registry
// (hist.*) for the federation health report.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hist/series.h"
#include "sensor/reading.h"
#include "util/sim_time.h"

namespace sensorcer::hist {

/// Storage policy of one historian node.
struct HistorianConfig {
  /// Layout of every per-sensor segment.
  SeriesConfig series;
  /// Total byte budget across all segments; 0 = unbounded.
  std::size_t max_bytes = 64 * 1024 * 1024;
  /// Shard count (power of two recommended); clamped to >= 1.
  std::size_t shards = 16;
  /// Read-side executor serving the provider's query ops: worker threads
  /// (0 = serve queries inline on the op thread) and bounded queue depth
  /// (overflow sheds the query back to the caller's thread).
  std::size_t read_threads = 2;
  std::size_t read_queue = 256;
};

/// Outcome of one append batch.
struct AppendOutcome {
  std::uint64_t accepted = 0;
  std::uint64_t duplicates = 0;  // replayed timestamps dropped by dedup
};

/// Point-in-time counters for health rows and tests.
struct StoreStats {
  std::size_t series_count = 0;
  std::size_t bytes = 0;  // total, all storage classes
  std::uint64_t appended = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t evicted_readings = 0;  // demoted out of the raw tier
  std::uint64_t evicted_series = 0;    // whole segments shed by the budget

  // Storage-class split (satellite: real byte accounting).
  std::size_t bytes_uncompressed = 0;  // active blocks + rollup rings
  std::size_t bytes_sealed = 0;        // compressed blocks incl. footers
  std::size_t bytes_tiered = 0;        // demoted tier buckets
  std::size_t sealed_blocks = 0;       // live
  std::size_t tier_blocks = 0;         // live (mid + cold)
  std::uint64_t sealed_readings = 0;   // live readings in sealed blocks
  std::uint64_t blocks_sealed = 0;     // total seals ever
  std::uint64_t blocks_demoted = 0;    // total raw->mid demotions ever
  std::uint64_t tier_evicted = 0;      // readings dropped past the cold tier
  /// Uncompressed-equivalent bytes of sealed readings / sealed bytes;
  /// 0 when nothing is sealed.
  double compression_ratio = 0.0;
};

class HistorianStore {
 public:
  explicit HistorianStore(HistorianConfig config = {});

  /// Append a batch of readings for one sensor. Creates the segment on
  /// first contact (possibly shedding/evicting cold storage to stay in
  /// budget).
  AppendOutcome append(const std::string& sensor,
                       std::span<const sensor::Reading> readings);
  AppendOutcome append(const std::string& sensor,
                       const std::vector<sensor::Reading>& readings) {
    return append(sensor, std::span<const sensor::Reading>(readings));
  }

  /// Newest retained timestamp for `sensor`; -1 when unknown. Feeders use
  /// this to trim backfills after a failover.
  [[nodiscard]] util::SimTime last_timestamp(const std::string& sensor) const;

  /// Aggregate over [from, to); see SensorSeries::stats. Counts toward
  /// hist.query_rollup / hist.query_tiered / hist.query_raw depending on
  /// the path taken.
  [[nodiscard]] StatsResult stats(const std::string& sensor, util::SimTime from,
                                  util::SimTime to,
                                  util::SimDuration max_resolution) const;

  /// stats() bypassing the rollup rings — answered from the retention
  /// substrate (tiers + sealed chain + active block). Used by the chaos
  /// conservation audit and equivalence tests.
  [[nodiscard]] StatsResult deep_stats(const std::string& sensor,
                                       util::SimTime from, util::SimTime to,
                                       util::SimDuration max_resolution) const;

  /// Raw-tier readings in [from, to), capped at max_points.
  [[nodiscard]] SeriesResult range(const std::string& sensor,
                                   util::SimTime from, util::SimTime to,
                                   std::size_t max_points) const;

  /// At most target_points bucket-mean points over [from, to).
  [[nodiscard]] SeriesResult downsample(const std::string& sensor,
                                        util::SimTime from, util::SimTime to,
                                        std::size_t target_points) const;

  /// Exact retention boundaries of one segment ({-1, -1} when unknown):
  /// readings at/after raw_from are individually retrievable; readings in
  /// [tier_from, raw_from) survive as tier buckets only.
  [[nodiscard]] SensorSeries::Retention retention(
      const std::string& sensor) const;

  [[nodiscard]] StoreStats stats_snapshot() const;
  [[nodiscard]] const HistorianConfig& config() const { return config_; }

  /// Sensor names currently retained (sorted; for browser/health output).
  [[nodiscard]] std::vector<std::string> sensors() const;

 private:
  struct Entry {
    std::shared_ptr<SensorSeries> series;
    std::uint64_t last_touch = 0;  // global LRU stamp
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> segments;
    std::size_t bytes = 0;
  };

  [[nodiscard]] Shard& shard_for(const std::string& sensor);
  [[nodiscard]] const Shard& shard_for(const std::string& sensor) const;
  /// Segment lookup under a brief shard lock; queries then run off-lock.
  [[nodiscard]] std::shared_ptr<SensorSeries> find_series(
      const std::string& sensor) const;
  /// Called with the shard locked: shed/evict LRU storage until the shard
  /// fits its budget. A segment named by `keep` may be shed down to its
  /// active block but is never evicted wholesale (it is the segment being
  /// appended to right now).
  void evict_for_budget(Shard& shard, const std::string* keep = nullptr);
  /// Fold the (after - before) change of one series' counters into the
  /// store-level storage-class atomics and obs counters.
  void apply_series_delta(const SensorSeries::Counters& before,
                          const SensorSeries::Counters& after);
  /// Remove an evicted series' live storage from the atomics.
  void retire_series(const SensorSeries::Counters& counters);
  /// Refresh the hist.bytes_* / sealed-block / compression-ratio gauges.
  void publish_gauges() const;

  HistorianConfig config_;
  std::size_t shard_budget_ = 0;  // 0 = unbounded
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> touch_clock_{0};
  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> evicted_series_{0};
  /// Raw-tier demotions carried by segments that were themselves evicted.
  std::atomic<std::uint64_t> evicted_readings_base_{0};

  // Storage-class accounting, maintained by before/after counter deltas at
  // every mutation site (append, shed, evict) — all signed because live
  // totals shrink on demotion/eviction.
  std::atomic<std::int64_t> bytes_uncompressed_{0};
  std::atomic<std::int64_t> bytes_sealed_{0};
  std::atomic<std::int64_t> bytes_tiered_{0};
  std::atomic<std::int64_t> sealed_blocks_{0};
  std::atomic<std::int64_t> tier_blocks_{0};
  std::atomic<std::int64_t> sealed_readings_{0};
  std::atomic<std::uint64_t> blocks_sealed_{0};
  std::atomic<std::uint64_t> blocks_demoted_{0};
  std::atomic<std::uint64_t> tier_evicted_{0};
};

}  // namespace sensorcer::hist
