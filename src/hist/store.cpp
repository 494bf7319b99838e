#include "hist/store.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/metrics.h"
#include "util/strings.h"

namespace sensorcer::hist {

namespace {

/// Handles resolved once; updates are relaxed atomics (appends and queries
/// may run concurrently). Same pattern as the ESP/accessor instrumentation.
struct StoreMetrics {
  obs::Counter& appends;
  obs::Counter& append_batches;
  obs::Counter& duplicates;
  obs::Counter& evicted;
  obs::Counter& series_evicted;
  obs::Counter& query_raw;
  obs::Counter& query_rollup;
  obs::Counter& query_tiered;
  obs::Counter& blocks_sealed;
  obs::Counter& blocks_demoted;
  obs::Counter& tier_evicted;
  obs::Gauge& bytes_uncompressed;
  obs::Gauge& bytes_sealed;
  obs::Gauge& bytes_tiered;
  obs::Gauge& sealed_blocks;
  obs::Gauge& compression_ratio;
};

StoreMetrics& store_metrics() {
  static StoreMetrics m{
      obs::metrics().counter("hist.appends"),
      obs::metrics().counter("hist.append_batches"),
      obs::metrics().counter("hist.duplicates"),
      obs::metrics().counter("hist.evicted"),
      obs::metrics().counter("hist.series_evicted"),
      obs::metrics().counter("hist.query_raw"),
      obs::metrics().counter("hist.query_rollup"),
      obs::metrics().counter("hist.query_tiered"),
      obs::metrics().counter("hist.blocks_sealed"),
      obs::metrics().counter("hist.blocks_demoted"),
      obs::metrics().counter("hist.tier_evicted"),
      obs::metrics().gauge("hist.bytes_uncompressed"),
      obs::metrics().gauge("hist.bytes_sealed"),
      obs::metrics().gauge("hist.bytes_tiered"),
      obs::metrics().gauge("hist.sealed_blocks"),
      obs::metrics().gauge("hist.compression_ratio"),
  };
  return m;
}

bool is_rollup_source(const std::string& source) {
  return util::starts_with(source, "rollup:");
}

/// The answer for a sensor the store does not hold: no points, source
/// "none".
void answer_unknown(SeriesResult& out) {
  out.points.clear();
  out.source = "none";
  out.truncated = false;
}

void count_query(const std::string& source) {
  StoreMetrics& m = store_metrics();
  if (is_rollup_source(source)) {
    m.query_rollup.add();
  } else if (source == "tiered") {
    m.query_tiered.add();
  } else {
    m.query_raw.add();
  }
}

}  // namespace

HistorianStore::HistorianStore(HistorianConfig config)
    : config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
  shard_budget_ = config_.max_bytes == 0 ? 0 : config_.max_bytes / config_.shards;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

HistorianStore::Shard& HistorianStore::shard_for(const std::string& sensor) {
  return *shards_[std::hash<std::string>{}(sensor) % shards_.size()];
}

const HistorianStore::Shard& HistorianStore::shard_for(
    const std::string& sensor) const {
  return *shards_[std::hash<std::string>{}(sensor) % shards_.size()];
}

std::shared_ptr<SensorSeries> HistorianStore::find_series(
    const std::string& sensor) const {
  const Shard& shard = shard_for(sensor);
  std::lock_guard lock(shard.mu);
  auto it = shard.segments.find(sensor);
  return it == shard.segments.end() ? nullptr : it->second.series;
}

void HistorianStore::apply_series_delta(const SensorSeries::Counters& before,
                                        const SensorSeries::Counters& after) {
  const auto signed_delta = [](std::size_t b, std::size_t a) {
    return static_cast<std::int64_t>(a) - static_cast<std::int64_t>(b);
  };
  bytes_sealed_.fetch_add(signed_delta(before.footprint.sealed_bytes,
                                       after.footprint.sealed_bytes),
                          std::memory_order_relaxed);
  bytes_tiered_.fetch_add(
      signed_delta(before.footprint.tier_bytes, after.footprint.tier_bytes),
      std::memory_order_relaxed);
  sealed_blocks_.fetch_add(
      signed_delta(before.sealed_blocks, after.sealed_blocks),
      std::memory_order_relaxed);
  tier_blocks_.fetch_add(signed_delta(before.tier_blocks, after.tier_blocks),
                         std::memory_order_relaxed);
  sealed_readings_.fetch_add(
      signed_delta(before.sealed_readings, after.sealed_readings),
      std::memory_order_relaxed);
  blocks_sealed_.fetch_add(after.blocks_sealed - before.blocks_sealed,
                           std::memory_order_relaxed);
  blocks_demoted_.fetch_add(after.blocks_demoted - before.blocks_demoted,
                            std::memory_order_relaxed);
  tier_evicted_.fetch_add(after.tier_evicted - before.tier_evicted,
                          std::memory_order_relaxed);
  StoreMetrics& m = store_metrics();
  if (after.blocks_sealed > before.blocks_sealed) {
    m.blocks_sealed.add(after.blocks_sealed - before.blocks_sealed);
  }
  if (after.blocks_demoted > before.blocks_demoted) {
    m.blocks_demoted.add(after.blocks_demoted - before.blocks_demoted);
  }
  if (after.tier_evicted > before.tier_evicted) {
    m.tier_evicted.add(after.tier_evicted - before.tier_evicted);
  }
}

void HistorianStore::retire_series(const SensorSeries::Counters& counters) {
  bytes_uncompressed_.fetch_sub(
      static_cast<std::int64_t>(counters.footprint.active_bytes +
                                counters.footprint.ring_bytes),
      std::memory_order_relaxed);
  bytes_sealed_.fetch_sub(
      static_cast<std::int64_t>(counters.footprint.sealed_bytes),
      std::memory_order_relaxed);
  bytes_tiered_.fetch_sub(
      static_cast<std::int64_t>(counters.footprint.tier_bytes),
      std::memory_order_relaxed);
  sealed_blocks_.fetch_sub(static_cast<std::int64_t>(counters.sealed_blocks),
                           std::memory_order_relaxed);
  tier_blocks_.fetch_sub(static_cast<std::int64_t>(counters.tier_blocks),
                         std::memory_order_relaxed);
  sealed_readings_.fetch_sub(
      static_cast<std::int64_t>(counters.sealed_readings),
      std::memory_order_relaxed);
}

void HistorianStore::publish_gauges() const {
  StoreMetrics& m = store_metrics();
  const auto as_double = [](const std::atomic<std::int64_t>& v) {
    return static_cast<double>(v.load(std::memory_order_relaxed));
  };
  m.bytes_uncompressed.set(as_double(bytes_uncompressed_));
  m.bytes_sealed.set(as_double(bytes_sealed_));
  m.bytes_tiered.set(as_double(bytes_tiered_));
  m.sealed_blocks.set(as_double(sealed_blocks_));
  const double sealed_bytes = as_double(bytes_sealed_);
  const double logical = as_double(sealed_readings_) *
                         static_cast<double>(sizeof(sensor::Reading));
  m.compression_ratio.set(sealed_bytes > 0.0 ? logical / sealed_bytes : 0.0);
}

void HistorianStore::evict_for_budget(Shard& shard, const std::string* keep) {
  if (shard_budget_ == 0) return;
  while (!shard.segments.empty() && shard.bytes >= shard_budget_) {
    auto victim = shard.segments.begin();
    for (auto it = shard.segments.begin(); it != shard.segments.end(); ++it) {
      if (it->second.last_touch < victim->second.last_touch) victim = it;
    }
    SensorSeries& series = *victim->second.series;
    // Shed the victim's coldest storage first: dropping already-aggregated
    // tier buckets (then compressed blocks) beats losing a hot segment.
    const SensorSeries::Counters before = series.counters();
    const std::size_t freed = series.shed_coldest();
    if (freed > 0) {
      apply_series_delta(before, series.counters());
      shard.bytes -= std::min(freed, shard.bytes);
      continue;
    }
    // Only the active block and rings remain: evict the segment wholesale —
    // unless it is the segment currently being appended to, which stays
    // even if the shard then runs over budget.
    if (keep != nullptr && victim->first == *keep) break;
    retire_series(before);
    shard.bytes -= std::min(before.footprint.total(), shard.bytes);
    evicted_readings_base_.fetch_add(before.raw_evicted,
                                     std::memory_order_relaxed);
    shard.segments.erase(victim);
    evicted_series_.fetch_add(1, std::memory_order_relaxed);
    store_metrics().series_evicted.add();
  }
}

AppendOutcome HistorianStore::append(
    const std::string& sensor, std::span<const sensor::Reading> readings) {
  AppendOutcome out;
  if (readings.empty()) return out;
  Shard& shard = shard_for(sensor);
  std::lock_guard lock(shard.mu);
  auto it = shard.segments.find(sensor);
  if (it == shard.segments.end()) {
    evict_for_budget(shard);
    Entry entry;
    entry.series = std::make_shared<SensorSeries>(config_.series);
    const SensorSeries::Footprint fp = entry.series->footprint();
    shard.bytes += fp.total();
    bytes_uncompressed_.fetch_add(
        static_cast<std::int64_t>(fp.active_bytes + fp.ring_bytes),
        std::memory_order_relaxed);
    it = shard.segments.emplace(sensor, std::move(entry)).first;
  }
  it->second.last_touch =
      touch_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  SensorSeries& series = *it->second.series;
  const SensorSeries::Counters before = series.counters();
  for (const sensor::Reading& r : readings) {
    switch (series.append(r)) {
      case SensorSeries::Append::kAccepted:
      case SensorSeries::Append::kAcceptedEvicted:
        ++out.accepted;
        break;
      case SensorSeries::Append::kDuplicate:
        ++out.duplicates;
        break;
    }
  }
  const SensorSeries::Counters after = series.counters();
  apply_series_delta(before, after);
  const std::int64_t byte_delta =
      static_cast<std::int64_t>(after.footprint.total()) -
      static_cast<std::int64_t>(before.footprint.total());
  if (byte_delta >= 0) {
    shard.bytes += static_cast<std::size_t>(byte_delta);
  } else {
    shard.bytes -= std::min(static_cast<std::size_t>(-byte_delta), shard.bytes);
  }
  appended_.fetch_add(out.accepted, std::memory_order_relaxed);
  duplicates_.fetch_add(out.duplicates, std::memory_order_relaxed);
  StoreMetrics& m = store_metrics();
  m.appends.add(out.accepted);
  m.append_batches.add();
  if (out.duplicates > 0) m.duplicates.add(out.duplicates);
  if (after.raw_evicted > before.raw_evicted) {
    m.evicted.add(after.raw_evicted - before.raw_evicted);
  }
  if (after.blocks_sealed != before.blocks_sealed ||
      after.blocks_demoted != before.blocks_demoted) {
    // Sealing/demotion grew the segment between creations; keep the shard
    // inside its budget by shedding LRU cold storage (never wholesale-
    // evicting the segment being written). Small non-sealing appends keep
    // the legacy creation-time-only enforcement.
    if (shard_budget_ != 0 && shard.bytes >= shard_budget_) {
      evict_for_budget(shard, &sensor);
    }
    publish_gauges();
  }
  return out;
}

util::SimTime HistorianStore::last_timestamp(const std::string& sensor) const {
  const std::shared_ptr<SensorSeries> series = find_series(sensor);
  return series == nullptr ? -1 : series->last_timestamp();
}

StatsResult HistorianStore::stats(const std::string& sensor, util::SimTime from,
                                  util::SimTime to,
                                  util::SimDuration max_resolution) const {
  const std::shared_ptr<SensorSeries> series = find_series(sensor);
  if (series == nullptr) {
    StatsResult empty;
    empty.source = "none";
    empty.from_effective = from;
    empty.to_effective = to;
    return empty;
  }
  StatsResult out = series->stats(from, to, max_resolution);
  count_query(out.source);
  return out;
}

StatsResult HistorianStore::deep_stats(const std::string& sensor,
                                       util::SimTime from, util::SimTime to,
                                       util::SimDuration max_resolution) const {
  const std::shared_ptr<SensorSeries> series = find_series(sensor);
  if (series == nullptr) {
    StatsResult empty;
    empty.source = "none";
    empty.from_effective = from;
    empty.to_effective = to;
    return empty;
  }
  StatsResult out = series->deep_stats(from, to, max_resolution);
  count_query(out.source);
  return out;
}

SeriesResult HistorianStore::range(const std::string& sensor,
                                   util::SimTime from, util::SimTime to,
                                   std::size_t max_points) const {
  SeriesResult out;
  range(sensor, from, to, max_points, out);
  return out;
}

void HistorianStore::range(const std::string& sensor, util::SimTime from,
                           util::SimTime to, std::size_t max_points,
                           SeriesResult& out) const {
  const std::shared_ptr<SensorSeries> series = find_series(sensor);
  if (series == nullptr) {
    answer_unknown(out);
    return;
  }
  series->range(from, to, max_points, out);
  store_metrics().query_raw.add();
}

SeriesResult HistorianStore::downsample(const std::string& sensor,
                                        util::SimTime from, util::SimTime to,
                                        std::size_t target_points) const {
  SeriesResult out;
  downsample(sensor, from, to, target_points, out);
  return out;
}

void HistorianStore::downsample(const std::string& sensor, util::SimTime from,
                                util::SimTime to, std::size_t target_points,
                                SeriesResult& out) const {
  const std::shared_ptr<SensorSeries> series = find_series(sensor);
  if (series == nullptr) {
    answer_unknown(out);
    return;
  }
  series->downsample(from, to, target_points, out);
  count_query(out.source);
}

SensorSeries::Retention HistorianStore::retention(
    const std::string& sensor) const {
  const std::shared_ptr<SensorSeries> series = find_series(sensor);
  return series == nullptr ? SensorSeries::Retention{} : series->retention();
}

StoreStats HistorianStore::stats_snapshot() const {
  StoreStats out;
  out.appended = appended_.load(std::memory_order_relaxed);
  out.duplicates = duplicates_.load(std::memory_order_relaxed);
  out.evicted_series = evicted_series_.load(std::memory_order_relaxed);
  out.evicted_readings = evicted_readings_base_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    out.series_count += shard->segments.size();
    out.bytes += shard->bytes;
    for (const auto& [name, entry] : shard->segments) {
      (void)name;
      out.evicted_readings += entry.series->raw_evicted();
    }
  }
  const auto clamp0 = [](const std::atomic<std::int64_t>& v) {
    const std::int64_t x = v.load(std::memory_order_relaxed);
    return x > 0 ? static_cast<std::uint64_t>(x) : 0;
  };
  out.bytes_uncompressed = clamp0(bytes_uncompressed_);
  out.bytes_sealed = clamp0(bytes_sealed_);
  out.bytes_tiered = clamp0(bytes_tiered_);
  out.sealed_blocks = clamp0(sealed_blocks_);
  out.tier_blocks = clamp0(tier_blocks_);
  out.sealed_readings = clamp0(sealed_readings_);
  out.blocks_sealed = blocks_sealed_.load(std::memory_order_relaxed);
  out.blocks_demoted = blocks_demoted_.load(std::memory_order_relaxed);
  out.tier_evicted = tier_evicted_.load(std::memory_order_relaxed);
  if (out.bytes_sealed > 0) {
    out.compression_ratio =
        static_cast<double>(out.sealed_readings) *
        static_cast<double>(sizeof(sensor::Reading)) /
        static_cast<double>(out.bytes_sealed);
  }
  publish_gauges();
  return out;
}

std::vector<std::string> HistorianStore::sensors() const {
  std::vector<std::string> out;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    for (const auto& [name, entry] : shard->segments) {
      (void)entry;
      out.push_back(name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sensorcer::hist
