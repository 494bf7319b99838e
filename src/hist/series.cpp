#include "hist/series.h"

#include <algorithm>
#include <limits>

#include "util/sim_time.h"

namespace sensorcer::hist {

namespace {

std::string ring_source(util::SimDuration resolution) {
  return "rollup:" + util::format_duration(resolution);
}

util::SimTime align_to(util::SimTime t, util::SimDuration res) {
  return (t / res) * res;
}

util::SimTime align_up_to(util::SimTime t, util::SimDuration res) {
  // Overflow-safe: callers pass kEndOfTime (INT64_MAX) for "everything".
  if (t > std::numeric_limits<util::SimTime>::max() - res) return t;
  return ((t + res - 1) / res) * res;
}

/// The active-block copy buffer a ReadView borrows from its thread.
std::vector<sensor::Reading>& spare_active_copy() {
  thread_local std::vector<sensor::Reading> spare;
  return spare;
}

}  // namespace

SensorSeries::ReadView::ReadView(std::shared_ptr<const Chain> chain_in,
                                 const sensor::DataLog& active_log,
                                 util::SimTime last)
    : chain(std::move(chain_in)),
      active(std::move(spare_active_copy())),  // leaves the spare empty
      last_ts(last) {
  active.clear();
  active.reserve(active_log.size());
  active_log.for_each(0, sensor::kEndOfTime,
                      [this](const sensor::Reading& r) { active.push_back(r); });
}

SensorSeries::ReadView::~ReadView() {
  std::vector<sensor::Reading>& spare = spare_active_copy();
  if (active.capacity() > spare.capacity()) spare = std::move(active);
}

SensorSeries::SensorSeries(const SeriesConfig& config) : config_(config) {
  if (config_.raw_capacity == 0) config_.raw_capacity = 1;
  config_.block_readings =
      std::clamp<std::size_t>(config_.block_readings, 1, config_.raw_capacity);
  if (config_.mid_resolution <= 0) config_.mid_resolution = util::kSecond;
  config_.cold_resolution =
      std::max(config_.cold_resolution, config_.mid_resolution);

  active_ = sensor::DataLog(config_.block_readings);

  std::vector<RingSpec> specs = config_.rings;
  std::sort(specs.begin(), specs.end(),
            [](const RingSpec& a, const RingSpec& b) {
              return a.resolution < b.resolution;
            });
  rings_.reserve(specs.size());
  for (const RingSpec& spec : specs) {
    if (spec.resolution <= 0 || spec.buckets == 0) continue;
    rings_.emplace_back(spec.resolution, spec.buckets);
  }
  for (const RollupRing& ring : rings_) ring_bytes_ += ring.bytes();

  chain_ = std::make_shared<const Chain>();
}

SensorSeries::Append SensorSeries::append(const sensor::Reading& reading) {
  std::lock_guard<std::mutex> lock(hot_mu_);
  if (reading.timestamp <= last_ts_) return Append::kDuplicate;
  last_ts_ = reading.timestamp;
  active_.append(reading);
  if (reading.quality != sensor::Quality::kBad) {
    for (RollupRing& ring : rings_) {
      (void)ring.append(reading.timestamp, reading.value);
    }
  }
  ++appended_;

  const std::uint64_t demoted_before = raw_evicted_;
  if (active_.size() >= config_.block_readings) {
    seal_active_locked();
  } else if ((config_.raw_horizon > 0 || config_.mid_horizon > 0 ||
              config_.cold_horizon > 0) &&
             !(chain_->sealed.empty() && chain_->mid.empty() &&
               chain_->cold.empty())) {
    Chain next = *chain_;
    if (demote_locked(next)) publish_locked(std::move(next));
  }
  return raw_evicted_ > demoted_before ? Append::kAcceptedEvicted
                                       : Append::kAccepted;
}

void SensorSeries::seal_active_locked() {
  const std::vector<sensor::Reading> readings = active_.snapshot();
  active_.clear();
  auto block = SealedBlock::seal(readings);
  if (!block) return;
  Chain next = *chain_;
  next.sealed.push_back(block);
  next.sealed_readings += block->count();
  next.sealed_bytes += block->bytes();
  ++blocks_sealed_;
  (void)demote_locked(next);
  publish_locked(std::move(next));
}

bool SensorSeries::demote_locked(Chain& chain) {
  bool changed = false;

  const auto demote_raw_front = [&] {
    std::shared_ptr<const SealedBlock> block = chain.sealed.front();
    chain.sealed.erase(chain.sealed.begin());
    chain.sealed_readings -= block->count();
    chain.sealed_bytes -= block->bytes();
    auto tier = TierBlock::from_sealed(*block, config_.mid_resolution);
    chain.tier_bytes += tier->bytes();
    chain.mid_buckets += tier->buckets.size();
    chain.mid.push_back(std::move(tier));
    raw_evicted_ += block->count();
    ++blocks_demoted_;
    changed = true;
  };
  const auto demote_mid_front = [&] {
    std::shared_ptr<const TierBlock> tier = chain.mid.front();
    chain.mid.erase(chain.mid.begin());
    chain.tier_bytes -= tier->bytes();
    chain.mid_buckets -= tier->buckets.size();
    auto cold = TierBlock::rebucket(*tier, config_.cold_resolution);
    chain.tier_bytes += cold->bytes();
    chain.cold_buckets += cold->buckets.size();
    chain.cold.push_back(std::move(cold));
    changed = true;
  };
  const auto drop_cold_front = [&] {
    std::shared_ptr<const TierBlock> tier = chain.cold.front();
    chain.cold.erase(chain.cold.begin());
    chain.tier_bytes -= tier->bytes();
    chain.cold_buckets -= tier->buckets.size();
    tier_evicted_ += tier->readings + tier->bad_dropped;
    changed = true;
  };

  while (chain.sealed_readings + active_.size() > config_.raw_capacity &&
         !chain.sealed.empty()) {
    demote_raw_front();
  }
  if (config_.raw_horizon > 0) {
    while (!chain.sealed.empty() &&
           chain.sealed.front()->last_ts() < last_ts_ - config_.raw_horizon) {
      demote_raw_front();
    }
  }
  while (chain.mid_buckets > config_.mid_max_buckets && !chain.mid.empty()) {
    demote_mid_front();
  }
  if (config_.mid_horizon > 0) {
    while (!chain.mid.empty() &&
           chain.mid.front()->last_ts < last_ts_ - config_.mid_horizon) {
      demote_mid_front();
    }
  }
  while (chain.cold_buckets > config_.cold_max_buckets &&
         !chain.cold.empty()) {
    drop_cold_front();
  }
  if (config_.cold_horizon > 0) {
    while (!chain.cold.empty() &&
           chain.cold.front()->last_ts < last_ts_ - config_.cold_horizon) {
      drop_cold_front();
    }
  }
  return changed;
}

void SensorSeries::publish_locked(Chain&& chain) {
  chain_ = std::make_shared<const Chain>(std::move(chain));
}

std::size_t SensorSeries::shed_coldest() {
  std::lock_guard<std::mutex> lock(hot_mu_);
  // Byte-pressure eviction ladder: coldest, already-aggregated storage goes
  // first; compressed raw blocks last; the hot active block and rings never
  // (the store evicts the whole series at that point).
  Chain next = *chain_;
  std::size_t freed = 0;
  if (!next.cold.empty()) {
    const auto& tier = next.cold.front();
    freed = tier->bytes();
    next.tier_bytes -= freed;
    next.cold_buckets -= tier->buckets.size();
    tier_evicted_ += tier->readings + tier->bad_dropped;
    next.cold.erase(next.cold.begin());
  } else if (!next.mid.empty()) {
    const auto& tier = next.mid.front();
    freed = tier->bytes();
    next.tier_bytes -= freed;
    next.mid_buckets -= tier->buckets.size();
    tier_evicted_ += tier->readings + tier->bad_dropped;
    next.mid.erase(next.mid.begin());
  } else if (!next.sealed.empty()) {
    const auto& block = next.sealed.front();
    freed = block->bytes();
    next.sealed_bytes -= freed;
    next.sealed_readings -= block->count();
    raw_evicted_ += block->count();
    tier_evicted_ += block->count();
    next.sealed.erase(next.sealed.begin());
  } else {
    return 0;
  }
  publish_locked(std::move(next));
  return freed;
}

SensorSeries::ReadView SensorSeries::read_view_locked() const {
  return ReadView(chain_, active_, last_ts_);
}

const RollupRing* SensorSeries::pick_ring_locked(
    util::SimTime from, util::SimDuration max_resolution) const {
  if (max_resolution <= 0) return nullptr;
  // Coarsest acceptable ring that still retains the window start.
  for (auto it = rings_.rbegin(); it != rings_.rend(); ++it) {
    if (it->resolution() <= max_resolution && it->covers(from)) return &*it;
  }
  return nullptr;
}

const RollupRing* SensorSeries::pick_ring(
    util::SimTime from, util::SimDuration max_resolution) const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return pick_ring_locked(from, max_resolution);
}

util::SimTime SensorSeries::raw_from_of(const ReadView& view) {
  if (!view.chain->sealed.empty()) {
    return view.chain->sealed.front()->first_ts();
  }
  if (!view.active.empty()) return view.active.front().timestamp;
  return -1;
}

StatsResult SensorSeries::stats(util::SimTime from, util::SimTime to,
                                util::SimDuration max_resolution) const {
  StatsResult out;
  if (to <= from) {
    out.source = "raw";
    out.from_effective = from;
    out.to_effective = to;
    return out;
  }
  std::unique_lock<std::mutex> lock(hot_mu_);
  if (const RollupRing* ring = pick_ring_locked(from, max_resolution)) {
    out.stats = ring->aggregate(from, to);
    out.from_effective = std::max(ring->align(from), ring->retained_from());
    out.to_effective =
        std::min(ring->align_up(to), ring->newest_start() + ring->resolution());
    if (out.to_effective < out.from_effective) {
      out.to_effective = out.from_effective;
    }
    out.source = ring_source(ring->resolution());
    out.resolution = ring->resolution();
    return out;
  }
  const ReadView view = read_view_locked();
  lock.unlock();
  return deep_stats_view(view, from, to, max_resolution);
}

StatsResult SensorSeries::deep_stats(util::SimTime from, util::SimTime to,
                                     util::SimDuration max_resolution) const {
  StatsResult out;
  if (to <= from) {
    out.source = "raw";
    out.from_effective = from;
    out.to_effective = to;
    return out;
  }
  std::unique_lock<std::mutex> lock(hot_mu_);
  const ReadView view = read_view_locked();
  lock.unlock();
  return deep_stats_view(view, from, to, max_resolution);
}

SeriesResult SensorSeries::range(util::SimTime from, util::SimTime to,
                                 std::size_t max_points) const {
  SeriesResult out;
  range(from, to, max_points, out);
  return out;
}

void SensorSeries::range(util::SimTime from, util::SimTime to,
                         std::size_t max_points, SeriesResult& out) const {
  out.points.clear();
  out.source = "raw";
  out.truncated = false;
  std::unique_lock<std::mutex> lock(hot_mu_);
  const ReadView view = read_view_locked();
  lock.unlock();

  const auto take = [&](const sensor::Reading& r) {
    if (out.points.size() < max_points) {
      out.points.push_back({r.timestamp, r.value});
    } else {
      out.truncated = true;
    }
  };
  for (const auto& block : view.chain->sealed) {
    if (block->last_ts() < from) continue;
    if (block->first_ts() >= to || out.truncated) break;
    block->for_each(from, to, take);
  }
  if (!out.truncated) {
    for (const sensor::Reading& r : view.active) {
      if (r.timestamp < from) continue;
      if (r.timestamp >= to) break;
      take(r);
    }
  }
}

SeriesResult SensorSeries::downsample(util::SimTime from, util::SimTime to,
                                      std::size_t target_points) const {
  SeriesResult out;
  downsample(from, to, target_points, out);
  return out;
}

void SensorSeries::downsample(util::SimTime from, util::SimTime to,
                              std::size_t target_points,
                              SeriesResult& out) const {
  out.points.clear();
  out.truncated = false;
  if (to <= from || target_points == 0) {
    out.source = "raw";
    return;
  }
  const util::SimDuration width = std::max<util::SimDuration>(
      1, (to - from) / static_cast<util::SimDuration>(target_points));
  // Per-thread scratch, kept between queries up to kMaxKeptPoints: nothing
  // below can downsample again on this thread before the points are taken
  // out.
  thread_local std::vector<RollupBucket> bins;
  bins.assign(target_points, RollupBucket{});
  const auto bin_for = [&](util::SimTime ts) -> RollupBucket& {
    auto idx = ts <= from ? 0
                          : static_cast<std::size_t>((ts - from) / width);
    if (idx >= bins.size()) idx = bins.size() - 1;
    bins[idx].start = from + static_cast<util::SimDuration>(idx) * width;
    return bins[idx];
  };

  std::unique_lock<std::mutex> lock(hot_mu_);
  if (const RollupRing* ring = pick_ring_locked(from, width)) {
    // Re-bin the ring's buckets into the requested point count (the ring
    // may be finer than the implied spacing when no coarser ring covers).
    out.source = ring_source(ring->resolution());
    ring->visit(from, to, [&](const RollupBucket& b) {
      bin_for(b.start).merge(b);
    });
  } else {
    const ReadView view = read_view_locked();
    lock.unlock();
    const Chain& chain = *view.chain;
    const util::SimTime raw_from = raw_from_of(view);
    const bool cold_usable =
        !chain.cold.empty() && width >= config_.cold_resolution;
    const bool mid_usable =
        !chain.mid.empty() && width >= config_.mid_resolution;
    const bool use_tiers =
        (cold_usable || mid_usable) && (raw_from < 0 || from < raw_from);
    if (use_tiers) {
      out.source = "tiered";
      if (cold_usable) {
        const util::SimTime cfrom = align_to(from, config_.cold_resolution);
        const util::SimTime cto = align_up_to(to, config_.cold_resolution);
        for (const auto& tier : chain.cold) {
          for (const RollupBucket& b : tier->buckets) {
            if (b.start >= cfrom && b.start < cto) bin_for(b.start).merge(b);
          }
        }
      }
      if (mid_usable) {
        const util::SimTime mfrom = align_to(from, config_.mid_resolution);
        const util::SimTime mto = align_up_to(to, config_.mid_resolution);
        for (const auto& tier : chain.mid) {
          for (const RollupBucket& b : tier->buckets) {
            if (b.start >= mfrom && b.start < mto) bin_for(b.start).merge(b);
          }
        }
      }
    } else {
      out.source = "raw";
    }
    const auto add = [&](const sensor::Reading& r) {
      if (r.quality == sensor::Quality::kBad) return;
      bin_for(r.timestamp).add(r.timestamp, r.value);
    };
    for (const auto& block : chain.sealed) {
      if (block->last_ts() < from) continue;
      if (block->first_ts() >= to) break;
      block->for_each(from, to, add);
    }
    for (const sensor::Reading& r : view.active) {
      if (r.timestamp < from) continue;
      if (r.timestamp >= to) break;
      add(r);
    }
  }
  out.points.reserve(static_cast<std::size_t>(std::count_if(
      bins.begin(), bins.end(),
      [](const RollupBucket& b) { return !b.empty(); })));
  for (const RollupBucket& b : bins) {
    if (!b.empty()) out.points.push_back({b.start, b.mean()});
  }
  release_if_oversized(bins);
}

StatsResult SensorSeries::deep_stats_view(const ReadView& view,
                                          util::SimTime from, util::SimTime to,
                                          util::SimDuration max_res) const {
  StatsResult out;
  const Chain& chain = *view.chain;
  const util::SimTime raw_from = raw_from_of(view);

  AggregateStats agg;
  const auto add_raw = [&](util::SimTime lo, util::SimTime hi) {
    for (const auto& block : chain.sealed) {
      if (block->last_ts() < lo) continue;
      if (block->first_ts() >= hi) break;
      if (block->first_ts() >= lo && block->last_ts() < hi) {
        // Fully covered: fold the footer, no decode.
        block->add_footer_stats(agg);
      } else {
        block->for_each(lo, hi, [&agg](const sensor::Reading& r) {
          if (r.quality != sensor::Quality::kBad) {
            agg.add_sample(r.timestamp, r.value);
          }
        });
      }
    }
    for (const sensor::Reading& r : view.active) {
      if (r.timestamp < lo) continue;
      if (r.timestamp >= hi) break;
      if (r.quality != sensor::Quality::kBad) {
        agg.add_sample(r.timestamp, r.value);
      }
    }
  };

  // A tier contributes only when the caller tolerates its bucket width and
  // the window actually reaches past the raw tier.
  const bool cold_usable =
      !chain.cold.empty() && max_res >= config_.cold_resolution;
  const bool mid_usable =
      !chain.mid.empty() && max_res >= config_.mid_resolution;
  const bool use_tiers =
      (cold_usable || mid_usable) && (raw_from < 0 || from < raw_from);
  if (!use_tiers) {
    add_raw(from, to);
    out.stats = agg;
    out.from_effective = raw_from < 0 ? from : std::max(from, raw_from);
    out.to_effective = to;
    out.source = "raw";
    return out;
  }

  const util::SimDuration res_used =
      cold_usable ? config_.cold_resolution : config_.mid_resolution;
  util::SimTime oldest_covered = raw_from;
  if (cold_usable) {
    oldest_covered = chain.cold.front()->first_ts;
    const util::SimTime cfrom = align_to(from, config_.cold_resolution);
    const util::SimTime cto = align_up_to(to, config_.cold_resolution);
    for (const auto& tier : chain.cold) {
      for (const RollupBucket& b : tier->buckets) {
        if (b.start >= cfrom && b.start < cto) agg.add_bucket(b);
      }
    }
  }
  if (mid_usable) {
    if (!cold_usable) oldest_covered = chain.mid.front()->first_ts;
    const util::SimTime mfrom = align_to(from, config_.mid_resolution);
    const util::SimTime mto = align_up_to(to, config_.mid_resolution);
    for (const auto& tier : chain.mid) {
      for (const RollupBucket& b : tier->buckets) {
        if (b.start >= mfrom && b.start < mto) agg.add_bucket(b);
      }
    }
  }
  add_raw(from, to);

  out.stats = agg;
  out.source = "tiered";
  out.resolution = res_used;
  out.from_effective =
      std::max(align_to(from, res_used),
               oldest_covered < 0 ? from : oldest_covered);
  out.to_effective = to;
  return out;
}

util::SimTime SensorSeries::last_timestamp() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return last_ts_;
}

std::uint64_t SensorSeries::appended() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return appended_;
}

std::uint64_t SensorSeries::raw_evicted() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return raw_evicted_;
}

std::uint64_t SensorSeries::tier_evicted() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return tier_evicted_;
}

SensorSeries::Footprint SensorSeries::footprint_locked() const {
  Footprint fp;
  fp.active_bytes = active_.capacity() * sizeof(sensor::Reading);
  fp.ring_bytes = ring_bytes_;
  fp.sealed_bytes = chain_->sealed_bytes;
  fp.tier_bytes = chain_->tier_bytes;
  return fp;
}

std::size_t SensorSeries::bytes() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return footprint_locked().total();
}

SensorSeries::Footprint SensorSeries::footprint() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return footprint_locked();
}

SensorSeries::Retention SensorSeries::retention_of(const ReadView& view) const {
  Retention ret;
  ret.raw_from = raw_from_of(view);
  const Chain& chain = *view.chain;
  if (!chain.cold.empty()) {
    ret.tier_from = chain.cold.front()->first_ts;
  } else if (!chain.mid.empty()) {
    ret.tier_from = chain.mid.front()->first_ts;
  } else {
    ret.tier_from = ret.raw_from;
  }
  return ret;
}

SensorSeries::Retention SensorSeries::retention() const {
  std::unique_lock<std::mutex> lock(hot_mu_);
  const ReadView view = read_view_locked();
  lock.unlock();
  return retention_of(view);
}

SensorSeries::Counters SensorSeries::counters() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  Counters c;
  c.appended = appended_;
  c.raw_evicted = raw_evicted_;
  c.tier_evicted = tier_evicted_;
  c.blocks_sealed = blocks_sealed_;
  c.blocks_demoted = blocks_demoted_;
  c.sealed_readings = chain_->sealed_readings;
  c.sealed_blocks = chain_->sealed.size();
  c.tier_blocks = chain_->mid.size() + chain_->cold.size();
  c.footprint = footprint_locked();
  return c;
}

}  // namespace sensorcer::hist
