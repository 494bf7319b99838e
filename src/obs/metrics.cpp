#include "obs/metrics.h"

#include <algorithm>

namespace sensorcer::obs {

std::vector<double> default_latency_bounds() {
  return {1,     2,     5,      10,     25,     50,      100,     250,
          500,   1000,  2500,   5000,   10000,  25000,   50000,   100000,
          250000, 500000, 1000000, 2500000, 5000000, 10000000};
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = default_latency_bounds();
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  double mx = max_.load(std::memory_order_relaxed);
  while (v > mx &&
         !max_.compare_exchange_weak(mx, v, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::percentile(double p) const {
  const auto counts = bucket_counts();
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(total);

  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += counts[i];
    if (static_cast<double>(cum) < target) continue;
    // Interpolate inside bucket i: [lower, upper).
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    const double upper = i < bounds_.size() ? bounds_[i] : max();
    if (upper <= lower) return std::min(upper, max());
    const double fraction =
        (target - before) / static_cast<double>(counts[i]);
    // Interpolation can overshoot the largest observed value when the bucket's
    // upper bound exceeds it; max() is tracked exactly, so cap there.
    return std::min(lower + fraction * (upper - lower), max());
  }
  return max();
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

void Snapshot::merge(const Snapshot& other) {
  sim_time = std::max(sim_time, other.sim_time);
  const auto fold = [](auto& mine, const auto& theirs) {
    for (const auto& entry : theirs) {
      auto it = std::find_if(mine.begin(), mine.end(), [&](const auto& e) {
        return e.first == entry.first;
      });
      if (it == mine.end()) {
        mine.push_back(entry);
      } else {
        it->second += entry.second;
      }
    }
    std::sort(mine.begin(), mine.end());
  };
  fold(counters, other.counters);
  fold(gauges, other.gauges);
  for (const auto& h : other.histograms) {
    // Histograms do not sum meaningfully from snapshots; keep both, with
    // name collisions resolved in favour of the larger population.
    auto it = std::find_if(histograms.begin(), histograms.end(),
                           [&](const auto& mine) { return mine.name == h.name; });
    if (it == histograms.end()) {
      histograms.push_back(h);
    } else if (h.count > it->count) {
      *it = h;
    }
  }
  std::sort(histograms.begin(), histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
}

std::uint64_t Snapshot::counter_or(const std::string& name,
                                   std::uint64_t fallback) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return fallback;
}

double Snapshot::gauge_or(const std::string& name, double fallback) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return fallback;
}

const HistogramSnapshot* Snapshot::histogram(const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Counter& Registry::counter(const std::string& name, Clock clock) {
  std::lock_guard lock(mu_);
  if (clock == Clock::kWall) wall_clock_.insert(name);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds, Clock clock) {
  std::lock_guard lock(mu_);
  if (clock == Clock::kWall) wall_clock_.insert(name);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

Snapshot Registry::snapshot(util::SimTime sim_time,
                            bool with_wall_clock) const {
  std::lock_guard lock(mu_);
  const auto skip = [&](const std::string& name) {
    return !with_wall_clock && wall_clock_.contains(name);
  };
  Snapshot out;
  out.sim_time = sim_time;
  for (const auto& [name, c] : counters_) {
    if (skip(name)) continue;
    out.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    out.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    if (skip(name)) continue;
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.mean = h->mean();
    hs.p50 = h->percentile(50);
    hs.p90 = h->percentile(90);
    hs.p99 = h->percentile(99);
    hs.max = h->max();
    out.histograms.push_back(std::move(hs));
  }
  return out;
}

void Registry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

}  // namespace sensorcer::obs
