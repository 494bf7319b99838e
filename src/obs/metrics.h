#pragma once
// Metrics registry — the measurement substrate of the observability
// subsystem (obs/). Named counters, gauges and fixed-bucket histograms with
// atomic hot paths: instrumented layers resolve a handle once (a mutex is
// taken only at name-resolution time) and then update it with relaxed
// atomics, so recording a metric costs nanoseconds from any thread. A snapshot() walks every instrument into a plain value
// struct that export.h renders as a text table or JSON line.
//
// Motivation: the paper's §II.1 argument is quantitative (protocol overhead
// vs. aggregation), and EMMA-style resource middleware lives or dies by
// visibility into per-hop cost — every layer of this repo reports through
// one registry instead of ad-hoc per-module counters.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/sim_time.h"

namespace sensorcer::obs {

/// Monotonic event count. All updates are relaxed atomics.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (population sizes, utilization). Add/sub are CAS
/// loops so concurrent adjustments never lose updates.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  void sub(double d) { add(-d); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucket upper bounds suited to the framework's virtual-time latencies:
/// roughly logarithmic from 1us to 10s.
std::vector<double> default_latency_bounds();

/// Fixed-bucket histogram. Bucket bounds are immutable after construction,
/// so observe() is a binary search plus three relaxed atomic updates — safe
/// and cheap from any thread. Percentiles are estimated by linear
/// interpolation inside the owning bucket (exact enough for p50/p99 health
/// reporting; benches that need exact ranks keep their sample vectors).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds = default_latency_bounds());

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  [[nodiscard]] double max() const {
    return max_.load(std::memory_order_relaxed);
  }

  /// Estimated value at percentile `p` in [0,100]; 0 when empty.
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; one extra overflow bucket past the last bound.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds+overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Point-in-time copy of one histogram, for reports and JSON export.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Point-in-time copy of a whole registry. Entries are name-sorted so two
/// snapshots of identical state compare (and serialize) identically.
struct Snapshot {
  util::SimTime sim_time = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Fold another snapshot in (used to combine the global registry with a
  /// Network's private registry for the federation health report). Entries
  /// with the same name are summed.
  void merge(const Snapshot& other);

  [[nodiscard]] std::uint64_t counter_or(const std::string& name,
                                         std::uint64_t fallback = 0) const;
  [[nodiscard]] double gauge_or(const std::string& name,
                                double fallback = 0.0) const;
  [[nodiscard]] const HistogramSnapshot* histogram(
      const std::string& name) const;
};

/// The clock an instrument's value follows. Counts and virtual-time values
/// are deterministic per seed; wall-clock ones (real nanoseconds of CPU
/// work) differ from run to run.
enum class Clock { kVirtual, kWall };

/// Named instrument store. Handles returned by counter()/gauge()/histogram()
/// are stable for the registry's lifetime; resolution locks, updates do not.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// `clock` is declared where the instrument is registered; kWall sticks
  /// once any registration of `name` declares it.
  Counter& counter(const std::string& name, Clock clock = Clock::kVirtual);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies only on first creation of `name`.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {},
                       Clock clock = Clock::kVirtual);

  /// Every instrument, or — with `with_wall_clock` false — only the
  /// deterministic ones, so two identical seeded runs snapshot identically.
  [[nodiscard]] Snapshot snapshot(util::SimTime sim_time = 0,
                                  bool with_wall_clock = true) const;

  /// Zero every instrument (names and handles stay valid).
  void reset();

  /// Process-wide registry used by the layer instrumentation hooks.
  static Registry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::set<std::string> wall_clock_;  // names declared Clock::kWall
};

/// Shorthand for Registry::global().
inline Registry& metrics() { return Registry::global(); }

}  // namespace sensorcer::obs
