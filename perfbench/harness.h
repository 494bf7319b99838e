#pragma once
// Measurement plumbing shared by the three workloads: clocks, the counting
// allocator's tally, percentiles, program-counter snapshots, the
// benchmark's own span log for the traced run, and the result record that
// main() prints.
//
// Everything here observes the program from outside: per-layer counts are
// deltas of obs::metrics(), Network::totals() and the scheduler's fired
// count, never hooks inside src/.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/deployment.h"

namespace perfbench {

// --- clocks and process cost -------------------------------------------------

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time at process start (set first thing in main), for setup_s.
extern std::int64_t g_process_start_ns;

/// Heap allocations made so far by every thread (counting allocator).
std::uint64_t allocations();

/// CPU time consumed by all threads of the process, in nanoseconds.
std::int64_t process_cpu_ns();

/// Peak resident set size of the process, in MB.
double peak_rss_mb();

// --- statistics ----------------------------------------------------------------

/// Linearly interpolated percentile, p in [0,100]; 0 for no values.
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double>& values);

/// The op_wall_us.p50 estimator: the median of `values` over each
/// consecutive 0.25 s of timed work (`durations_us`, the wall time each
/// value was measured over, in time order), averaged over those windows by
/// their duration. Per window it is a median, so a single slow op does not
/// move it; across windows it is an average, so host speed swings (shared
/// hosts alternate between speed levels every few seconds) shift it in
/// proportion to how long they last instead of flipping it from one level
/// to the other as a run-wide median would.
double windowed_median(const std::vector<double>& values,
                       const std::vector<double>& durations_us);

/// The op_wall_us.p99 estimator: the median of the p99s of consecutive
/// 1000-op windows (each with ten ops beyond its p99), so one burst of host
/// stalls does not own the tail of a whole run; one window when there are
/// fewer ops.
double windowed_p99(const std::vector<double>& values);

/// Pins the process (threads started later inherit it) to the CPU it runs
/// on and returns that CPU, or -1 if pinning failed.
int pin_to_current_cpu();

/// Per-op cost of a timed phase: wall, process CPU and allocations are
/// sampled around every op, so work done between ops (output checks,
/// bookkeeping) is never charged to the op.
struct OpCosts {
  std::vector<double> wall_us;
  double cpu_ns = 0;
  double allocs = 0;

  void add(std::int64_t wall, std::int64_t cpu, std::uint64_t alloc) {
    wall_us.push_back(static_cast<double>(wall) / 1e3);
    cpu_ns += static_cast<double>(cpu);
    allocs += static_cast<double>(alloc);
  }
  [[nodiscard]] double total_wall_s() const;
};

/// Times one op: construct before, call done() after.
class OpTimer {
 public:
  OpTimer()
      : allocs_(allocations()), cpu_(process_cpu_ns()), wall_(wall_ns()) {}
  void done(OpCosts& into) const {
    const std::int64_t wall = wall_ns() - wall_;
    const std::int64_t cpu = process_cpu_ns() - cpu_;
    into.add(wall, cpu, allocations() - allocs_);
  }

 private:
  std::uint64_t allocs_;
  std::int64_t cpu_;
  std::int64_t wall_;
};

/// Warm-up: run `op` in blocks until per-op cost stops drifting — two
/// consecutive block medians within 10% of the block before — bounded by
/// `max_blocks`. Medians, not means, so one slow op in a mixed workload does
/// not reset the test. Returns the ops run.
template <typename Op>
std::size_t warm_up(Op&& op, std::size_t block, std::size_t max_blocks) {
  double previous = -1;
  std::size_t ran = 0;
  int steady = 0;
  std::vector<double> ns(block);
  for (std::size_t b = 0; b < max_blocks; ++b) {
    for (std::size_t i = 0; i < block; ++i) {
      const std::int64_t t0 = wall_ns();
      op(ran++);
      ns[i] = static_cast<double>(wall_ns() - t0);
    }
    const double median = percentile(ns, 50);
    if (previous > 0 && median < previous * 1.1 && median > previous * 0.9) {
      if (++steady >= 2) break;
    } else {
      steady = 0;
    }
    previous = median;
  }
  return ran;
}

// --- program counters ------------------------------------------------------------

/// A snapshot of every counter the per-layer metrics derive from: the global
/// obs registry (counters plus histogram counts/sums as "<name>.count" /
/// "<name>.sum"), the fabric's totals, the scheduler and the span collector.
class Counters {
 public:
  static Counters sample(sensorcer::core::Deployment& lab);

  /// 0 when the counter was never registered.
  [[nodiscard]] double get(const std::string& name) const;

  Counters operator-(const Counters& before) const;
  Counters& operator+=(const Counters& delta);

 private:
  std::map<std::string, double> values_;
};

// --- the benchmark's own spans (traced run) ------------------------------------------

/// In-memory span log. Every call the benchmark makes into a layer entry
/// point during the traced pass is wrapped in a span named after the layer
/// and the entry point; self time is a span's duration minus its children.
class SpanLog {
 public:
  struct Record {
    const char* name;
    std::uint64_t op;
    std::int32_t parent;  // -1 = root
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::int32_t index_;
    std::int32_t previous_;
  };

  /// Mean self time, in ns, of the spans called `name`; 0 when none.
  [[nodiscard]] double mean_self_ns(const std::string& name) const;

  /// Writes one JSON object per span; returns false if the file cannot be
  /// opened.
  bool write_jsonl(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return records_.size(); }

 private:
  std::vector<Record> records_;
  std::int32_t current_ = -1;
};

// --- results ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run of one workload measured. `metrics` holds every value the
/// run reports (end-to-end or per-layer); main() picks the JSON set from
/// the catalog and prints the rest as report lines.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
};

Outcome run_tree_read(const Options& options);
Outcome run_dashboard(const Options& options);
Outcome run_ingest(const Options& options);

// --- per-layer attribution helpers ----------------------------------------------------

/// Sets the per-op counter metrics every workload shares (sorcer, simnet,
/// util, obs, registry, rio, sensor) from the counters accumulated over the
/// traced ops. `ops` is the number of ops the deltas cover.
void set_counter_metrics(Outcome& out, const Counters& delta, double ops,
                         std::size_t scheduler_queue);

/// Sets the wire pipeline's shares of `op_wall_us`, kept disjoint from
/// obs.span_share: codec time per op (invoke.marshal_ns), resolves × the
/// resolve cost, and calls × the per-call framework cost — a probe invoke
/// minus its spans, its codec time and `service_us` of provider work.
/// Needs obs.span_ns set on `out`.
void set_call_shares(Outcome& out, const Counters& delta, double ops,
                     double op_wall_us, double invoke_us, double resolve_us,
                     double spans_per_call, double marshal_us_per_call,
                     double service_us = 0);

/// Sets obs.span_ns — an isolated tracer().start_span plus finish, timed in
/// spans on `log` — and obs.span_share (spans per op × span cost ÷
/// `op_wall_us`); needs obs.spans_per_op.
void set_span_metrics(Outcome& out, SpanLog& log, double op_wall_us);

/// Sets trace.overhead_us: traced minus untraced p50 op wall time, over
/// ops interleaved in one run.
void set_overhead_metrics(Outcome& out, const std::vector<double>& plain_us,
                          const std::vector<double>& traced_us);

/// Zero-fills the time shares a workload does not cross and sets
/// unexplained_share: one minus the disjoint shares (sorcer wire, codec and
/// resolve; obs spans; expr; hist work and read-executor wait).
void set_unexplained_share(Outcome& out);

}  // namespace perfbench
