#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

std::int64_t g_process_start_ns = 0;

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double windowed_median(const std::vector<double>& values,
                       const std::vector<double>& durations_us) {
  constexpr double kWindowUs = 250'000;
  double weighted = 0;
  double total = 0;
  std::vector<double> window;
  double window_us = 0;
  const auto close = [&] {
    if (window.empty()) return;
    weighted += percentile(window, 50) * window_us;
    total += window_us;
    window.clear();
    window_us = 0;
  };
  for (std::size_t i = 0; i < values.size() && i < durations_us.size(); ++i) {
    window.push_back(values[i]);
    window_us += durations_us[i];
    if (window_us >= kWindowUs) close();
  }
  close();
  return total > 0 ? weighted / total : 0.0;
}

double windowed_p99(const std::vector<double>& values) {
  constexpr std::size_t kWindow = 1000;
  if (values.size() < 2 * kWindow) return percentile(values, 99);
  std::vector<double> p99s;
  for (std::size_t start = 0; start + kWindow <= values.size();
       start += kWindow) {
    p99s.push_back(percentile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(start),
                            values.begin() +
                                static_cast<std::ptrdiff_t>(start + kWindow)),
        99));
  }
  return percentile(std::move(p99s), 50);
}

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

double OpCosts::total_wall_s() const {
  return std::accumulate(wall_us.begin(), wall_us.end(), 0.0) / 1e6;
}

// --- counters ----------------------------------------------------------------

Counters Counters::sample(sensorcer::core::Deployment& lab) {
  Counters c;
  const sensorcer::obs::Snapshot snap = sensorcer::obs::metrics().snapshot();
  for (const auto& [name, value] : snap.counters) {
    c.values_[name] = static_cast<double>(value);
  }
  for (const auto& h : snap.histograms) {
    c.values_[h.name + ".count"] = static_cast<double>(h.count);
    c.values_[h.name + ".sum"] = h.sum;
  }
  const sensorcer::simnet::TrafficStats totals = lab.network().totals();
  c.values_["net.messages_sent"] = static_cast<double>(totals.messages_sent);
  c.values_["net.messages_dropped"] =
      static_cast<double>(totals.messages_dropped);
  c.values_["net.payload_bytes"] =
      static_cast<double>(totals.payload_bytes_sent);
  c.values_["net.header_bytes"] = static_cast<double>(totals.header_bytes_sent);
  c.values_["net.trace_bytes"] = static_cast<double>(
      lab.network().metrics().snapshot().counter_or("simnet.trace_bytes_sent"));
  c.values_["sched.fired"] = static_cast<double>(lab.scheduler().fired_count());
  c.values_["spans.recorded"] =
      static_cast<double>(sensorcer::obs::span_collector().recorded());
  return c;
}

double Counters::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

Counters Counters::operator-(const Counters& before) const {
  Counters out;
  for (const auto& [name, value] : values_) {
    out.values_[name] = value - before.get(name);
  }
  return out;
}

Counters& Counters::operator+=(const Counters& delta) {
  for (const auto& [name, value] : delta.values_) values_[name] += value;
  return *this;
}

// --- span log ------------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::uint64_t op)
    : log_(log),
      index_(static_cast<std::int32_t>(log.records_.size())),
      previous_(log.current_) {
  log_.records_.push_back(Record{name, op, previous_, wall_ns(), 0});
  log_.current_ = index_;
}

SpanLog::Scope::~Scope() {
  log_.records_[static_cast<std::size_t>(index_)].end_ns = wall_ns();
  log_.current_ = previous_;
}

double SpanLog::mean_self_ns(const std::string& name) const {
  // Self time = duration minus the time covered by direct children (the
  // benchmark's spans nest strictly, so children never overlap).
  std::vector<double> child_ns(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.end_ns - r.start_ns);
    }
  }
  double total = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (name != records_[i].name) continue;
    total += static_cast<double>(records_[i].end_ns - records_[i].start_ns) -
             child_ns[i];
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%d,\"op\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, r.parent, static_cast<unsigned long long>(r.op), r.name,
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  return std::fclose(f) == 0;
}

// --- shared per-layer metrics ------------------------------------------------------

namespace {
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
}  // namespace

void set_counter_metrics(Outcome& out, const Counters& d, double ops,
                         std::size_t scheduler_queue) {
  const auto per_op = [&](const char* name) { return ratio(d.get(name), ops); };
  out.set("sorcer.calls_per_op", per_op("invoke.wire_calls"), "count");
  out.set("sorcer.marshal_us_per_op", per_op("invoke.marshal_ns") / 1e3, "us");
  out.set("sorcer.accessor_hit_ratio",
          ratio(d.get("accessor.cache_hits"),
                d.get("accessor.cache_hits") + d.get("accessor.cache_misses")),
          "ratio");
  out.set("sorcer.intern_hit_ratio",
          ratio(d.get("invoke.intern_hits"),
                d.get("invoke.intern_hits") + d.get("invoke.intern_misses")),
          "ratio");
  out.set("sorcer.buffer_reuse_ratio",
          ratio(d.get("invoke.pool_reuse"),
                d.get("invoke.pool_reuse") + d.get("invoke.pool_acquires")),
          "ratio");
  out.set("sorcer.timeouts_per_op", per_op("invoke.timeouts"), "count");
  out.set("sorcer.substitutions_per_op", per_op("sorcer.substitutions"),
          "count");

  out.set("simnet.msgs_per_op", per_op("net.messages_sent"), "count");
  out.set("simnet.payload_bytes_per_op", per_op("net.payload_bytes"), "B");
  out.set("simnet.header_bytes_per_op", per_op("net.header_bytes"), "B");
  out.set("simnet.trace_bytes_per_op", per_op("net.trace_bytes"), "B");
  out.set("simnet.dropped_per_op", per_op("net.messages_dropped"), "count");

  out.set("util.events_per_op", per_op("sched.fired"), "count");
  out.set("util.queue_len", static_cast<double>(scheduler_queue), "count");

  out.set("obs.spans_per_op", per_op("spans.recorded"), "count");

  out.set("core.collections_per_op", per_op("csp.collections"), "count");

  out.set("registry.lookups_per_op", per_op("registry.lookups"), "count");
  out.set("registry.renew_batches_per_op", per_op("registry.renew_batches"),
          "count");
  out.set("registry.renew_leases_per_op", per_op("registry.renew_batch_leases"),
          "count");
  out.set("registry.renew_denied", d.get("registry.renew_denied"), "count");

  out.set("rio.pings_per_op", per_op("invoke.pings"), "count");
  out.set("rio.reprovisions", d.get("rio.reprovisions"), "count");

  out.set("sensor.probe_reads_per_op", per_op("esp.reads"), "count");
  out.set("sensor.samples_per_op", per_op("esp.samples"), "count");

  out.set("flow.readings_in_per_op", per_op("flow.readings_in"), "count");
  out.set("flow.emitted_ratio",
          ratio(d.get("flow.emitted"), d.get("flow.readings_in")), "ratio");
  out.set("flow.sink_failures", d.get("flow.sink_failures"), "count");

  out.set("hist.readings_per_batch",
          ratio(d.get("hist.appends"), d.get("hist.append_batches")), "count");
  out.set("hist.blocks_sealed_per_op", per_op("hist.blocks_sealed"), "count");
  out.set("hist.blocks_demoted_per_op", per_op("hist.blocks_demoted"),
          "count");
  const double queries = d.get("hist.query_rollup") +
                         d.get("hist.query_tiered") + d.get("hist.query_raw");
  out.set("hist.ring_share", ratio(d.get("hist.query_rollup"), queries),
          "ratio");
  out.set("hist.tier_share", ratio(d.get("hist.query_tiered"), queries),
          "ratio");
  out.set("hist.raw_share", ratio(d.get("hist.query_raw"), queries), "ratio");
  out.set("hist.read_inline_ratio",
          ratio(d.get("hist.read_inline"), d.get("hist.reads_served")),
          "ratio");
}

void set_span_metrics(Outcome& out, SpanLog& log, double op_wall_us) {
  // Batches of back-to-back spans keep clock overhead out of a cost of a
  // few hundred ns.
  constexpr std::size_t kBatches = 32;
  constexpr std::size_t kPerBatch = 200;
  auto& tracer = sensorcer::obs::tracer();
  for (std::size_t b = 0; b < kBatches; ++b) {
    SpanLog::Scope scope(log, "obs.span", b);
    for (std::size_t i = 0; i < kPerBatch; ++i) {
      sensorcer::obs::Span span = tracer.start_span("perfbench.span");
      span.finish();
    }
  }
  const double span_ns =
      log.mean_self_ns("obs.span") / static_cast<double>(kPerBatch);
  out.set("obs.span_ns", span_ns, "ns");
  out.set("obs.span_share",
          out.metrics.at("obs.spans_per_op").value * span_ns / 1e3 /
              op_wall_us,
          "ratio");
}

void set_unexplained_share(Outcome& out) {
  double explained = 0;
  for (const char* name :
       {"sorcer.wire_share", "sorcer.codec_share", "sorcer.resolve_share",
        "obs.span_share", "expr.eval_share", "hist.work_share",
        "hist.read_wait_share"}) {
    explained += out.metrics.try_emplace(name, Metric{0, "ratio"})
                     .first->second.value;
  }
  out.set("unexplained_share", 1.0 - explained, "ratio");
}

void set_overhead_metrics(Outcome& out, const std::vector<double>& plain_us,
                          const std::vector<double>& traced_us) {
  const double plain = percentile(plain_us, 50);
  const double traced = percentile(traced_us, 50);
  out.set("trace.untraced_op_wall_us", plain, "us");
  out.set("trace.traced_op_wall_us", traced, "us");
  out.set("trace.overhead_us", traced - plain, "us");
}

void set_call_shares(Outcome& out, const Counters& d, double ops,
                     double op_wall_us, double invoke_us, double resolve_us,
                     double spans_per_call, double marshal_us_per_call,
                     double service_us) {
  const double span_us = out.metrics.at("obs.span_ns").value / 1e3;
  const double calls = d.get("invoke.wire_calls") / ops;
  const double resolves =
      (d.get("accessor.cache_hits") + d.get("accessor.cache_misses")) / ops;
  const double per_call = invoke_us - spans_per_call * span_us -
                          marshal_us_per_call - service_us;
  out.set("sorcer.call_overhead_us", per_call, "us");
  out.set("sorcer.wire_share", calls * per_call / op_wall_us, "ratio");
  out.set("sorcer.codec_share",
          d.get("invoke.marshal_ns") / ops / 1e3 / op_wall_us, "ratio");
  out.set("sorcer.resolve_share", resolves * resolve_us / op_wall_us,
          "ratio");
}

}  // namespace perfbench
