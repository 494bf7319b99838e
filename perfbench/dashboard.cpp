// dashboard: one client refreshes dashboard pages through
// SensorcerFacade::query_downsample_many, 64 points per series, over the
// wire transport. Each page shows a seeded set of 64 sensors out of 256
// series preloaded through HistorianStore::append with 3 h of 1 Hz
// history — enough to fill the raw blocks (68 min) and the 1 s tier
// (68 min) and reach into the 60 s tier, so the store sits at its 64 MiB
// budget and the working set exceeds the CPU caches. About 80% of pages ask
// for the last 15-55 min (answered by the rollup rings) and about 20% for
// the last 6-24 h (answered by the tiers, over the 3 h retained), which
// puts p50 on the ring path and p99 on the tier path.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "closed_loop.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sorcer/codec.h"
#include "sorcer/exert.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {

namespace sc = sensorcer;

namespace {

constexpr std::size_t kSeries = 256;
constexpr std::size_t kPageSensors = 64;
constexpr std::size_t kPoints = 64;
constexpr std::size_t kPages = 1000;  // the seeded page cycle
constexpr double kLongShare = 0.2;
constexpr sc::util::SimDuration kHistory = 3 * sc::util::kHour;
constexpr sc::util::SimDuration kChunk = sc::util::kHour;  // preload batch

std::string series_name(std::size_t i) { return sc::util::format("S%03zu", i); }

struct Page {
  std::vector<std::size_t> sensors;
  sc::util::SimTime from = 0;
  sc::util::SimTime to = 0;
  std::size_t checked = 0;  // index into `sensors` compared to the store
};

class Dashboard final : public ClosedLoopWorkload {
 public:
  explicit Dashboard(std::uint64_t seed) : seed_(seed) {
    sc::util::Rng rng(seed);
    latency_ = static_cast<sc::util::SimDuration>(rng.between(195, 205)) *
               sc::util::kMicrosecond;
    for (std::size_t s = 0; s < kSeries; ++s) {
      bases_.push_back(rng.uniform(10.0, 30.0));
    }
    std::vector<std::size_t> all(kSeries);
    for (std::size_t s = 0; s < kSeries; ++s) all[s] = s;
    for (std::size_t p = 0; p < kPages; ++p) {
      Page page;
      for (std::size_t k = 0; k < kPageSensors; ++k) {
        std::swap(all[k], all[k + rng.below(kSeries - k)]);
      }
      page.sensors.assign(all.begin(), all.begin() + kPageSensors);
      std::sort(page.sensors.begin(), page.sensors.end());
      const bool long_window = rng.chance(kLongShare);
      const sc::util::SimDuration span =
          long_window
              ? rng.between(6 * 60, 24 * 60) * sc::util::kMinute
              : rng.between(15 * 60, 55 * 60) * sc::util::kSecond;
      page.to = kHistory;
      page.from = kHistory - span;
      page.checked = rng.below(kPageSensors);
      pages_.push_back(std::move(page));
    }
  }

  void setup() override {
    sc::core::DeploymentConfig config;
    config.invoke.transport = sc::sorcer::Transport::kWire;
    config.network_latency = latency_;
    config.seed = seed_;
    config.worker_threads = 1;
    config.historian.read_threads = 2;
    config.with_flow = false;
    config.sampling.sample_period = 0;
    config.lease_duration = sc::util::kHour;
    lab_ = std::make_unique<sc::core::Deployment>(config);
    preload();
    lab_->pump(sc::util::kSecond);
    probe_state_ = ProbeState{};
  }

  void teardown() override { lab_.reset(); }

  void report(Outcome& out) override {
    const auto stats = store().stats_snapshot();
    const auto series = static_cast<double>(stats.series_count);
    out.set("hist.series", series, "count");
    out.set("hist.series_evicted", static_cast<double>(stats.evicted_series),
            "count");
    out.set("hist.store_mb", static_cast<double>(stats.bytes) / 1048576.0, "MB");
    out.set("hist.tiered_mb", static_cast<double>(stats.bytes_tiered) / 1048576.0,
            "MB");
    out.set("hist.bytes_per_series", static_cast<double>(stats.bytes) / series,
            "B");
    out.set("hist.compression_ratio", stats.compression_ratio, "ratio");
  }

  sc::core::Deployment& lab() override { return *lab_; }
  [[nodiscard]] std::size_t warm_block() const override { return 20; }
  [[nodiscard]] const char* op_span() const override {
    return "core.facade_query_downsample_many";
  }

  void call(std::size_t i) override {
    const Page& page = pages_[i % kPages];
    names_.clear();
    for (std::size_t s : page.sensors) names_.push_back(series_name(s));
    results_ = lab_->facade().query_downsample_many(names_, page.from,
                                                    page.to, kPoints);
  }

  void check(std::size_t i, Outcome& out) override {
    const Page& page = pages_[i % kPages];
    if (results_.size() != page.sensors.size()) {
      out.fail("dashboard: page returned the wrong number of series");
      return;
    }
    for (std::size_t k = 0; k < results_.size(); ++k) {
      const auto& r = results_[k];
      if (!r.is_ok()) {
        out.fail("dashboard: " + names_[k] + ": " + r.status().message());
        return;
      }
      const auto& points = r.value().points;
      // At its byte budget the store may evict a whole series; a series it
      // no longer holds must come back empty, every other one non-empty.
      if (points.empty() && store().last_timestamp(names_[k]) < 0) continue;
      if (points.empty() || points.size() > kPoints ||
          points.front().timestamp < page.from ||
          points.back().timestamp >= page.to) {
        out.fail(sc::util::format("dashboard: %s has %zu points outside "
                                  "its window",
                                  names_[k].c_str(), points.size()));
        return;
      }
    }
    const std::size_t k = page.checked;
    const auto direct =
        store().downsample(names_[k], page.from, page.to, kPoints);
    const auto& got = results_[k].value();
    bool same = direct.source == got.source &&
                direct.points.size() == got.points.size();
    for (std::size_t p = 0; same && p < got.points.size(); ++p) {
      same = direct.points[p].timestamp == got.points[p].timestamp &&
             direct.points[p].value == got.points[p].value;
    }
    if (!same) {
      out.fail("dashboard: " + names_[k] +
               " differs from a direct HistorianStore::downsample");
    }
  }

  void probe(std::size_t i, SpanLog& log) override {
    const Page& page = pages_[i % kPages];
    {
      SpanLog::Scope span(log, "hist.downsample_page", i);
      for (const std::string& name : names_) {
        (void)store().downsample(name, page.from, page.to, kPoints);
      }
    }
    const std::string& first = names_.front();
    sc::sorcer::ServiceAccessor& accessor = lab_->accessor();
    auto page_task = make_task(first, page.from, page.to);
    {
      SpanLog::Scope span(log, "sorcer.leaf_exert", i);
      (void)sc::sorcer::exert(page_task, accessor);
    }
    std::shared_ptr<sc::sorcer::Servicer> servicer;
    {
      SpanLog::Scope span(log, "sorcer.resolve", i);
      servicer = accessor.find_servicer(page_task->signature()).value();
    }
    // An empty window: the same pipeline round trip, read-executor hand-off
    // included, with no scan behind it — the per-call framework cost the
    // page pays 64 times on top of its downsample work.
    auto task = make_task(first, page.to, page.to);
    const std::uint64_t spans0 = sc::obs::span_collector().recorded();
    const std::uint64_t marshal0 = marshal_ns().value();
    const std::uint64_t wait0 = read_wait_ns().value();
    {
      SpanLog::Scope span(log, "sorcer.invoke", i);
      (void)lab_->invoker().invoke(servicer, task, nullptr);
    }
    probe_state_.invoke_spans += sc::obs::span_collector().recorded() - spans0;
    probe_state_.invoke_marshal_ns += marshal_ns().value() - marshal0;
    // The executor wait has its own share (hist.read_wait_share).
    probe_state_.service_ns +=
        static_cast<double>(read_wait_ns().value() - wait0);
    ++probe_state_.invokes;

    if (probe_state_.reply.size() == 0) {
      // Capture one 64-point reply and prime both intern tables with it.
      probe_state_.reply = page_task->context();
      sc::sorcer::encode_context(probe_state_.reply, probe_state_.encoder,
                                 probe_state_.buffer);
      (void)sc::sorcer::decode_context(
          probe_state_.buffer.data(), probe_state_.buffer.size(),
          probe_state_.decoder, probe_state_.decoded);
    }
    {
      SpanLog::Scope span(log, "sorcer.encode", i);
      sc::sorcer::encode_context(probe_state_.reply, probe_state_.encoder,
                                 probe_state_.buffer);
    }
    {
      SpanLog::Scope span(log, "sorcer.decode", i);
      (void)sc::sorcer::decode_context(
          probe_state_.buffer.data(), probe_state_.buffer.size(),
          probe_state_.decoder, probe_state_.decoded);
    }
  }

  void layer_metrics(Outcome& out, const SpanLog& log, const Counters& d,
                     double ops, double op_wall_us) override {
    const double page_hist_us = log.mean_self_ns("hist.downsample_page") / 1e3;
    out.set("hist.downsample_us", page_hist_us / kPageSensors, "us");
    out.set("hist.work_share", page_hist_us / op_wall_us, "ratio");
    out.set("hist.read_wait_us", d.get("hist.read_wait_ns") / ops / 1e3, "us");
    out.set("hist.read_wait_share",
            d.get("hist.read_wait_ns") / ops / 1e3 / op_wall_us, "ratio");

    const double invoke_us = log.mean_self_ns("sorcer.invoke") / 1e3;
    const double resolve_us = log.mean_self_ns("sorcer.resolve") / 1e3;
    out.set("sorcer.leaf_exert_us", log.mean_self_ns("sorcer.leaf_exert") / 1e3,
            "us");
    out.set("sorcer.resolve_us", resolve_us, "us");
    out.set("sorcer.invoke_us", invoke_us, "us");
    out.set("sorcer.encode_ns", log.mean_self_ns("sorcer.encode"), "ns");
    out.set("sorcer.decode_ns", log.mean_self_ns("sorcer.decode"), "ns");
    const auto invokes = static_cast<double>(probe_state_.invokes);
    set_call_shares(out, d, ops, op_wall_us, invoke_us, resolve_us,
                    static_cast<double>(probe_state_.invoke_spans) / invokes,
                    static_cast<double>(probe_state_.invoke_marshal_ns) /
                        invokes / 1e3,
                    probe_state_.service_ns / invokes / 1e3);
  }

 private:
  struct ProbeState {
    sc::sorcer::ServiceContext reply;
    sc::sorcer::ServiceContext decoded;
    sc::sorcer::PathInternTable encoder;
    sc::sorcer::PathInternTable decoder;
    sc::sorcer::WireBuffer buffer;
    std::uint64_t invokes = 0;
    std::uint64_t invoke_spans = 0;
    std::uint64_t invoke_marshal_ns = 0;
    double service_ns = 0;
  };

  static sc::obs::Counter& marshal_ns() {
    static sc::obs::Counter& c =
        sc::obs::metrics().counter("invoke.marshal_ns");
    return c;
  }

  static sc::obs::Counter& read_wait_ns() {
    static sc::obs::Counter& c =
        sc::obs::metrics().counter("hist.read_wait_ns");
    return c;
  }

  sc::hist::HistorianStore& store() { return lab_->historian()->store(); }

  /// The same downsample task query_downsample_many builds per sensor.
  static std::shared_ptr<sc::sorcer::Task> make_task(const std::string& sensor,
                                                     sc::util::SimTime from,
                                                     sc::util::SimTime to) {
    auto task = sc::sorcer::Task::make(
        "perfbench.hist:" + sensor,
        sc::sorcer::Signature{sc::core::kDataCollectionType,
                              sc::core::op::kHistDownsample, ""});
    sc::sorcer::ServiceContext& ctx = task->context();
    ctx.put(sc::core::path::kHistSensor, sensor,
            sc::sorcer::PathDirection::kIn);
    ctx.put(sc::core::path::kHistFrom, static_cast<std::int64_t>(from),
            sc::sorcer::PathDirection::kIn);
    ctx.put(sc::core::path::kHistTo, static_cast<std::int64_t>(to),
            sc::sorcer::PathDirection::kIn);
    ctx.put(sc::core::path::kHistPoints, static_cast<std::int64_t>(kPoints),
            sc::sorcer::PathDirection::kIn);
    return task;
  }

  /// kHistory of 1 Hz readings per series, appended an hour at a time across
  /// all series (the order live ingest would produce), so the budget sheds
  /// evenly instead of starving the first series appended.
  void preload() {
    sc::util::Rng noise(seed_ ^ 0x5eed);
    std::vector<sc::sensor::Reading> batch;
    batch.reserve(static_cast<std::size_t>(kChunk / sc::util::kSecond));
    constexpr double kTau = 6.283185307179586;
    for (sc::util::SimTime start = 0; start < kHistory; start += kChunk) {
      for (std::size_t s = 0; s < kSeries; ++s) {
        batch.clear();
        for (sc::util::SimTime t = start; t < start + kChunk;
             t += sc::util::kSecond) {
          sc::sensor::Reading r;
          r.timestamp = t;
          r.value = bases_[s] +
                    6.0 * std::sin(kTau * static_cast<double>(t) /
                                   static_cast<double>(24 * sc::util::kHour)) +
                    noise.uniform(-0.2, 0.2);
          batch.push_back(r);
        }
        (void)store().append(series_name(s), batch);
      }
    }
  }

  std::uint64_t seed_;
  sc::util::SimDuration latency_ = 0;
  std::vector<double> bases_;
  std::vector<Page> pages_;
  std::unique_ptr<sc::core::Deployment> lab_;
  std::vector<std::string> names_;
  std::vector<sc::util::Result<sc::hist::SeriesResult>> results_;
  ProbeState probe_state_;
};

}  // namespace

Outcome run_dashboard(const Options& options) {
  // One CPU for the whole process, before any deployment thread starts: the
  // read executor's workers run only while the client blocks on them, so
  // this costs no parallelism, and each of a page's 64 hand-offs becomes a
  // same-CPU switch instead of a cross-CPU wake-up, whose latency on a
  // shared VM swung page times by 2x between runs.
  const int cpu = pin_to_current_cpu();
  Dashboard workload(options.seed);
  Outcome out = run_closed_loop(options, workload, kPages);
  out.set("pinned_cpu", cpu, "count");
  return out;
}

}  // namespace perfbench
