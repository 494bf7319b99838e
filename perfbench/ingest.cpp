// ingest: the write side. 256 temperature ESPs booted together sample at
// 1 Hz and push to the historian through default feeders over the wire;
// an edge-placed flow (filter, count-10 mean window, historian sink) runs
// over a seeded 64 of them; leases last 10 s. The driver advances virtual
// time in 1 s steps as fast as it can — an open loop in virtual time at
// 256 sensors × 1 Hz — for a fixed 600 virtual seconds per episode, and
// runs fresh episodes until --seconds of stepping has been timed.
//
// An op is one sampled reading. Wall, CPU and allocations are per reading
// of a timed step; virt_ms is a reading's delivery delay (sampled to
// stored, at step resolution; readings never stored count their age at the
// end of the episode); ops_per_s counts readings stored per wall second.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "expr/evaluator.h"
#include "flow/spec.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sensor/probe.h"
#include "sorcer/codec.h"
#include "sorcer/exert.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {

namespace sc = sensorcer;

namespace {

constexpr std::size_t kSensors = 256;
constexpr std::size_t kFlowSensors = 64;
constexpr std::size_t kSteps = 600;  // virtual seconds per episode
// Warm-up steps before timing: boot transients (first flushes, first
// lease renewals, intern tables) settle within them. A drift-based stop
// would never settle here, because starvation keeps growing the feeders'
// backlog for the whole episode.
constexpr std::size_t kWarmSteps = 30;
constexpr std::size_t kMinEpisodes = 3;
// A reading not stored within two feeder flush periods is late.
constexpr sc::util::SimDuration kLateAfter = 10 * sc::util::kSecond;
constexpr const char* kFilter = "v >= -40 && v <= 85";
constexpr const char* kFlowName = "edge-mean";
// Series the wire probes append to; no sensor of the workload writes it.
constexpr const char* kProbeSeries = "perfbench.probe";
constexpr std::size_t kProbeReps = 200;

std::string sensor_name(std::size_t i) { return sc::util::format("T%03zu", i); }

/// What one episode measured. The deterministic columns are identical for
/// every episode of a seed.
struct Episode {
  OpCosts step_costs;                   // timed untraced steps
  std::vector<double> step_reading_us;  // their wall time per reading
  double timed_sampled = 0;
  double timed_stored = 0;
  double setup_s = 0;
  // Deterministic columns, whole episode.
  std::vector<double> delivery_us;
  std::vector<double> ages_s;
  double sampled = 0;
  double stored = 0;
  double late = 0;
  double wire_bytes = 0;
  double feeder_pending = 0;
  double feeder_dropped = 0;
  double replays = 0;
};

/// Traced run state: a seeded coin sends each timed step to the traced or
/// the untraced side, so both sample the same stretch of machine time.
struct Tracing {
  explicit Tracing(std::uint64_t seed) : coin(seed) {}
  sc::util::Rng coin;
  SpanLog log;
  Counters delta;  // over the first episode's traced steps
  double counted_sampled = 0;
  std::vector<double> plain_us;
  std::vector<double> traced_us;
  double traced_wall_s = 0;
  double traced_sampled = 0;
  double traced_stored = 0;
  bool probed = false;  // the first episode is over and probed
};

class Ingest {
 public:
  explicit Ingest(std::uint64_t seed) : seed_(seed) {
    sc::util::Rng rng(seed);
    latency_ = static_cast<sc::util::SimDuration>(rng.between(195, 205)) *
               sc::util::kMicrosecond;
    for (std::size_t i = 0; i < kSensors; ++i) {
      bases_.push_back(rng.uniform(10.0, 30.0));
    }
    std::vector<std::size_t> all(kSensors);
    for (std::size_t i = 0; i < kSensors; ++i) all[i] = i;
    for (std::size_t k = 0; k < kFlowSensors; ++k) {
      std::swap(all[k], all[k + rng.below(kSensors - k)]);
      flow_sensors_.push_back(sensor_name(all[k]));
    }
  }

  Outcome run(const Options& options) {
    Outcome out;
    std::vector<Episode> episodes;
    std::unique_ptr<Tracing> tracing;
    if (options.trace) tracing = std::make_unique<Tracing>(options.seed);
    double timed_s = 0;
    while (timed_s < options.seconds || episodes.size() < kMinEpisodes) {
      const std::int64_t start =
          episodes.empty() ? g_process_start_ns : wall_ns();
      const double traced_before = tracing ? tracing->traced_wall_s : 0;
      episodes.push_back(run_episode(start, tracing.get(), out));
      timed_s += episodes.back().step_costs.total_wall_s() +
                 (tracing ? tracing->traced_wall_s - traced_before : 0);
      if (episodes.size() > 1) {
        // Episodes replay the first exactly; only its columns are reported.
        std::vector<double>().swap(episodes.back().delivery_us);
        std::vector<double>().swap(episodes.back().ages_s);
      }
    }
    if (tracing) {
      traced_metrics(out, episodes.front(), *tracing);
      if (!options.trace_out.empty() &&
          !tracing->log.write_jsonl(options.trace_out)) {
        out.notes.push_back("could not write spans to " + options.trace_out);
      }
    } else {
      end_to_end(out, episodes);
    }
    return out;
  }

 private:
  void boot() {
    sc::util::global_id_generator() = sc::util::IdGenerator(seed_);
    sc::core::DeploymentConfig config;
    config.invoke.transport = sc::sorcer::Transport::kWire;
    config.network_latency = latency_;
    config.seed = seed_;
    config.worker_threads = 1;
    config.historian.read_threads = 2;
    config.lease_duration = 10 * sc::util::kSecond;
    lab_ = std::make_unique<sc::core::Deployment>(config);

    // The fleet boots together: every sampling timer shares one phase, so
    // all 256 feeders come due in the same virtual instant.
    sensors_.assign(kSensors, SensorState{});
    for (std::size_t i = 0; i < kSensors; ++i) {
      SensorState& s = sensors_[i];
      s.name = sensor_name(i);
      auto esp = lab_->add_sensor(
          s.name,
          sc::sensor::make_temperature_probe(s.name, seed_ + i, bases_[i]));
      s.esp = esp.get();
      s.registered = lab_->now();
      esp->add_reading_tap([&s](const sc::sensor::Reading& r) {
        s.sampled.push_back(r.timestamp);
      });
    }
    sc::flow::FlowSpec spec;
    spec.name = kFlowName;
    spec.sensors = flow_sensors_;
    spec.filter = kFilter;
    spec.window.kind = sc::flow::WindowKind::kCount;
    spec.window.count = 10;
    spec.window.aggregate = sc::flow::Aggregate::kMean;
    spec.placement = sc::flow::Placement::kForceEdge;
    const sc::util::Status created = lab_->facade().create_flow(spec);
    flow_error_ = created.is_ok() ? "" : created.message();
  }

  sc::hist::HistorianStore& store() { return lab_->historian()->store(); }

  static std::uint64_t wire_bytes(sc::core::Deployment& lab) {
    const auto totals = lab.network().totals();
    return totals.payload_bytes_sent + totals.header_bytes_sent;
  }

  std::size_t sampled_so_far() const {
    std::size_t n = 0;
    for (const SensorState& s : sensors_) n += s.sampled.size();
    return n;
  }

  /// After a step: credit newly stored readings with their delivery delay
  /// and sample every sensor's data age. Returns readings newly stored.
  double observe(Episode& ep) {
    const sc::util::SimTime now = lab_->now();
    double stored = 0;
    for (std::size_t i = 0; i < kSensors; ++i) {
      SensorState& s = sensors_[i];
      const sc::util::SimTime last = store().last_timestamp(s.name);
      while (s.delivered < s.sampled.size() && s.sampled[s.delivered] <= last) {
        const auto delay = static_cast<double>(now - s.sampled[s.delivered]);
        ep.delivery_us.push_back(delay);
        if (delay > kLateAfter) ep.late += 1;
        ++s.delivered;
        stored += 1;
      }
      const sc::util::SimTime newest = last >= 0 ? last : s.registered;
      ep.ages_s.push_back(static_cast<double>(now - newest) / 1e6);
    }
    return stored;
  }

  /// One step of virtual time; the readings sampled in it are its ops.
  void step(Episode& ep, bool timed, Tracing* tracing, std::size_t index) {
    const bool traced = timed && tracing != nullptr && tracing->coin.chance(0.5);
    // Counts come from the first episode's traced steps, a set the seed
    // alone fixes, so two runs with one seed report identical counts.
    const bool counted = traced && !tracing->probed;
    const std::size_t before = sampled_so_far();
    Counters c0;
    if (counted) c0 = Counters::sample(*lab_);
    const std::int64_t t0 = wall_ns();
    const std::int64_t cpu0 = process_cpu_ns();
    const std::uint64_t a0 = allocations();
    if (traced) {
      SpanLog::Scope span(tracing->log, "core.step", index);
      lab_->pump(sc::util::kSecond);
    } else {
      lab_->pump(sc::util::kSecond);
    }
    const std::int64_t wall = wall_ns() - t0;
    const std::int64_t cpu = process_cpu_ns() - cpu0;
    const std::uint64_t allocs = allocations() - a0;
    if (counted) tracing->delta += Counters::sample(*lab_) - c0;
    const auto sampled = static_cast<double>(sampled_so_far() - before);
    const double stored = observe(ep);
    if (!timed) return;
    const double per_reading_us = static_cast<double>(wall) / 1e3 / sampled;
    if (traced) {
      tracing->traced_us.push_back(per_reading_us);
      tracing->traced_wall_s += static_cast<double>(wall) / 1e9;
      tracing->traced_sampled += sampled;
      tracing->traced_stored += stored;
      if (counted) tracing->counted_sampled += sampled;
      return;
    }
    if (tracing != nullptr) tracing->plain_us.push_back(per_reading_us);
    ep.step_costs.add(wall, cpu, allocs);
    ep.step_reading_us.push_back(per_reading_us);
    ep.timed_sampled += sampled;
    ep.timed_stored += stored;
  }

  Episode run_episode(std::int64_t start, Tracing* tracing, Outcome& out) {
    Episode ep;
    boot();
    const std::uint64_t bytes0 = wire_bytes(*lab_);
    // Warm-up steps advance the same virtual history as timed steps, so the
    // deterministic columns cover the whole episode.
    std::size_t index = 0;
    for (; index < kWarmSteps; ++index) step(ep, false, nullptr, index);
    ep.setup_s = static_cast<double>(wall_ns() - start) / 1e9;
    for (; index < kSteps; ++index) step(ep, true, tracing, index);
    ep.wire_bytes = static_cast<double>(wire_bytes(*lab_) - bytes0);
    check(ep, out);
    if (tracing != nullptr && !tracing->probed) {
      probe_layers(out, *tracing);
      tracing->probed = true;
    }
    lab_.reset();
    return ep;
  }

  /// Conservation per sensor and flow accounting; censors undelivered
  /// readings at the episode's end.
  void check(Episode& ep, Outcome& out) {
    const sc::util::SimTime now = lab_->now();
    if (!flow_error_.empty()) out.fail("ingest: create_flow: " + flow_error_);
    for (std::size_t i = 0; i < kSensors; ++i) {
      SensorState& s = sensors_[i];
      const auto stats =
          store().stats(s.name, 0, now + 1, /*max_resolution=*/0);
      const auto* feeder = s.esp->history_feeder();
      const std::size_t pending = feeder != nullptr ? feeder->pending() : 0;
      const std::uint64_t dropped = feeder != nullptr ? feeder->dropped() : 0;
      ep.feeder_pending += static_cast<double>(pending);
      ep.feeder_dropped += static_cast<double>(dropped);
      if (stats.stats.count + pending + dropped != s.sampled.size() ||
          stats.stats.count != s.delivered) {
        out.fail(sc::util::format(
            "ingest: %s stored %llu + pending %zu + dropped %llu != sampled "
            "%zu",
            s.name.c_str(),
            static_cast<unsigned long long>(stats.stats.count), pending,
            static_cast<unsigned long long>(dropped), s.sampled.size()));
      }
      for (std::size_t j = s.delivered; j < s.sampled.size(); ++j) {
        ep.delivery_us.push_back(static_cast<double>(now - s.sampled[j]));
        ep.late += 1;
      }
      ep.sampled += static_cast<double>(s.sampled.size());
      ep.stored += static_cast<double>(s.delivered);
    }
    // A push whose reply timed out is pushed again and deduplicated by the
    // historian; the per-sensor count above is what proves no reading was
    // stored twice.
    ep.replays = static_cast<double>(store().stats_snapshot().duplicates);
    auto flow = lab_->facade().flow_stats(kFlowName);
    if (!flow.is_ok()) {
      out.fail("ingest: flow_stats: " + flow.status().message());
    } else if (flow.value().emitted !=
               flow.value().sink_pushed + flow.value().pending) {
      out.fail(sc::util::format(
          "ingest: flow emitted %llu != sink pushed %llu + pending %zu",
          static_cast<unsigned long long>(flow.value().emitted),
          static_cast<unsigned long long>(flow.value().sink_pushed),
          flow.value().pending));
    }
    out.attempted += static_cast<std::uint64_t>(ep.sampled);
  }

  static void deterministic_columns(Outcome& out, const Episode& first) {
    out.set("virt_ms.p50", percentile(first.delivery_us, 50) / 1e3, "ms");
    out.set("virt_ms.p99", percentile(first.delivery_us, 99) / 1e3, "ms");
    out.set("data_age_s.p50", percentile(first.ages_s, 50), "s");
    out.set("data_age_s.p99", percentile(first.ages_s, 99), "s");
    out.set("wire_bytes_per_op", first.wire_bytes / first.stored, "B");
    out.set("failed_op_ratio", first.late / first.sampled, "ratio");
    out.set("hist.feeder_pending", first.feeder_pending, "count");
    out.set("hist.feeder_dropped", first.feeder_dropped, "count");
    out.set("hist.replays_deduplicated", first.replays, "count");
  }

  void end_to_end(Outcome& out, const std::vector<Episode>& episodes) {
    std::vector<double> setups;
    std::vector<double> reading_us;
    std::vector<double> step_us;
    double wall_s = 0, cpu_ns = 0, allocs = 0, sampled = 0, stored = 0;
    for (const Episode& ep : episodes) {
      setups.push_back(ep.setup_s);
      reading_us.insert(reading_us.end(), ep.step_reading_us.begin(),
                        ep.step_reading_us.end());
      step_us.insert(step_us.end(), ep.step_costs.wall_us.begin(),
                     ep.step_costs.wall_us.end());
      wall_s += ep.step_costs.total_wall_s();
      cpu_ns += ep.step_costs.cpu_ns;
      allocs += ep.step_costs.allocs;
      sampled += ep.timed_sampled;
      stored += ep.timed_stored;
    }
    out.set("setup_s", percentile(setups, 50), "s");
    out.set("op_wall_us.p50", windowed_median(reading_us, step_us), "us");
    out.set("op_wall_us.p99", windowed_p99(reading_us), "us");
    out.set("ops_per_s", stored / wall_s, "1/s");
    out.set("cpu_us_per_op", cpu_ns / sampled / 1e3, "us");
    out.set("allocs_per_op", allocs / sampled, "count");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("episodes", static_cast<double>(episodes.size()), "count");
    out.set("timed_steps", static_cast<double>(reading_us.size()), "count");
    deterministic_columns(out, episodes.front());
  }

  /// An appendBatch task like the ones a default feeder exerts, aimed at
  /// the probe series with fresh timestamps.
  std::shared_ptr<sc::sorcer::Task> append_task() {
    std::vector<double> ts, values, qualities;
    for (std::size_t k = 0; k < probe_batch_; ++k) {
      ts.push_back(static_cast<double>(probe_ts_));
      probe_ts_ += sc::util::kSecond;
      values.push_back(bases_[k % kSensors]);
      qualities.push_back(0);
    }
    auto task = sc::sorcer::Task::make(
        "perfbench.append", sc::sorcer::Signature{sc::core::kDataCollectionType,
                                                  sc::core::op::kAppendBatch, ""});
    auto& ctx = task->context();
    ctx.put(sc::core::path::kHistSensor, std::string(kProbeSeries),
            sc::sorcer::PathDirection::kIn);
    ctx.put(sc::core::path::kHistTimestamps, std::move(ts),
            sc::sorcer::PathDirection::kIn);
    ctx.put(sc::core::path::kHistValues, std::move(values),
            sc::sorcer::PathDirection::kIn);
    ctx.put(sc::core::path::kHistQualities, std::move(qualities),
            sc::sorcer::PathDirection::kIn);
    return task;
  }

  /// Calls each layer entry point kProbeReps times on this workload's
  /// inputs, in spans, after the first traced episode's checks (so the
  /// probes cannot disturb them).
  void probe_layers(Outcome& out, Tracing& tracing) {
    SpanLog& log = tracing.log;
    queue_len_ = lab_->scheduler().pending();
    const auto stats = store().stats_snapshot();
    out.set("hist.bytes_per_series",
            static_cast<double>(stats.bytes) /
                static_cast<double>(std::max<std::size_t>(1, stats.series_count)),
            "B");
    out.set("hist.compression_ratio", stats.compression_ratio, "ratio");
    const double batches = tracing.delta.get("hist.append_batches");
    if (batches > 0) {
      probe_batch_ = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 tracing.delta.get("hist.appends") / batches + 0.5));
    }

    // hist: the run's batch size appended into a scratch store.
    sc::hist::HistorianStore scratch;
    std::vector<sc::sensor::Reading> readings(probe_batch_);
    sc::util::SimTime next_ts = 0;
    for (std::size_t r = 0; r < kProbeReps; ++r) {
      for (auto& reading : readings) {
        reading.timestamp = next_ts;
        reading.value = bases_[r % kSensors];
        next_ts += sc::util::kSecond;
      }
      SpanLog::Scope span(log, "hist.append", r);
      (void)scratch.append(kProbeSeries, readings);
    }

    // expr: the flow's filter program.
    const std::vector<std::string> slots = {"v"};
    const auto program =
        sc::expr::Expression::compile(kFilter).value().bind(slots).value();
    for (std::size_t r = 0; r < kProbeReps; ++r) {
      const double v[1] = {bases_[r % kSensors]};
      SpanLog::Scope span(log, "expr.eval", r);
      sink_ += program.evaluate(v).value();
    }

    // sorcer: the feeder's appendBatch call.
    sc::sorcer::ServiceAccessor& accessor = lab_->accessor();
    auto& marshal_ns = sc::obs::metrics().counter("invoke.marshal_ns");
    for (std::size_t r = 0; r < kProbeReps; ++r) {
      {
        auto task = append_task();
        SpanLog::Scope span(log, "sorcer.leaf_exert", r);
        (void)sc::sorcer::exert(task, accessor);
      }
      auto task = append_task();
      std::shared_ptr<sc::sorcer::Servicer> servicer;
      {
        SpanLog::Scope span(log, "sorcer.resolve", r);
        servicer = accessor.find_servicer(task->signature()).value();
      }
      const std::uint64_t spans0 = sc::obs::span_collector().recorded();
      const std::uint64_t marshal0 = marshal_ns.value();
      {
        SpanLog::Scope span(log, "sorcer.invoke", r);
        (void)lab_->invoker().invoke(servicer, task, nullptr);
      }
      probe_spans_ += sc::obs::span_collector().recorded() - spans0;
      probe_marshal_ns_ += marshal_ns.value() - marshal0;
      if (r == 0) request_ = task->context();
    }

    sc::sorcer::PathInternTable encoder, decoder;
    sc::sorcer::WireBuffer buffer;
    sc::sorcer::ServiceContext decoded;
    sc::sorcer::encode_context(request_, encoder, buffer);
    (void)sc::sorcer::decode_context(buffer.data(), buffer.size(), decoder,
                                     decoded);
    for (std::size_t r = 0; r < kProbeReps; ++r) {
      {
        SpanLog::Scope span(log, "sorcer.encode", r);
        sc::sorcer::encode_context(request_, encoder, buffer);
      }
      SpanLog::Scope span(log, "sorcer.decode", r);
      (void)sc::sorcer::decode_context(buffer.data(), buffer.size(), decoder,
                                       decoded);
    }
  }

  void traced_metrics(Outcome& out, const Episode& first, Tracing& t) {
    SpanLog& log = t.log;
    const double ops = t.counted_sampled;  // ops the counter deltas cover
    out.set("setup_s", first.setup_s, "s");
    deterministic_columns(out, first);
    set_counter_metrics(out, t.delta, ops, queue_len_);
    // Each flow reading passes the filter program once.
    out.set("expr.evals_per_op", t.delta.get("flow.readings_in") / ops, "count");

    const double op_wall_us = t.traced_wall_s * 1e6 / t.traced_sampled;
    set_span_metrics(out, log, op_wall_us);
    const double append_ns =
        log.mean_self_ns("hist.append") / static_cast<double>(probe_batch_);
    const double eval_ns = log.mean_self_ns("expr.eval");
    const double invoke_us = log.mean_self_ns("sorcer.invoke") / 1e3;
    const double resolve_us = log.mean_self_ns("sorcer.resolve") / 1e3;
    out.set("hist.append_ns_per_reading", append_ns, "ns");
    out.set("expr.eval_ns", eval_ns, "ns");
    out.set("sorcer.leaf_exert_us", log.mean_self_ns("sorcer.leaf_exert") / 1e3,
            "us");
    out.set("sorcer.resolve_us", resolve_us, "us");
    out.set("sorcer.invoke_us", invoke_us, "us");
    out.set("sorcer.encode_ns", log.mean_self_ns("sorcer.encode"), "ns");
    out.set("sorcer.decode_ns", log.mean_self_ns("sorcer.decode"), "ns");
    const auto reps = static_cast<double>(kProbeReps);
    set_call_shares(out, t.delta, ops, op_wall_us, invoke_us, resolve_us,
                    static_cast<double>(probe_spans_) / reps,
                    static_cast<double>(probe_marshal_ns_) / reps / 1e3,
                    append_ns * static_cast<double>(probe_batch_) / 1e3);
    out.set("expr.eval_share",
            out.metrics.at("expr.evals_per_op").value * eval_ns / 1e3 /
                op_wall_us,
            "ratio");
    out.set("hist.work_share",
            t.traced_stored / t.traced_sampled * append_ns / 1e3 / op_wall_us,
            "ratio");
    set_unexplained_share(out);
    set_overhead_metrics(out, t.plain_us, t.traced_us);
    out.set("trace.spans", static_cast<double>(log.size()), "count");
  }

  struct SensorState {
    std::string name;
    sc::core::ElementarySensorProvider* esp = nullptr;  // owned by lab_
    sc::util::SimTime registered = 0;
    std::vector<sc::util::SimTime> sampled;
    std::size_t delivered = 0;  // sampled[0, delivered) are stored
  };

  std::uint64_t seed_;
  sc::util::SimDuration latency_ = 0;
  std::vector<double> bases_;
  std::vector<std::string> flow_sensors_;
  std::unique_ptr<sc::core::Deployment> lab_;
  std::vector<SensorState> sensors_;
  std::string flow_error_;
  // Probe state (traced run).
  std::size_t probe_batch_ = 32;
  sc::util::SimTime probe_ts_ = 0;
  std::uint64_t probe_spans_ = 0;
  std::uint64_t probe_marshal_ns_ = 0;
  std::size_t queue_len_ = 0;
  sc::sorcer::ServiceContext request_;
  double sink_ = 0;  // keeps probed evaluations observable
};

}  // namespace

Outcome run_ingest(const Options& options) {
  Ingest workload(options.seed);
  return workload.run(options);
}

}  // namespace perfbench
