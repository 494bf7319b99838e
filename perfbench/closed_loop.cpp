#include "closed_loop.h"

#include "util/ids.h"
#include "util/rng.h"

namespace perfbench {

namespace sc = sensorcer;

namespace {

constexpr std::size_t kEpisodes = 3;
constexpr std::size_t kWarmBlocks = 12;
// Floor on timed ops, so a short --seconds still yields percentiles; the
// traced run's counts cover exactly its first kMinOps traced ops.
constexpr std::size_t kMinOps = 200;

std::uint64_t wire_bytes(sc::core::Deployment& lab) {
  const auto totals = lab.network().totals();
  return totals.payload_bytes_sent + totals.header_bytes_sent;
}

struct Timed {
  OpCosts costs;
  std::vector<double> virt_us;  // first `cycle` ops only
  std::vector<double> bytes;    // first `cycle` ops only
};

void timed_op(ClosedLoopWorkload& w, std::size_t i, Timed& t, Outcome& out,
              bool record_cycle) {
  sc::core::Deployment& lab = w.lab();
  const sc::util::SimTime v0 = lab.now();
  const std::uint64_t b0 = wire_bytes(lab);
  OpTimer timer;
  w.call(i);
  timer.done(t.costs);
  if (record_cycle) {
    t.virt_us.push_back(static_cast<double>(lab.now() - v0));
    t.bytes.push_back(static_cast<double>(wire_bytes(lab) - b0));
  }
  ++out.attempted;
  w.check(i, out);
}

void set_end_to_end(Outcome& out, const Timed& t,
                    const std::vector<double>& setups) {
  const double n = static_cast<double>(t.costs.wall_us.size());
  out.set("setup_s", percentile(setups, 50), "s");
  out.set("op_wall_us.p50", windowed_median(t.costs.wall_us, t.costs.wall_us),
          "us");
  out.set("op_wall_us.p99", windowed_p99(t.costs.wall_us), "us");
  out.set("ops_per_s", n / t.costs.total_wall_s(), "1/s");
  out.set("cpu_us_per_op", t.costs.cpu_ns / n / 1e3, "us");
  out.set("virt_ms.p50", percentile(t.virt_us, 50) / 1e3, "ms");
  out.set("virt_ms.p99", percentile(t.virt_us, 99) / 1e3, "ms");
  out.set("wire_bytes_per_op", mean(t.bytes), "B");
  out.set("allocs_per_op", t.costs.allocs / n, "count");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("failed_op_ratio",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio");
  out.set("timed_ops", n, "count");
}

void begin_episode(const Options& options, ClosedLoopWorkload& w) {
  // Same service ids in every episode and every run with this seed, so the
  // episodes replay one another exactly.
  sc::util::global_id_generator() = sc::util::IdGenerator(options.seed);
  w.setup();
  warm_up([&](std::size_t i) { w.call(i); }, w.warm_block(), kWarmBlocks);
  // How long the warm-up ran depends on the host; resume at the next whole
  // 10 virtual seconds so the timed ops meet the background timers (monitor
  // polls, announcements) at the same virtual instants in every run.
  constexpr sc::util::SimDuration kAlign = 10 * sc::util::kSecond;
  sc::core::Deployment& lab = w.lab();
  lab.pump((lab.now() / kAlign + 1) * kAlign - lab.now());
}

Outcome run_untraced(const Options& options, ClosedLoopWorkload& w,
                     std::size_t cycle) {
  Outcome out;
  Timed t;
  std::vector<double> setups;
  std::size_t next = 0;  // position in the op sequence, across episodes
  const auto segment_ns = static_cast<std::int64_t>(
      options.seconds / static_cast<double>(kEpisodes) * 1e9);
  for (std::size_t e = 0; e < kEpisodes; ++e) {
    const std::int64_t start = e == 0 ? g_process_start_ns : wall_ns();
    begin_episode(options, w);
    setups.push_back(static_cast<double>(wall_ns() - start) / 1e9);
    const std::int64_t deadline = wall_ns() + segment_ns;
    std::size_t ran = 0;
    const bool last = e + 1 == kEpisodes;
    while (wall_ns() < deadline || ran < kMinOps / kEpisodes ||
           (last && t.virt_us.size() < cycle)) {
      timed_op(w, next, t, out, t.virt_us.size() < cycle);
      ++next;
      ++ran;
    }
    if (last) w.report(out);
    w.teardown();
  }
  set_end_to_end(out, t, setups);
  return out;
}

Outcome run_traced(const Options& options, ClosedLoopWorkload& w) {
  Outcome out;
  const std::int64_t start = g_process_start_ns;
  begin_episode(options, w);
  out.set("setup_s", static_cast<double>(wall_ns() - start) / 1e9, "s");
  sc::core::Deployment& lab = w.lab();

  // A seeded coin picks each op's side, so traced and untraced ops sample
  // the same stretch of machine time and their difference is the tracing
  // overhead, not drift.
  sc::util::Rng coin(options.seed);
  Timed plain;
  SpanLog log;
  // Counts come from the first kMinOps traced ops, a set the seed alone
  // fixes, so two runs with one seed report identical per-layer counts.
  Counters delta;
  std::size_t queue_len = 0;
  OpCosts traced;
  std::size_t i = 0;
  for (const std::int64_t deadline =
           wall_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
       wall_ns() < deadline || traced.wall_us.size() < kMinOps ||
       plain.costs.wall_us.size() < kMinOps;
       ++i) {
    if (coin.chance(0.5)) {
      timed_op(w, i, plain, out, false);
      continue;
    }
    const bool counted = traced.wall_us.size() < kMinOps;
    const Counters before = counted ? Counters::sample(lab) : Counters{};
    {
      OpTimer timer;
      {
        SpanLog::Scope span(log, w.op_span(), i);
        w.call(i);
      }
      timer.done(traced);
    }
    if (counted) {
      delta += Counters::sample(lab) - before;
      queue_len = lab.scheduler().pending();
    }
    ++out.attempted;
    w.check(i, out);
    w.probe(i, log);
  }

  const auto ops = static_cast<double>(kMinOps);
  set_counter_metrics(out, delta, ops, queue_len);
  const double traced_mean = mean(traced.wall_us);
  set_span_metrics(out, log, traced_mean);
  w.layer_metrics(out, log, delta, ops, traced_mean);
  set_unexplained_share(out);
  set_overhead_metrics(out, plain.costs.wall_us, traced.wall_us);
  out.set("trace.spans", static_cast<double>(log.size()), "count");
  if (!options.trace_out.empty() && !log.write_jsonl(options.trace_out)) {
    out.notes.push_back("could not write spans to " + options.trace_out);
  }
  w.report(out);
  w.teardown();
  return out;
}

}  // namespace

Outcome run_closed_loop(const Options& options, ClosedLoopWorkload& w,
                        std::size_t cycle) {
  return options.trace ? run_traced(options, w)
                       : run_untraced(options, w, cycle);
}

}  // namespace perfbench
