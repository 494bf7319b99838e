// Tests for the observability subsystem (src/obs/): metric instruments and
// registry snapshots, trace span propagation (same-thread, cross-thread and
// across a simnet hop), deterministic export, and the end-to-end guarantee
// that one façade request yields a connected trace with byte accounting.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/deployment.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simnet/network.h"
#include "sorcer/exert.h"
#include "util/scheduler.h"

namespace sensorcer {
namespace {

// The global registry and span collector are process-wide; tests that assert
// on their contents reset them first.
void reset_global_obs() {
  obs::metrics().reset();
  obs::span_collector().clear();
  // Rewind the process-wide uuid stream: since the registry federated,
  // shard-placement gauges depend on service ids, so "identical runs" must
  // draw identical ids.
  util::global_id_generator() = util::IdGenerator{};
}

// --- instruments -------------------------------------------------------------

TEST(ObsMetrics, CounterBasics) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("x");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&reg.counter("x"), &c);  // stable handle
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeAddSubSet) {
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("level");
  g.add(3.0);
  g.sub(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.set(-7.5);
  EXPECT_DOUBLE_EQ(g.value(), -7.5);
}

TEST(ObsMetrics, HistogramCountsAndPercentiles) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("lat", {10.0, 100.0, 1000.0});
  for (int i = 0; i < 100; ++i) h.observe(5.0);  // all in the first bucket
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 500.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_LE(h.percentile(50), 10.0);

  h.observe(5000.0);  // overflow bucket
  EXPECT_EQ(h.count(), 101u);
  EXPECT_DOUBLE_EQ(h.max(), 5000.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 100u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(ObsMetrics, HistogramPercentileOrdering) {
  obs::Histogram h;  // default latency bounds
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i * 100));
  EXPECT_LE(h.percentile(50), h.percentile(90));
  EXPECT_LE(h.percentile(90), h.percentile(99));
  EXPECT_LE(h.percentile(99), h.max());
  EXPECT_GT(h.percentile(50), 0.0);
}

// --- concurrency -------------------------------------------------------------

TEST(ObsMetrics, ConcurrentUpdatesFromPoolWorkersAreExact) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("hits");
  obs::Gauge& g = reg.gauge("level");
  obs::Histogram& h = reg.histogram("obs");

  constexpr int kThreads = 8;
  constexpr int kTasks = 32;
  constexpr int kPerTask = 2000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int t = 0; t < kTasks / kThreads; ++t) {
        for (int i = 0; i < kPerTask; ++i) {
          c.add(1);
          g.add(1.0);
          h.observe(250.0);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kTasks) * kPerTask);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kTasks) * kPerTask);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kTasks) * kPerTask);
  EXPECT_DOUBLE_EQ(h.sum(), 250.0 * kTasks * kPerTask);
}

TEST(ObsMetrics, ConcurrentHandleResolutionIsSafe) {
  obs::Registry reg;
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&] {
      for (int t = 0; t < 2; ++t) {  // 16 tasks over 8 threads
        for (int i = 0; i < 200; ++i) {
          reg.counter("shared." + std::to_string(i % 10)).add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  std::uint64_t total = 0;
  for (int i = 0; i < 10; ++i) {
    total += reg.counter("shared." + std::to_string(i)).value();
  }
  EXPECT_EQ(total, 16u * 200u);
}

// --- snapshots and export ----------------------------------------------------

TEST(ObsExport, SnapshotIsDeterministic) {
  // Two registries populated in different orders serialize identically.
  obs::Registry a;
  a.counter("z.last").add(3);
  a.counter("a.first").add(1);
  a.gauge("m.level").set(2.5);
  a.histogram("lat", {10.0, 100.0}).observe(7.0);

  obs::Registry b;
  b.histogram("lat", {10.0, 100.0}).observe(7.0);
  b.gauge("m.level").set(2.5);
  b.counter("a.first").add(1);
  b.counter("z.last").add(3);

  const std::string ja = obs::to_json_line(a.snapshot(1234));
  const std::string jb = obs::to_json_line(b.snapshot(1234));
  EXPECT_EQ(ja, jb);
  EXPECT_NE(ja.find("\"sim_time_us\":1234"), std::string::npos);
  EXPECT_NE(ja.find("\"a.first\":1"), std::string::npos);
  // One line, no trailing whitespace surprises.
  EXPECT_EQ(ja.find('\n'), std::string::npos);

  // Snapshotting twice without updates is also byte-identical.
  EXPECT_EQ(obs::to_json_line(a.snapshot(99)), obs::to_json_line(a.snapshot(99)));
}

TEST(ObsExport, WallClockInstrumentsStayOutOfDeterministicSnapshots) {
  obs::Registry reg;
  reg.counter("work.items").add(4);
  reg.counter("work.cpu_ns", obs::Clock::kWall).add(1234);
  reg.histogram("work.wait_us", {}, obs::Clock::kWall).observe(5.0);
  // The declaration sticks: a later lookup without a clock finds the same
  // wall-clock instrument.
  reg.counter("work.cpu_ns").add(1);

  const obs::Snapshot full = reg.snapshot(0);
  EXPECT_EQ(full.counter_or("work.cpu_ns"), 1235u);
  EXPECT_NE(full.histogram("work.wait_us"), nullptr);

  const obs::Snapshot det = reg.snapshot(0, /*with_wall_clock=*/false);
  EXPECT_EQ(det.counter_or("work.items"), 4u);
  EXPECT_EQ(det.counter_or("work.cpu_ns", 99), 99u);  // absent
  EXPECT_EQ(det.histogram("work.wait_us"), nullptr);
}

TEST(ObsExport, SnapshotMergeSumsSameNames) {
  obs::Registry a;
  a.counter("n").add(2);
  a.gauge("g").set(1.0);
  obs::Registry b;
  b.counter("n").add(3);
  b.counter("only_b").add(7);

  obs::Snapshot snap = a.snapshot(0);
  snap.merge(b.snapshot(0));
  EXPECT_EQ(snap.counter_or("n"), 5u);
  EXPECT_EQ(snap.counter_or("only_b"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge_or("g"), 1.0);
}

TEST(ObsExport, RenderTableAndHealthDoNotThrow) {
  obs::Registry reg;
  reg.counter("simnet.messages_sent").add(12);
  reg.histogram("sorcer.task.latency_us").observe(500.0);
  const obs::Snapshot snap = reg.snapshot(42);
  EXPECT_NE(obs::render_table(snap).find("simnet.messages_sent"),
            std::string::npos);
  const std::string health = obs::render_federation_health(snap);
  EXPECT_NE(health.find("Federation Health"), std::string::npos);
  EXPECT_NE(health.find("12"), std::string::npos);
}

// --- spans -------------------------------------------------------------------

TEST(ObsTrace, SpanParentChildSameThread) {
  obs::SpanCollector collector(64);
  obs::Tracer tracer(collector);

  auto root = tracer.start_span("root");
  {
    obs::ContextGuard guard(root.context());
    auto child = tracer.start_span("child");
    EXPECT_EQ(child.context().trace_id, root.context().trace_id);
  }
  root.finish();

  const auto spans = collector.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "child");  // finished first
  EXPECT_EQ(spans[1].name, "root");
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
  EXPECT_EQ(spans[1].parent_id, 0u);  // root
}

TEST(ObsTrace, RingBufferOverflowDropsOldest) {
  obs::SpanCollector collector(4);
  obs::Tracer tracer(collector);
  for (int i = 0; i < 10; ++i) {
    tracer.start_span("s" + std::to_string(i)).finish();
  }
  EXPECT_EQ(collector.recorded(), 10u);
  EXPECT_EQ(collector.dropped(), 6u);
  const auto spans = collector.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().name, "s6");  // oldest retained
  EXPECT_EQ(spans.back().name, "s9");
}

TEST(ObsTrace, NamesLongerThanTheInlineBufferRenderWhole) {
  // Names around the inline buffer's size, joined from parts, through a
  // ring that wraps: spilled entries are overwritten by inline ones and
  // the other way round, and every retained name comes back whole.
  obs::SpanCollector collector(3);
  obs::Tracer tracer(collector);
  constexpr std::size_t kInline = obs::SpanEntry::kInlineName;
  std::vector<std::string> names;
  for (const std::size_t size :
       {kInline - 1, kInline, kInline + 1, std::size_t{8}, std::size_t{300}}) {
    // "rpc:" + target + "->" is `size` characters long.
    const std::string target(size - 6, static_cast<char>('a' + names.size()));
    names.push_back("rpc:" + target + "->");
    tracer.start_span({"rpc:", target, "->"}).finish();
  }
  const auto spans = collector.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].name, names[names.size() - 3 + i]);
  }
  EXPECT_EQ(spans.back().name.size(), 300u);
  EXPECT_EQ(obs::render_trace_tree({spans.back()}), names.back() + "  [0us]\n");
}

TEST(ObsTrace, ConcurrentSpansKeepTheirNamesIntact) {
  // Four threads start and finish spans with distinct names, half of them
  // past the inline buffer, into one ring that wraps many times over.
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 2000;
  constexpr std::size_t kCapacity = 1024;
  obs::SpanCollector collector(kCapacity);
  obs::Tracer tracer(collector);
  const std::string tail(obs::SpanEntry::kInlineName, '~');
  const auto name_of = [&tail](int thread, int i) {
    return "worker-" + std::to_string(thread) + "/span-" + std::to_string(i) +
           (i % 2 == 0 ? tail : std::string());
  };
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::string worker = "worker-" + std::to_string(t);
      for (int i = 0; i < kSpansPerThread; ++i) {
        const std::string index = std::to_string(i);
        tracer
            .start_span({worker, "/span-", index,
                         i % 2 == 0 ? std::string_view(tail) : ""})
            .finish();
      }
    });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(collector.recorded(), std::uint64_t{kThreads * kSpansPerThread});
  const auto spans = collector.snapshot();
  ASSERT_EQ(spans.size(), kCapacity);
  for (const auto& span : spans) {
    int thread = -1;
    int i = -1;
    ASSERT_EQ(std::sscanf(span.name.c_str(), "worker-%d/span-%d", &thread, &i),
              2)
        << span.name;
    EXPECT_EQ(span.name, name_of(thread, i));
  }
}

TEST(ObsTrace, ContextPropagatesAcrossSimnetHop) {
  reset_global_obs();
  util::Scheduler sched;
  simnet::Network net(sched, /*seed=*/7);
  obs::set_sim_clock(&sched);

  const simnet::Address a = util::new_uuid();
  const simnet::Address b = util::new_uuid();
  net.attach(a, [](const simnet::Message&) {});

  obs::TraceContext receiver_ctx;
  net.attach(b, [&](const simnet::Message&) {
    receiver_ctx = obs::current_context();
    obs::tracer().start_span("handler.work").finish();
  });

  std::uint64_t sent_trace_id = 0;
  {
    auto span = obs::tracer().start_span("client.request");
    sent_trace_id = span.context().trace_id;
    obs::ContextGuard guard(span.context());
    simnet::Message msg;
    msg.source = a;
    msg.destination = b;
    msg.topic = "test.hop";
    msg.payload_bytes = 100;
    ASSERT_TRUE(net.send(std::move(msg)).is_ok());
  }
  sched.run_for(util::kSecond);

  // Receiver ran under the sender's trace: net.recv span links both sides.
  EXPECT_EQ(receiver_ctx.trace_id, sent_trace_id);
  const auto trace = obs::span_collector().trace(sent_trace_id);
  ASSERT_EQ(trace.size(), 3u);  // client.request, net.recv:test.hop, handler.work
  std::map<std::uint64_t, obs::SpanRecord> by_id;
  for (const auto& s : trace) by_id[s.span_id] = s;
  const auto named = [&](const std::string& name) -> const obs::SpanRecord* {
    for (const auto& s : trace) {
      if (s.name == name) return &by_id.at(s.span_id);
    }
    return nullptr;
  };
  const auto* request = named("client.request");
  const auto* recv = named("net.recv:test.hop");
  const auto* work = named("handler.work");
  ASSERT_NE(request, nullptr);
  ASSERT_NE(recv, nullptr);
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(recv->parent_id, request->span_id);
  EXPECT_EQ(work->parent_id, recv->span_id);
  // Delivery happened after the configured latency, in sim time.
  EXPECT_GE(recv->sim_start, net.latency());

  // The traced message was charged the trace header on the wire.
  EXPECT_EQ(net.metrics().counter("simnet.trace_bytes_sent").value(),
            obs::TraceContext::kWireBytes);
  obs::set_sim_clock(nullptr);
}

TEST(ObsTrace, UntracedSendsCostNoTraceBytes) {
  util::Scheduler sched;
  simnet::Network net(sched, /*seed=*/7);
  const simnet::Address a = util::new_uuid();
  const simnet::Address b = util::new_uuid();
  net.attach(a, [](const simnet::Message&) {});
  net.attach(b, [](const simnet::Message&) {});
  simnet::Message msg;
  msg.source = a;
  msg.destination = b;
  msg.payload_bytes = 100;
  ASSERT_TRUE(net.send(std::move(msg)).is_ok());
  sched.run_for(util::kSecond);
  EXPECT_EQ(net.metrics().counter("simnet.trace_bytes_sent").value(), 0u);
  // Header bytes equal the plain protocol headers (no tracing surcharge).
  EXPECT_EQ(net.totals().header_bytes_sent,
            simnet::header_bytes(simnet::Protocol::kUdp));
}

// --- end-to-end: façade request → connected trace + byte accounting ----------

TEST(ObsIntegration, FacadeRequestProducesConnectedTraceAndTraffic) {
  core::Deployment lab;
  lab.add_temperature_sensor("t-1", 20.0);
  lab.add_temperature_sensor("t-2", 24.0);
  auto composite = lab.facade().create_local_service("room");
  ASSERT_NE(composite, nullptr);
  ASSERT_TRUE(lab.facade().compose_service("room", {"t-1", "t-2"}).is_ok());
  lab.pump(util::kSecond);

  reset_global_obs();
  lab.network().reset_stats();

  auto value = lab.facade().get_value("room");
  ASSERT_TRUE(value.is_ok());

  // Non-zero traffic: registry lookups for resolution are RPC-charged.
  const simnet::TrafficStats totals = lab.network().totals();
  EXPECT_GT(totals.payload_bytes_sent, 0u);
  EXPECT_GT(totals.header_bytes_sent, 0u);

  // The request produced one trace whose spans chain from the façade root
  // through an exertion down to a probe read.
  const auto spans = obs::span_collector().snapshot();
  std::map<std::uint64_t, obs::SpanRecord> by_id;
  for (const auto& s : spans) by_id[s.span_id] = s;

  const obs::SpanRecord* root = nullptr;
  for (const auto& s : spans) {
    if (s.name.rfind("facade.getValue", 0) == 0) root = &by_id.at(s.span_id);
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);

  // Walk up from a probe span; the chain must pass exert/invoke spans and
  // terminate at the façade root, all within one trace.
  const obs::SpanRecord* probe = nullptr;
  for (const auto& s : spans) {
    if (s.name.rfind("probe:", 0) == 0) probe = &by_id.at(s.span_id);
  }
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->trace_id, root->trace_id);

  std::vector<std::string> chain;
  const obs::SpanRecord* cur = probe;
  int hops = 0;
  while (cur != nullptr && hops++ < 32) {
    chain.push_back(cur->name);
    if (cur->parent_id == 0) break;
    auto it = by_id.find(cur->parent_id);
    cur = it == by_id.end() ? nullptr : &it->second;
  }
  ASSERT_GE(chain.size(), 3u) << "trace chain too short";
  EXPECT_EQ(chain.back().rfind("facade.getValue", 0), 0u)
      << "chain does not reach the facade root";
  const auto has_prefix = [&](const std::string& prefix) {
    return std::any_of(chain.begin(), chain.end(), [&](const std::string& n) {
      return n.rfind(prefix, 0) == 0;
    });
  };
  EXPECT_TRUE(has_prefix("exert:"));
  EXPECT_TRUE(has_prefix("invoke:"));

  // The health report reflects the same request.
  const obs::Snapshot health = lab.manager().health_snapshot();
  EXPECT_GE(health.counter_or("facade.requests"), 1u);
  EXPECT_GE(health.counter_or("sorcer.task.invocations"), 2u);
  EXPECT_GT(health.counter_or("simnet.payload_bytes_sent"), 0u);
  const std::string report = lab.manager().health_report();
  EXPECT_NE(report.find("Federation Health"), std::string::npos);

  // And the browser renders it as a pane.
  EXPECT_NE(lab.browser().render().find("Federation Health"),
            std::string::npos);
}

TEST(ObsIntegration, FacadeReadOfATwoLevelCompositeRendersItsGoldenTree) {
  // Every span op a read crosses — facade.getValue:, exert:, rpc:,
  // net.recv:, invoke: and probe: — rendered with simulated durations
  // only. Each provider's invoke: span nests under the
  // net.recv:invoke.request hop that delivered its call, so a call reads
  // rpc: → request hop → invoke: → the provider's own work, with the
  // response hop beside the invoke: span.
  reset_global_obs();
  core::Deployment lab;
  lab.add_temperature_sensor("t-1", 20.0);
  lab.add_temperature_sensor("t-2", 24.0);
  lab.add_temperature_sensor("t-3", 22.0);
  ASSERT_NE(lab.facade().create_local_service("room"), nullptr);
  ASSERT_TRUE(lab.facade().compose_service("room", {"t-1", "t-2"}).is_ok());
  ASSERT_NE(lab.facade().create_local_service("house"), nullptr);
  ASSERT_TRUE(lab.facade().compose_service("house", {"room", "t-3"}).is_ok());
  lab.pump(util::kSecond);
  obs::span_collector().clear();

  ASSERT_TRUE(lab.facade().get_value("house").is_ok());
  std::uint64_t trace_id = 0;
  for (const auto& span : obs::span_collector().snapshot()) {
    if (span.name == "facade.getValue:house") trace_id = span.trace_id;
  }
  ASSERT_NE(trace_id, 0u);
  const std::string golden =
      "facade.getValue:house  [4.900ms]\n"
      "└─ exert:facade.read:house  [4.900ms]\n"
      "   └─ rpc:facade.read:house->house  [4.900ms]\n"
      "      └─ net.recv:invoke.request  [3.500ms]\n"
      "         ├─ invoke:house#getValue  [3.500ms]\n"
      "         │  └─ exert:house.collect  [3.500ms]\n"
      "         │     ├─ exert:a  [2.900ms]\n"
      "         │     │  └─ rpc:a->room  [2.900ms]\n"
      "         │     │     └─ net.recv:invoke.request  [1.500ms]\n"
      "         │     │        ├─ invoke:room#getValue  [1.500ms]\n"
      "         │     │        │  └─ exert:room.collect  [1.500ms]\n"
      "         │     │        │     ├─ exert:a  [900us]\n"
      "         │     │        │     │  └─ rpc:a->t-1  [900us]\n"
      "         │     │        │     │     └─ net.recv:invoke.request  [0us]\n"
      "         │     │        │     │        ├─ invoke:t-1#getValue  [0us]\n"
      "         │     │        │     │        │  └─ probe:t-1  [0us]\n"
      "         │     │        │     │        └─ net.recv:invoke.response  [0us]\n"
      "         │     │        │     ├─ exert:b  [900us]\n"
      "         │     │        │     │  └─ rpc:b->t-2  [900us]\n"
      "         │     │        │     │     └─ net.recv:invoke.request  [0us]\n"
      "         │     │        │     │        ├─ invoke:t-2#getValue  [0us]\n"
      "         │     │        │     │        │  └─ probe:t-2  [0us]\n"
      "         │     │        │     │        └─ net.recv:invoke.response  [0us]\n"
      "         │     │        │     └─ rpc:room.collect->Jobber  [1.500ms]\n"
      "         │     │        │        └─ net.recv:invoke.request  [900us]\n"
      "         │     │        │           └─ net.recv:invoke.response  [0us]\n"
      "         │     │        └─ net.recv:invoke.response  [0us]\n"
      "         │     ├─ exert:b  [2.900ms]\n"
      "         │     │  └─ rpc:b->t-3  [1.700ms]\n"
      "         │     │     └─ net.recv:invoke.request  [0us]\n"
      "         │     │        ├─ invoke:t-3#getValue  [0us]\n"
      "         │     │        │  └─ probe:t-3  [0us]\n"
      "         │     │        └─ net.recv:invoke.response  [0us]\n"
      "         │     └─ rpc:house.collect->Jobber  [3.500ms]\n"
      "         │        └─ net.recv:invoke.request  [2.900ms]\n"
      "         │           └─ net.recv:invoke.response  [0us]\n"
      "         └─ net.recv:invoke.response  [0us]\n";
  EXPECT_EQ(obs::render_trace_tree(obs::span_collector().trace(trace_id)),
            golden);
}

TEST(ObsIntegration, InvokeSpanParentsOnTheHopThatDeliveredTheCall) {
  reset_global_obs();
  core::Deployment lab;
  auto sensor = lab.add_temperature_sensor("t-1", 20.0);
  lab.pump(util::kSecond);
  obs::span_collector().clear();

  // Over the wire: the request carried the rpc: span's trace, so the
  // provider's work nests under the hop that delivered it.
  auto task = sorcer::Task::make(
      "read", sorcer::Signature{core::kSensorDataAccessorType,
                                core::op::kGetValue, "t-1"});
  obs::Span root = obs::tracer().start_span("client.read");
  {
    obs::ContextGuard guard(root.context());
    ASSERT_TRUE(sorcer::exert(task, lab.accessor()).is_ok());
  }
  root.finish();
  std::map<std::uint64_t, obs::SpanRecord> by_id;
  const obs::SpanRecord* invoke = nullptr;
  const obs::SpanRecord* exert = nullptr;
  for (const auto& span : obs::span_collector().snapshot()) {
    by_id[span.span_id] = span;
  }
  for (const auto& [id, span] : by_id) {
    if (span.name == "invoke:t-1#getValue") invoke = &span;
    if (span.name == "exert:read") exert = &span;
  }
  ASSERT_NE(invoke, nullptr);
  ASSERT_NE(exert, nullptr);
  ASSERT_TRUE(by_id.contains(invoke->parent_id));
  const obs::SpanRecord& hop = by_id.at(invoke->parent_id);
  EXPECT_EQ(hop.name, "net.recv:invoke.request");
  ASSERT_TRUE(by_id.contains(hop.parent_id));
  EXPECT_EQ(by_id.at(hop.parent_id).name, "rpc:read->t-1");
  // The hop is not written into the exertion, which is the requestor's:
  // it still carries its own exert: span.
  EXPECT_EQ(task->trace_context().span_id, exert->span_id);

  // A direct dispatch, with no request behind it, parents on the context
  // stamped on the exertion.
  obs::span_collector().clear();
  obs::Span stamp = obs::tracer().start_span("client.stamp");
  auto direct = sorcer::Task::make(
      "direct", sorcer::Signature{core::kSensorDataAccessorType,
                                  core::op::kGetValue, "t-1"});
  direct->set_trace_context(stamp.context());
  ASSERT_TRUE(sensor->service(direct, nullptr).is_ok());
  const std::uint64_t stamp_id = stamp.context().span_id;
  stamp.finish();
  bool found = false;
  for (const auto& span : obs::span_collector().snapshot()) {
    if (span.name != "invoke:t-1#getValue") continue;
    found = true;
    EXPECT_EQ(span.parent_id, stamp_id);
  }
  EXPECT_TRUE(found);
}

TEST(ObsIntegration, SnapshotUnderSimTimeIsDeterministicAcrossRuns) {
  // Two identical deployments driven identically produce byte-identical
  // merged snapshots (virtual time + deterministic UUIDs + seeded RNG).
  auto run = [] {
    reset_global_obs();
    core::Deployment lab;
    lab.add_temperature_sensor("s", 20.0);
    lab.pump(util::kSecond);
    (void)lab.facade().get_value("s");
    return obs::to_json_line(lab.manager().health_snapshot());
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace sensorcer
