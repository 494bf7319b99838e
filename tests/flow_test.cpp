// Tests for the streaming dataflow subsystem (src/flow/): spec validation
// and window semantics, frame marshalling, the placement cost model and
// relay node scorer, end-to-end wire-mode flows under both placements,
// relay failover without losing or double-delivering readings, the
// threshold-watch push sink that removes the watch's own sensor reads, and
// listener-sink event delivery.

#include <gtest/gtest.h>

#include <set>
#include <variant>
#include <vector>

#include "core/deployment.h"
#include "core/threshold_watch.h"
#include "flow/frame.h"
#include "flow/manager.h"
#include "flow/operator.h"
#include "flow/placement.h"
#include "flow/spec.h"
#include "obs/metrics.h"
#include "sorcer/exert.h"

namespace sensorcer::flow {
namespace {

using sensor::Quality;
using sensor::Reading;
using util::kSecond;

Reading make_reading(util::SimTime t, double v, Quality q = Quality::kGood) {
  return Reading{t, v, q, 0};
}

std::uint64_t counter(const std::string& name) {
  return obs::metrics().counter(name).value();
}

// --- spec -----------------------------------------------------------------------------------

TEST(FlowSpec, ValidationCatchesStructuralErrors) {
  FlowSpec spec;
  spec.name = "f";
  spec.sensors = {"s"};
  EXPECT_TRUE(validate(spec).is_ok());

  FlowSpec unnamed = spec;
  unnamed.name.clear();
  EXPECT_FALSE(validate(unnamed).is_ok());

  FlowSpec no_sensors = spec;
  no_sensors.sensors.clear();
  EXPECT_FALSE(validate(no_sensors).is_ok());

  FlowSpec bad_count = spec;
  bad_count.window = {WindowKind::kCount, 0, 0, Aggregate::kMean};
  EXPECT_FALSE(validate(bad_count).is_ok());

  FlowSpec bad_span = spec;
  bad_span.window = {WindowKind::kTime, 0, 0, Aggregate::kMean};
  EXPECT_FALSE(validate(bad_span).is_ok());

  FlowSpec no_trigger = spec;
  no_trigger.sink.kind = SinkKind::kTrigger;
  EXPECT_FALSE(validate(no_trigger).is_ok());

  FlowSpec bad_hint = spec;
  bad_hint.selectivity_hint = 0.0;
  EXPECT_FALSE(validate(bad_hint).is_ok());
}

TEST(FlowSpec, CompileRejectsBadExpressions) {
  FlowSpec spec;
  spec.name = "f";
  spec.sensors = {"s"};
  spec.filter = "v >";
  EXPECT_FALSE(compile_stages(spec).is_ok());
  spec.filter = "q > 1";  // only `v` is in scope
  EXPECT_FALSE(compile_stages(spec).is_ok());
  spec.filter = "v > 1";
  spec.map = "v * 2";
  ASSERT_TRUE(compile_stages(spec).is_ok());
}

TEST(FlowSpec, WindowReductionModelsEmissionRate) {
  WindowSpec none;
  EXPECT_DOUBLE_EQ(none.reduction(kSecond), 1.0);
  WindowSpec count{WindowKind::kCount, 10, 0, Aggregate::kMean};
  EXPECT_DOUBLE_EQ(count.reduction(kSecond), 0.1);
  WindowSpec time{WindowKind::kTime, 0, 10 * kSecond, Aggregate::kMean};
  EXPECT_DOUBLE_EQ(time.reduction(kSecond), 0.1);
  // A bucket narrower than the sample period can't amplify the rate.
  WindowSpec narrow{WindowKind::kTime, 0, kSecond / 2, Aggregate::kMean};
  EXPECT_DOUBLE_EQ(narrow.reduction(kSecond), 1.0);
}

// --- frames ---------------------------------------------------------------------------------

TEST(FlowFrame, MarshalRoundTripsThroughAContext) {
  FlowFrame frame;
  frame.sensor = "s";
  frame.push(make_reading(1, 1.5));
  frame.push(make_reading(2, 2.5, Quality::kSuspect));
  frame.push(make_reading(3, 3.5, Quality::kBad));

  sorcer::ServiceContext ctx;
  marshal_frame("f", frame, ctx);
  auto back = unmarshal_frame(ctx);
  ASSERT_TRUE(back.is_ok());
  ASSERT_EQ(back.value().size(), 3u);
  EXPECT_EQ(back.value().sensor, "s");
  const Reading r1 = back.value().reading_at(1);
  EXPECT_EQ(r1.timestamp, 2);
  EXPECT_DOUBLE_EQ(r1.value, 2.5);
  EXPECT_EQ(r1.quality, Quality::kSuspect);
  EXPECT_EQ(back.value().reading_at(2).quality, Quality::kBad);
}

TEST(FlowFrame, PoolRecyclesFrames) {
  FramePool pool(8, 2);
  FlowFrame a = pool.acquire();
  a.push(make_reading(1, 1.0));
  pool.release(std::move(a));
  EXPECT_EQ(pool.retained(), 1u);
  FlowFrame b = pool.acquire();
  EXPECT_EQ(pool.retained(), 0u);
  EXPECT_TRUE(b.empty()) << "recycled frames come back cleared";
  EXPECT_GE(b.timestamps.capacity(), 1u) << "allocation is reused";
}

// --- stage runner ---------------------------------------------------------------------------

struct TriggerCapture {
  std::vector<std::pair<std::string, Reading>> emissions;
  SinkSpec sink() {
    return SinkSpec::to_trigger(
        [this](const std::string& sensor, const Reading& r) {
          emissions.emplace_back(sensor, r);
        });
  }
};

StageRunner make_runner(const FlowSpec& spec, SinkSpec sink,
                        sorcer::ServiceAccessor& accessor,
                        util::Scheduler& scheduler) {
  auto stages = compile_stages(spec);
  EXPECT_TRUE(stages.is_ok());
  return StageRunner(spec.name, stages.value(), std::move(sink), accessor,
                     scheduler);
}

TEST(StageRunner, FilterMapAndWatermarkDedup) {
  util::Scheduler scheduler;
  sorcer::ServiceAccessor accessor;
  TriggerCapture capture;
  FlowSpec spec;
  spec.name = "f";
  spec.sensors = {"s"};
  spec.filter = "v > 10";
  spec.map = "v / 2";
  StageRunner runner =
      make_runner(spec, capture.sink(), accessor, scheduler);

  EXPECT_TRUE(runner.ingest("s", make_reading(1, 5.0)));   // filtered out
  EXPECT_TRUE(runner.ingest("s", make_reading(2, 20.0)));  // passes
  EXPECT_FALSE(runner.ingest("s", make_reading(2, 20.0)))  // replay
      << "at-or-below the watermark is a duplicate";
  EXPECT_FALSE(runner.ingest("s", make_reading(1, 50.0)));

  ASSERT_EQ(capture.emissions.size(), 1u);
  EXPECT_DOUBLE_EQ(capture.emissions[0].second.value, 10.0);
  EXPECT_EQ(runner.counters().readings_in, 2u);
  EXPECT_EQ(runner.counters().filtered_out, 1u);
  EXPECT_EQ(runner.counters().duplicates_dropped, 2u);
  EXPECT_EQ(runner.counters().emitted, 1u);
}

TEST(StageRunner, CountWindowAggregates) {
  util::Scheduler scheduler;
  sorcer::ServiceAccessor accessor;
  TriggerCapture capture;
  FlowSpec spec;
  spec.name = "f";
  spec.sensors = {"s"};
  spec.window = {WindowKind::kCount, 3, 0, Aggregate::kMean};
  StageRunner runner =
      make_runner(spec, capture.sink(), accessor, scheduler);

  runner.ingest("s", make_reading(1, 1.0));
  runner.ingest("s", make_reading(2, 2.0));
  EXPECT_TRUE(capture.emissions.empty());
  runner.ingest("s", make_reading(3, 6.0));
  ASSERT_EQ(capture.emissions.size(), 1u);
  EXPECT_DOUBLE_EQ(capture.emissions[0].second.value, 3.0);
  EXPECT_EQ(capture.emissions[0].second.timestamp, 3);

  // Windows are per sensor: a second sensor fills its own window.
  runner.ingest("t", make_reading(1, 9.0));
  runner.ingest("t", make_reading(2, 9.0));
  runner.ingest("t", make_reading(3, 9.0));
  ASSERT_EQ(capture.emissions.size(), 2u);
  EXPECT_DOUBLE_EQ(capture.emissions[1].second.value, 9.0);
}

TEST(StageRunner, TimeWindowClosesOnBucketChange) {
  util::Scheduler scheduler;
  sorcer::ServiceAccessor accessor;
  TriggerCapture capture;
  FlowSpec spec;
  spec.name = "f";
  spec.sensors = {"s"};
  spec.window = {WindowKind::kTime, 0, 10 * kSecond, Aggregate::kMax};
  StageRunner runner =
      make_runner(spec, capture.sink(), accessor, scheduler);

  runner.ingest("s", make_reading(1 * kSecond, 1.0));
  runner.ingest("s", make_reading(4 * kSecond, 7.0));
  runner.ingest("s", make_reading(9 * kSecond, 3.0));
  EXPECT_TRUE(capture.emissions.empty()) << "bucket still open";
  runner.ingest("s", make_reading(11 * kSecond, 2.0));
  ASSERT_EQ(capture.emissions.size(), 1u);
  EXPECT_DOUBLE_EQ(capture.emissions[0].second.value, 7.0);
  EXPECT_EQ(capture.emissions[0].second.timestamp, 9 * kSecond);
}

TEST(StageRunner, AdoptCarriesWatermarksWindowsAndCounters) {
  util::Scheduler scheduler;
  sorcer::ServiceAccessor accessor;
  TriggerCapture a_cap;
  TriggerCapture b_cap;
  FlowSpec spec;
  spec.name = "f";
  spec.sensors = {"s"};
  spec.window = {WindowKind::kCount, 3, 0, Aggregate::kSum};
  StageRunner a = make_runner(spec, a_cap.sink(), accessor, scheduler);
  a.ingest("s", make_reading(1, 1.0));
  a.ingest("s", make_reading(2, 2.0));

  StageRunner b = make_runner(spec, b_cap.sink(), accessor, scheduler);
  b.adopt(a);
  EXPECT_EQ(b.counters().readings_in, 2u);
  // A replay of the predecessor's input is still a duplicate here.
  EXPECT_FALSE(b.ingest("s", make_reading(2, 2.0)));
  // The half-open window continues: one more reading closes it.
  EXPECT_TRUE(b.ingest("s", make_reading(3, 4.0)));
  ASSERT_EQ(b_cap.emissions.size(), 1u);
  EXPECT_DOUBLE_EQ(b_cap.emissions[0].second.value, 7.0);
}

// --- placement ------------------------------------------------------------------------------

FlowSpec historian_spec(double selectivity, std::size_t sensors = 1) {
  FlowSpec spec;
  spec.name = "f";
  for (std::size_t i = 0; i < sensors; ++i) {
    spec.sensors.push_back("s" + std::to_string(i));
  }
  spec.filter = "v > 0";
  spec.selectivity_hint = selectivity;
  return spec;
}

TEST(Placement, SelectiveFlowsGoEdgePassthroughGoesCentral) {
  const std::vector<NodeLoad> idle = {{"n1", 0.0, false}, {"n2", 0.1, false}};
  // 10% selectivity: emissions are a tenth of the raw rate — fusing at the
  // edge is far cheaper than shipping everything to a relay.
  const PlacementPlan selective =
      plan_placement(historian_spec(0.1), kSecond, idle);
  EXPECT_TRUE(selective.edge);
  EXPECT_LT(selective.edge_cost, selective.central_cost);

  // A pass-through flow emits everything anyway; the relay on an idle
  // backbone node is cheaper than edge compute.
  const PlacementPlan passthrough =
      plan_placement(historian_spec(1.0), kSecond, idle);
  EXPECT_FALSE(passthrough.edge);
}

TEST(Placement, ForcedModesAndMissingBackboneBypassTheModel) {
  const std::vector<NodeLoad> idle = {{"n1", 0.0, false}};
  FlowSpec spec = historian_spec(1.0);
  spec.placement = Placement::kForceEdge;
  EXPECT_TRUE(plan_placement(spec, kSecond, idle).edge);
  spec.placement = Placement::kForceCentral;
  EXPECT_FALSE(plan_placement(spec, kSecond, idle).edge);

  // No candidate node at all, or only edge-labeled ones: nowhere to relay.
  spec.placement = Placement::kAuto;
  EXPECT_TRUE(plan_placement(spec, kSecond, {}).edge);
  EXPECT_TRUE(plan_placement(spec, kSecond, {{"e", 0.0, true}}).edge);
}

TEST(Placement, TriggerSinksPreferEdge) {
  const std::vector<NodeLoad> idle = {{"n1", 0.0, false}};
  FlowSpec spec = historian_spec(1.0);
  spec.sink = SinkSpec::to_trigger([](const std::string&, const Reading&) {});
  // No emission crosses the fabric after the stages, so edge placement
  // costs the fabric nothing at all.
  const PlacementPlan plan = plan_placement(spec, kSecond, idle);
  EXPECT_TRUE(plan.edge);
  EXPECT_DOUBLE_EQ(plan.edge_bytes_per_sec, 0.0);
}

TEST(Placement, RelayScorerAvoidsEdgeLabeledNodes) {
  core::DeploymentConfig config;
  config.cybernodes = 0;
  core::Deployment lab(config);
  auto scorer = relay_node_scorer();

  rio::Cybernode busy("busy", rio::QosCapability{4.0, 4096.0, "x86_64", {}});
  rio::Cybernode idle_edge(
      "edge", rio::QosCapability{4.0, 4096.0, "x86_64", {"edge"}});
  EXPECT_GT(scorer(busy), scorer(idle_edge))
      << "an idle edge-labeled node still loses to a backbone node";
}

// --- end-to-end -----------------------------------------------------------------------------

TEST(FlowDeployment, CentralFlowStreamsFramesOverTheWire) {
  core::DeploymentConfig config;
  core::Deployment lab(config);
  auto esp = lab.add_temperature_sensor("Pine-Sensor", 22.0);
  lab.pump(kSecond);

  FlowSpec spec;
  spec.name = "hot";
  spec.sensors = {"Pine-Sensor"};
  spec.placement = Placement::kForceCentral;
  ASSERT_TRUE(lab.facade().create_flow(spec).is_ok());
  lab.pump(30 * kSecond);

  const auto stats = lab.facade().flow_stats("hot");
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().placement, "central");
  EXPECT_TRUE(stats.value().relay_deployed);
  EXPECT_GT(stats.value().frames_pushed, 0u);
  EXPECT_GT(stats.value().readings_in, 0u);
  EXPECT_GT(stats.value().sink_pushed, 0u);

  // Emissions land in the historian under the flow's own series, never the
  // raw series (which the feeder owns).
  ASSERT_NE(lab.historian(), nullptr);
  const auto series = lab.historian()->store().range(
      "hot/Pine-Sensor", 0, sensor::kEndOfTime, 100000);
  EXPECT_GT(series.points.size(), 0u);

  // Tapping record() adds no sensor reads of its own.
  ASSERT_TRUE(lab.facade().destroy_flow("hot").is_ok());
  EXPECT_EQ(esp->reading_tap_count(), 0u) << "destroy releases the tap";
  EXPECT_FALSE(lab.facade().flow_stats("hot").is_ok());
}

TEST(FlowDeployment, AutoPlacementFusesSelectiveFlowAtTheEdge) {
  core::DeploymentConfig config;
  core::Deployment lab(config);
  lab.add_temperature_sensor("Oak-Sensor", 22.0);
  lab.pump(kSecond);

  FlowSpec spec;
  spec.name = "decimate";
  spec.sensors = {"Oak-Sensor"};
  spec.window = {WindowKind::kCount, 10, 0, Aggregate::kMean};
  ASSERT_TRUE(lab.facade().create_flow(spec).is_ok());
  ASSERT_NE(lab.flow_manager(), nullptr);
  const PlacementPlan* plan = lab.flow_manager()->plan("decimate");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->edge) << plan->explanation;

  lab.pump(60 * kSecond);
  const auto stats = lab.facade().flow_stats("decimate");
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().placement, "edge");
  EXPECT_GT(stats.value().readings_in, 0u);
  EXPECT_GT(stats.value().emitted, 0u);
  // The window decimates 10:1.
  EXPECT_LE(stats.value().emitted * 9, stats.value().readings_in);
  EXPECT_EQ(stats.value().frames_pushed, 0u)
      << "edge placement ships no raw frames";
  const auto series = lab.historian()->store().range(
      "decimate/Oak-Sensor", 0, sensor::kEndOfTime, 100000);
  EXPECT_GT(series.points.size(), 0u);
}

TEST(FlowDeployment, RelayFailoverLosesNothingAndDuplicatesNothing) {
  core::DeploymentConfig config;
  config.with_historian = true;
  core::Deployment lab(config);
  auto esp = lab.add_temperature_sensor("Elm-Sensor", 22.0);

  // Create the flow before the first sample so the tap sees every reading.
  FlowSpec spec;
  spec.name = "ff";
  spec.sensors = {"Elm-Sensor"};
  spec.placement = Placement::kForceCentral;
  ASSERT_TRUE(lab.facade().create_flow(spec).is_ok());
  lab.pump(16 * kSecond);
  ASSERT_GT(lab.facade().flow_stats("ff").value().sink_pushed, 0u);

  // Kill the cybernode hosting the relay mid-stream. The dead instance's
  // endpoint stays attached (the failure mode where late frames would be
  // silently absorbed) — retirement makes it bounce them instead.
  rio::Cybernode* host = nullptr;
  for (const auto& node : lab.cybernodes()) {
    if (node->hosted_count() > 0) host = node.get();
  }
  ASSERT_NE(host, nullptr);
  host->fail();
  const auto reprovisions_before = lab.monitor().reprovision_count();

  // Ride through re-provisioning plus the stale registration's lease tail:
  // sources keep buffering/re-queuing until resolution finds the successor.
  lab.pump(90 * kSecond);
  EXPECT_GE(lab.monitor().reprovision_count(), reprovisions_before + 1);

  const auto stats = lab.facade().flow_stats("ff");
  ASSERT_TRUE(stats.is_ok());
  EXPECT_TRUE(stats.value().relay_deployed);
  EXPECT_GT(stats.value().frames_requeued, 0u)
      << "frames bounced off the retired relay and were re-queued";

  // Freeze a cutoff and pump past every batching stage so all readings up
  // to it have cleared the source and the relay's sink.
  const util::SimTime cutoff = lab.now();
  lab.pump(20 * kSecond);

  // Every reading sampled up to the cutoff made it into the flow's series
  // exactly once: same timestamps as the sensor's own log, no gaps, no
  // extras — across the kill, the hand-off and the stale-lease tail.
  const auto series = lab.historian()->store().range(
      "ff/Elm-Sensor", 0, sensor::kEndOfTime, 100000);
  std::set<util::SimTime> delivered;
  for (const auto& p : series.points) {
    if (p.timestamp <= cutoff) delivered.insert(p.timestamp);
  }
  std::set<util::SimTime> sampled;
  esp->log().for_each(0, cutoff + 1, [&](const Reading& r) {
    sampled.insert(r.timestamp);
  });
  EXPECT_GT(sampled.size(), 80u);
  EXPECT_EQ(delivered, sampled);
}

TEST(FlowDeployment, WatchRidesAFlowWithoutItsOwnReads) {
  core::DeploymentConfig config;
  config.sampling.sample_period = kSecond;
  core::Deployment lab(config);
  lab.add_temperature_sensor("Ash-Sensor", 22.0);
  lab.pump(kSecond);

  core::ThresholdWatch watch("Watch", lab.accessor(), lab.scheduler());
  watch.watch({"Ash-Sensor", 100.0, 200.0});  // ambient 22 ⇒ LOW
  watch.set_flow_fed("Ash-Sensor");

  FlowSpec spec;
  spec.name = "watchfeed";
  spec.sensors = {"Ash-Sensor"};
  spec.sink = core::watch_sink(watch);
  spec.placement = Placement::kForceEdge;
  ASSERT_TRUE(lab.facade().create_flow(spec).is_ok());

  const auto reads_before = counter("esp.reads");
  lab.pump(30 * kSecond);

  ASSERT_GE(watch.history().size(), 1u);
  EXPECT_EQ(watch.history().front().kind, core::AlarmKind::kLow);
  EXPECT_EQ(watch.active_alarm_count(), 1u);
  EXPECT_EQ(counter("esp.reads"), reads_before)
      << "push evaluation adds zero sensor reads";
  ASSERT_TRUE(lab.facade().destroy_flow("watchfeed").is_ok());
}

TEST(FlowDeployment, ListenerSinkDeliversOrderedEvents) {
  core::Deployment lab;
  lab.add_temperature_sensor("Bay-Sensor", 22.0);
  lab.pump(kSecond);

  std::vector<registry::ServiceEvent> events;
  FlowSpec spec;
  spec.name = "evt";
  spec.sensors = {"Bay-Sensor"};
  spec.window = {WindowKind::kCount, 5, 0, Aggregate::kMean};
  spec.sink = SinkSpec::to_listener(
      [&events](const registry::ServiceEvent& e) { events.push_back(e); });
  spec.placement = Placement::kForceEdge;
  ASSERT_TRUE(lab.facade().create_flow(spec).is_ok());
  lab.pump(30 * kSecond);

  ASSERT_GE(events.size(), 2u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].sequence, events[i - 1].sequence);
  }
  const auto* value = events[0].item.attributes.find("value");
  ASSERT_NE(value, nullptr);
  EXPECT_TRUE(std::holds_alternative<double>(*value));
}

TEST(FlowDeployment, ManagerRendersAndServesStatsOverExertions) {
  core::Deployment lab;
  lab.add_temperature_sensor("Fig-Sensor", 22.0);
  lab.pump(kSecond);

  FlowSpec spec;
  spec.name = "render";
  spec.sensors = {"Fig-Sensor"};
  ASSERT_TRUE(lab.facade().create_flow(spec).is_ok());
  lab.pump(10 * kSecond);

  ASSERT_EQ(lab.facade().list_flows().size(), 1u);
  const std::string table = lab.flow_manager()->render_flows();
  EXPECT_NE(table.find("render"), std::string::npos);

  // flowStats is a service operation like any other: exert it.
  auto task = sorcer::Task::make(
      "t", sorcer::Signature{kFlowManagerType, op::kFlowStats, ""});
  task->context().put(path::kFlow, std::string("render"),
                      sorcer::PathDirection::kIn);
  (void)sorcer::exert(task, lab.accessor());
  ASSERT_EQ(task->status(), sorcer::ExertStatus::kDone);
  EXPECT_EQ(task->context().get_string(path::kPlacement).value_or(""),
            lab.facade().flow_stats("render").value().placement);
  auto in = task->context().get(path::kReadingsIn);
  ASSERT_TRUE(in.is_ok());
  EXPECT_GT(std::get<std::int64_t>(in.value()), 0);
}

}  // namespace
}  // namespace sensorcer::flow
