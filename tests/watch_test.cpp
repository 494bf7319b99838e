// Tests for the ThresholdWatch remote-status service and the browser's
// Entry Value pane.

#include <gtest/gtest.h>

#include "core/deployment.h"
#include "core/threshold_watch.h"

namespace sensorcer::core {
namespace {

using util::kSecond;

class WatchTest : public ::testing::Test {
 protected:
  WatchTest() {
    // Zero-noise sensor so band crossings are fully controlled by faults.
    sensor::SignalModel model;
    model.base = 20.0;
    model.amplitude = 0.0;
    model.noise_stddev = 0.0;
    sensor::Teds teds{sensor::SensorKind::kTemperature, "t", "m", "1",
                      -100, 200, 0.1, 0};
    esp = lab.add_sensor("Steady",
                         std::make_unique<sensor::SimulatedProbe>(
                             sensor::SimulatedDevice{teds, model, 1}));
    watch = std::make_shared<ThresholdWatch>("Watch", lab.accessor(),
                                             lab.scheduler(), kSecond);
    watch->attach_network(lab.network());
    for (const auto& lus : lab.lookups()) {
      (void)watch->join(lus, lab.lease_renewal(), 3600 * kSecond);
    }
  }

  sensor::SimulatedDevice& device() {
    return dynamic_cast<sensor::SimulatedProbe&>(esp->probe()).device();
  }

  Deployment lab;
  std::shared_ptr<ElementarySensorProvider> esp;
  std::shared_ptr<ThresholdWatch> watch;
};

TEST_F(WatchTest, InBandSensorRaisesNothing) {
  watch->watch({"Steady", 15.0, 25.0});
  lab.pump(10 * kSecond);
  EXPECT_TRUE(watch->history().empty());
  EXPECT_EQ(watch->active_alarm_count(), 0u);
}

TEST_F(WatchTest, HighExcursionAlarmsOnceAndRecovers) {
  watch->watch({"Steady", 15.0, 25.0});
  device().inject_fault(sensor::FaultMode::kBias, 10.0);  // 30.0 > 25
  lab.pump(5 * kSecond);  // several polls, one transition
  ASSERT_EQ(watch->history().size(), 1u);
  EXPECT_EQ(watch->history()[0].kind, AlarmKind::kHigh);
  EXPECT_NEAR(watch->history()[0].value, 30.0, 1e-9);
  EXPECT_EQ(watch->active_alarm_count(), 1u);

  device().clear_fault();
  lab.pump(2 * kSecond);
  ASSERT_EQ(watch->history().size(), 2u);
  EXPECT_EQ(watch->history()[1].kind, AlarmKind::kRecovered);
  EXPECT_EQ(watch->active_alarm_count(), 0u);
}

TEST_F(WatchTest, LowExcursionAlarm) {
  watch->watch({"Steady", 21.0, 25.0});  // 20.0 is already below the band
  lab.pump(2 * kSecond);
  ASSERT_FALSE(watch->history().empty());
  EXPECT_EQ(watch->history()[0].kind, AlarmKind::kLow);
}

TEST_F(WatchTest, UnreachableServiceAlarms) {
  watch->watch({"Steady", 15.0, 25.0});
  lab.pump(2 * kSecond);
  ASSERT_TRUE(lab.manager().remove_service("Steady").is_ok());
  lab.pump(3 * kSecond);
  ASSERT_FALSE(watch->history().empty());
  EXPECT_EQ(watch->history().back().kind, AlarmKind::kUnreachable);
  EXPECT_EQ(watch->active_alarm_count(), 1u);
}

TEST_F(WatchTest, ListenerReceivesAlarms) {
  std::vector<Alarm> delivered;
  watch->set_listener([&](const Alarm& a) { delivered.push_back(a); });
  watch->watch({"Steady", 15.0, 25.0});
  device().inject_fault(sensor::FaultMode::kBias, -10.0);  // 10 < 15
  lab.pump(2 * kSecond);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].kind, AlarmKind::kLow);
  EXPECT_EQ(delivered[0].sensor, "Steady");
}

TEST_F(WatchTest, UnwatchStopsAlarms) {
  watch->watch({"Steady", 15.0, 25.0});
  watch->unwatch("Steady");
  device().inject_fault(sensor::FaultMode::kBias, 100.0);
  lab.pump(5 * kSecond);
  EXPECT_TRUE(watch->history().empty());
  EXPECT_EQ(watch->watched_count(), 0u);
}

TEST_F(WatchTest, HistoryIsBounded) {
  auto tiny = std::make_shared<ThresholdWatch>("Tiny", lab.accessor(),
                                               lab.scheduler(), kSecond, 3);
  tiny->watch({"Steady", 15.0, 25.0});
  for (int i = 0; i < 5; ++i) {
    device().inject_fault(sensor::FaultMode::kBias, 50.0);
    tiny->poll_once();
    device().clear_fault();
    tiny->poll_once();
  }
  EXPECT_EQ(tiny->history().size(), 3u);
}

TEST_F(WatchTest, AlarmsReadableViaExertion) {
  watch->watch({"Steady", 15.0, 25.0});
  device().inject_fault(sensor::FaultMode::kBias, 10.0);
  lab.pump(2 * kSecond);

  auto task = sorcer::Task::make(
      "t", sorcer::Signature{"ThresholdWatch", "getAlarms", "Watch"});
  (void)sorcer::exert(task, lab.accessor());
  ASSERT_EQ(task->status(), sorcer::ExertStatus::kDone);
  EXPECT_GE(task->context().get_double("watch/alarms/count").value_or(0), 1);
  const std::string log =
      task->context().get_string("watch/alarms/log").value_or("");
  EXPECT_NE(log.find("HIGH"), std::string::npos);
}

TEST_F(WatchTest, AlarmToStringMentionsKind) {
  Alarm alarm{3 * kSecond, "S", AlarmKind::kHigh, 31.5};
  EXPECT_NE(alarm.to_string().find("HIGH"), std::string::npos);
  EXPECT_NE(alarm.to_string().find("31.5"), std::string::npos);
  Alarm unreachable{0, "S", AlarmKind::kUnreachable, 0};
  EXPECT_EQ(unreachable.to_string().find("value"), std::string::npos);
}

// --- browser Entry Value pane -----------------------------------------------------

TEST(BrowserEntries, SelectionShowsRegistryAttributes) {
  Deployment lab;
  lab.add_temperature_sensor("Neem-Sensor", 21.5, "CP TTU/310");
  SensorBrowser& browser = lab.browser();
  ASSERT_TRUE(browser.select("Neem-Sensor").is_ok());
  const std::string pane = browser.render_entries();
  EXPECT_NE(pane.find("name"), std::string::npos);
  EXPECT_NE(pane.find("Neem-Sensor"), std::string::npos);
  EXPECT_NE(pane.find("sensorKind"), std::string::npos);
  EXPECT_NE(pane.find("temperature"), std::string::npos);
  EXPECT_NE(pane.find("location"), std::string::npos);
  EXPECT_NE(pane.find("CP TTU/310"), std::string::npos);
  EXPECT_NE(pane.find("serviceType"), std::string::npos);
}

TEST(BrowserEntries, NoSelectionShowsNone) {
  Deployment lab;
  EXPECT_NE(lab.browser().render_entries().find("(none)"),
            std::string::npos);
}

TEST(BrowserEntries, FullRenderIncludesEntriesPane) {
  Deployment lab;
  lab.add_temperature_sensor("S");
  lab.browser().refresh();
  ASSERT_TRUE(lab.browser().select("S").is_ok());
  lab.browser().read_values();
  EXPECT_NE(lab.browser().render().find("Entry Value"), std::string::npos);
}

}  // namespace
}  // namespace sensorcer::core
