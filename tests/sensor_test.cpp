// Unit tests for the sensor substrate: devices, faults, calibration, probes,
// TEDS, and the DataLog local store.

#include <gtest/gtest.h>

#include <deque>

#include "sensor/data_log.h"
#include "sensor/probe.h"
#include "util/stats.h"

namespace sensorcer::sensor {
namespace {

// --- calibration -------------------------------------------------------------------

TEST(Calibration, DefaultIsIdentity) {
  Calibration cal;
  EXPECT_DOUBLE_EQ(cal.apply(3.7), 3.7);
  EXPECT_DOUBLE_EQ(cal.apply(-12.0), -12.0);
}

TEST(Calibration, LinearOffsetAndGain) {
  auto cal = Calibration::linear(32.0, 1.8);  // Celsius to Fahrenheit
  EXPECT_DOUBLE_EQ(cal.apply(0.0), 32.0);
  EXPECT_DOUBLE_EQ(cal.apply(100.0), 212.0);
}

TEST(Calibration, PolynomialHorner) {
  Calibration cal({1.0, 2.0, 3.0});  // 1 + 2x + 3x^2
  EXPECT_DOUBLE_EQ(cal.apply(2.0), 1 + 4 + 12);
}

TEST(Calibration, EmptyCoefficientsYieldZero) {
  Calibration cal{std::vector<double>{}};
  EXPECT_DOUBLE_EQ(cal.apply(99.0), 0.0);
}

// --- device signal model --------------------------------------------------------------

TEST(Device, TruthFollowsDiurnalCycle) {
  SignalModel model;
  model.base = 20.0;
  model.amplitude = 5.0;
  model.period = 24 * util::kHour;
  model.noise_stddev = 0.0;
  SimulatedDevice dev({}, model, 1);
  // Quarter period: sin peaks.
  EXPECT_NEAR(dev.truth(6 * util::kHour), 25.0, 1e-9);
  EXPECT_NEAR(dev.truth(18 * util::kHour), 15.0, 1e-9);
  EXPECT_NEAR(dev.truth(0), 20.0, 1e-9);
}

TEST(Device, DriftAccumulatesPerHour) {
  SignalModel model;
  model.base = 10.0;
  model.amplitude = 0.0;
  model.noise_stddev = 0.0;
  model.drift_per_hour = 0.5;
  SimulatedDevice dev({}, model, 1);
  EXPECT_NEAR(dev.truth(4 * util::kHour), 12.0, 1e-9);
}

TEST(Device, NoiseIsZeroMean) {
  SignalModel model;
  model.base = 50.0;
  model.amplitude = 0.0;
  model.noise_stddev = 0.5;
  SimulatedDevice dev({}, model, 7);
  util::StatAccumulator acc;
  for (int i = 0; i < 20000; ++i) {
    auto s = dev.sample(0);
    ASSERT_TRUE(s.is_ok());
    acc.add(s.value());
  }
  EXPECT_NEAR(acc.mean(), 50.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 0.5, 0.02);
}

TEST(Device, SamplesAreDeterministicPerSeed) {
  auto make = [] {
    SignalModel model;
    model.noise_stddev = 1.0;
    return SimulatedDevice({}, model, 99);
  };
  SimulatedDevice a = make(), b = make();
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.sample(i).value(), b.sample(i).value());
  }
}

TEST(Device, DropoutFailsUnavailable) {
  SimulatedDevice dev = make_sunspot_temperature("s1", 3);
  dev.inject_fault(FaultMode::kDropout);
  auto s = dev.sample(0);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.status().code(), util::ErrorCode::kUnavailable);
  dev.clear_fault();
  EXPECT_TRUE(dev.sample(0).is_ok());
}

TEST(Device, StuckAtFreezesLastGoodValue) {
  SimulatedDevice dev = make_sunspot_temperature("s1", 3);
  const double before = dev.sample(0).value();
  dev.inject_fault(FaultMode::kStuckAt);
  for (int i = 1; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(dev.sample(i * util::kMinute).value(), before);
  }
}

TEST(Device, BiasShiftsEverySample) {
  SignalModel model;
  model.base = 20.0;
  model.amplitude = 0.0;
  model.noise_stddev = 0.0;
  SimulatedDevice dev({}, model, 5);
  dev.inject_fault(FaultMode::kBias, 7.5);
  EXPECT_NEAR(dev.sample(0).value(), 27.5, 1e-9);
}

TEST(Device, SpikeProducesOccasionalExcursions) {
  SignalModel model;
  model.base = 0.0;
  model.amplitude = 0.0;
  model.noise_stddev = 0.0;
  SimulatedDevice dev({}, model, 21);
  dev.inject_fault(FaultMode::kSpike, 100.0);
  int spikes = 0;
  for (int i = 0; i < 1000; ++i) {
    if (std::abs(dev.sample(i).value()) > 50.0) ++spikes;
  }
  EXPECT_GT(spikes, 100);  // ~20% spike probability
  EXPECT_LT(spikes, 350);
}

TEST(Device, FaultModeNames) {
  EXPECT_STREQ(fault_mode_name(FaultMode::kNone), "none");
  EXPECT_STREQ(fault_mode_name(FaultMode::kStuckAt), "stuck-at");
  EXPECT_STREQ(fault_mode_name(FaultMode::kDropout), "dropout");
}

// --- factory presets --------------------------------------------------------------------

TEST(DevicePresets, TedsMatchesKind) {
  EXPECT_EQ(make_sunspot_temperature("t", 1).teds().kind,
            SensorKind::kTemperature);
  EXPECT_EQ(make_humidity("h", 1).teds().kind, SensorKind::kHumidity);
  EXPECT_EQ(make_pressure("p", 1).teds().kind, SensorKind::kPressure);
  EXPECT_EQ(make_soil_moisture("m", 1).teds().kind,
            SensorKind::kSoilMoisture);
  EXPECT_EQ(make_altitude("a", 1).teds().kind, SensorKind::kAltitude);
  EXPECT_EQ(make_airspeed("v", 1).teds().kind, SensorKind::kAirspeed);
}

TEST(DevicePresets, UnitsAndSummary) {
  EXPECT_STREQ(sensor_kind_unit(SensorKind::kTemperature), "degC");
  EXPECT_STREQ(sensor_kind_unit(SensorKind::kPressure), "kPa");
  const auto teds = make_sunspot_temperature("serial-9", 1).teds();
  EXPECT_NE(teds.summary().find("Sun Microsystems"), std::string::npos);
  EXPECT_NE(teds.summary().find("degC"), std::string::npos);
}

TEST(DevicePresets, ValuesStayWithinTedsRange) {
  SimulatedDevice dev = make_sunspot_temperature("t", 77, 22.0);
  for (int i = 0; i < 1000; ++i) {
    auto s = dev.sample(i * util::kMinute);
    ASSERT_TRUE(s.is_ok());
    EXPECT_GT(s.value(), dev.teds().range_min);
    EXPECT_LT(s.value(), dev.teds().range_max);
  }
}

// --- probe -------------------------------------------------------------------------------

TEST(Probe, ReadRequiresConnect) {
  SimulatedProbe probe(make_sunspot_temperature("t", 1));
  auto r = probe.read(0);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), util::ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(probe.connect().is_ok());
  EXPECT_TRUE(probe.read(0).is_ok());
  probe.disconnect();
  EXPECT_FALSE(probe.read(0).is_ok());
}

TEST(Probe, SequenceNumbersAreMonotonic) {
  SimulatedProbe probe(make_sunspot_temperature("t", 1));
  ASSERT_TRUE(probe.connect().is_ok());
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    auto r = probe.read(i);
    ASSERT_TRUE(r.is_ok());
    EXPECT_GT(r.value().sequence, last);
    last = r.value().sequence;
  }
  EXPECT_EQ(probe.read_count(), 50u);
}

TEST(Probe, CalibrationAppliesToReadings) {
  SignalModel model;
  model.base = 10.0;
  model.amplitude = 0.0;
  model.noise_stddev = 0.0;
  Teds teds;
  teds.range_min = -100;
  teds.range_max = 100;
  SimulatedProbe probe({teds, model, 1}, Calibration::linear(1.0, 2.0));
  ASSERT_TRUE(probe.connect().is_ok());
  EXPECT_NEAR(probe.read(0).value().value, 21.0, 1e-9);
  probe.set_calibration(Calibration{});
  EXPECT_NEAR(probe.read(0).value().value, 10.0, 1e-9);
}

TEST(Probe, OutOfRangeReadingFlaggedBad) {
  SignalModel model;
  model.base = 500.0;  // way above the TEDS range
  model.amplitude = 0.0;
  model.noise_stddev = 0.0;
  Teds teds;
  teds.range_min = -40;
  teds.range_max = 85;
  SimulatedProbe probe({teds, model, 1});
  ASSERT_TRUE(probe.connect().is_ok());
  EXPECT_EQ(probe.read(0).value().quality, Quality::kBad);
}

TEST(Probe, RecoveryAfterDropoutIsSuspect) {
  SimulatedProbe probe(make_sunspot_temperature("t", 5));
  ASSERT_TRUE(probe.connect().is_ok());
  EXPECT_EQ(probe.read(0).value().quality, Quality::kGood);
  probe.device().inject_fault(FaultMode::kDropout);
  EXPECT_FALSE(probe.read(1).is_ok());
  probe.device().clear_fault();
  EXPECT_EQ(probe.read(2).value().quality, Quality::kSuspect);
  EXPECT_EQ(probe.read(3).value().quality, Quality::kGood);
}

TEST(Probe, FactoriesProduceWorkingProbes) {
  for (auto& probe :
       {make_temperature_probe("a", 1), make_humidity_probe("b", 2),
        make_pressure_probe("c", 3), make_soil_moisture_probe("d", 4),
        make_altitude_probe("e", 5), make_airspeed_probe("f", 6)}) {
    ASSERT_TRUE(probe->connect().is_ok());
    EXPECT_TRUE(probe->read(0).is_ok());
  }
}

// --- data log -------------------------------------------------------------------------------

Reading make_reading(util::SimTime t, double v,
                     Quality q = Quality::kGood) {
  return Reading{t, v, q, 0};
}

TEST(DataLog, AppendAndLatest) {
  DataLog log(8);
  EXPECT_TRUE(log.empty());
  log.append(make_reading(1, 10.0));
  log.append(make_reading(2, 20.0));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log.latest().value, 20.0);
}

TEST(DataLog, EvictsOldestWhenFull) {
  DataLog log(3);
  for (int i = 0; i < 5; ++i) log.append(make_reading(i, i));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.evicted(), 2u);
  const auto all = log.snapshot();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all.front().value, 2.0);
  EXPECT_DOUBLE_EQ(all.back().value, 4.0);
}

TEST(DataLog, WindowFiltersByTimestamp) {
  DataLog log(16);
  for (int i = 0; i < 10; ++i) log.append(make_reading(i * 100, i));
  const auto window = log.window(500);
  ASSERT_EQ(window.size(), 5u);
  EXPECT_DOUBLE_EQ(window.front().value, 5.0);
}

TEST(DataLog, StatsExcludeBadReadings) {
  DataLog log(16);
  log.append(make_reading(0, 10.0));
  log.append(make_reading(1, 20.0));
  log.append(make_reading(2, 9999.0, Quality::kBad));
  const auto stats = log.stats_since(0);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean(), 15.0);
}

TEST(DataLog, ClearEmptiesButKeepsCapacity) {
  DataLog log(4);
  log.append(make_reading(0, 1.0));
  log.clear();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.capacity(), 4u);
  log.append(make_reading(1, 2.0));
  EXPECT_DOUBLE_EQ(log.latest().value, 2.0);
}

TEST(DataLog, ClearAfterPartialGrowthMatchesOracle) {
  // Slots are constructed on first write: clear a half-grown log, refill it
  // past capacity, and compare against a bounded-deque oracle throughout.
  DataLog log(8);
  std::deque<Reading> oracle;
  util::SimTime t = 0;
  const auto append = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const Reading r = make_reading(++t, static_cast<double>(t) * 0.5);
      log.append(r);
      oracle.push_back(r);
      if (oracle.size() > 8) oracle.pop_front();
    }
  };
  const auto matches = [&] {
    const auto got = log.snapshot();
    if (got.size() != oracle.size() || log.capacity() != 8) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].timestamp != oracle[i].timestamp ||
          got[i].value != oracle[i].value) {
        return false;
      }
    }
    return got.empty() || (log.latest().timestamp == oracle.back().timestamp &&
                           log.oldest().timestamp == oracle.front().timestamp);
  };

  append(3);
  EXPECT_TRUE(matches());
  log.clear();
  oracle.clear();
  EXPECT_TRUE(matches());
  append(2);  // rewrites constructed slots
  EXPECT_TRUE(matches());
  append(4);  // grows past the old high-water mark
  EXPECT_TRUE(matches());
  append(13);  // fills and wraps
  EXPECT_TRUE(matches());
  EXPECT_EQ(log.evicted(), 11u);
  EXPECT_EQ(log.first_at_or_after(oracle[3].timestamp), 3u);
  log.clear();
  oracle.clear();
  append(5);  // clear after a wrap restarts at the front
  EXPECT_TRUE(matches());
}

TEST(DataLog, FirstAtOrAfterBinarySearchMatchesLinearScan) {
  // Regression for the binary-search start index: exercise a wrapped ring
  // (head != 0) and duplicate timestamps, comparing against a linear scan.
  DataLog log(8);
  for (int i = 0; i < 12; ++i) {
    log.append(make_reading(i * 10, i));
    if (i % 3 == 0) log.append(make_reading(i * 10, i + 0.5));  // duplicate ts
  }
  const auto all = log.snapshot();
  for (util::SimTime since = -5; since <= 125; ++since) {
    std::size_t linear = all.size();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i].timestamp >= since) {
        linear = i;
        break;
      }
    }
    EXPECT_EQ(log.first_at_or_after(since), linear) << "since=" << since;
  }
}

TEST(DataLog, WindowWithUpperBound) {
  DataLog log(16);
  for (int i = 0; i < 10; ++i) log.append(make_reading(i * 100, i));
  // Half-open [300, 700): readings at 300..600.
  const auto window = log.window(300, 700);
  ASSERT_EQ(window.size(), 4u);
  EXPECT_DOUBLE_EQ(window.front().value, 3.0);
  EXPECT_DOUBLE_EQ(window.back().value, 6.0);
  EXPECT_TRUE(log.window(700, 300).empty());
  EXPECT_TRUE(log.window(5000).empty());
}

TEST(DataLog, StatsSinceWithUpperBound) {
  DataLog log(16);
  for (int i = 0; i < 10; ++i) log.append(make_reading(i, 10.0 * i));
  const auto stats = log.stats_since(2, 5);  // values 20, 30, 40
  EXPECT_EQ(stats.count(), 3u);
  EXPECT_DOUBLE_EQ(stats.min(), 20.0);
  EXPECT_DOUBLE_EQ(stats.max(), 40.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 30.0);
}

TEST(DataLog, ForEachRespectsBoundsAfterWrap) {
  DataLog log(4);
  for (int i = 0; i < 10; ++i) log.append(make_reading(i, i));
  // Retained: 6..9. Visit [7, 9).
  std::vector<util::SimTime> seen;
  log.for_each(7, 9, [&](const Reading& r) { seen.push_back(r.timestamp); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 7);
  EXPECT_EQ(seen[1], 8);
  EXPECT_EQ(log.oldest().timestamp, 6);
}

TEST(DataLog, ZeroCapacityClampsToOne) {
  DataLog log(0);
  log.append(make_reading(0, 1.0));
  log.append(make_reading(1, 2.0));
  EXPECT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log.latest().value, 2.0);
}

// --- parameterized: ring-buffer invariants under many capacities ----------------------

class DataLogCapacityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DataLogCapacityTest, SizePlusEvictedEqualsAppended) {
  const std::size_t cap = GetParam();
  DataLog log(cap);
  const std::size_t appended = 1000;
  for (std::size_t i = 0; i < appended; ++i) {
    log.append(make_reading(static_cast<util::SimTime>(i),
                            static_cast<double>(i)));
  }
  EXPECT_EQ(log.size() + log.evicted(), appended);
  EXPECT_LE(log.size(), cap);
  // Retained readings are the most recent, in order.
  const auto all = log.snapshot();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_EQ(all[i].timestamp, all[i - 1].timestamp + 1);
  }
  EXPECT_DOUBLE_EQ(all.back().value, static_cast<double>(appended - 1));
}

INSTANTIATE_TEST_SUITE_P(Capacities, DataLogCapacityTest,
                         ::testing::Values(1, 2, 3, 7, 64, 1000, 2048));

}  // namespace
}  // namespace sensorcer::sensor

namespace sensorcer::sensor {
namespace {

// --- calibration fitting --------------------------------------------------------------

TEST(CalibrationFit, TwoPointRecoversLine) {
  // Ice bath reads 2.1 counts, boiling reads 98.7: map to 0..100 degC.
  auto cal = Calibration::two_point(2.1, 0.0, 98.7, 100.0);
  ASSERT_TRUE(cal.is_ok());
  EXPECT_NEAR(cal.value().apply(2.1), 0.0, 1e-9);
  EXPECT_NEAR(cal.value().apply(98.7), 100.0, 1e-9);
  EXPECT_NEAR(cal.value().apply(50.4), 50.0, 1e-6 + 0.1);
}

TEST(CalibrationFit, TwoPointRejectsCoincidentRaw) {
  EXPECT_EQ(Calibration::two_point(5.0, 0.0, 5.0, 100.0).status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(CalibrationFit, LeastSquaresRecoversExactPolynomial) {
  // y = 2 - 3x + 0.5x^2 sampled exactly.
  Calibration truth({2.0, -3.0, 0.5});
  std::vector<std::pair<double, double>> points;
  for (double x : {-4.0, -1.0, 0.0, 2.0, 3.5, 7.0}) {
    points.emplace_back(x, truth.apply(x));
  }
  auto fit = Calibration::fit_least_squares(points, 2);
  ASSERT_TRUE(fit.is_ok());
  ASSERT_EQ(fit.value().coefficients().size(), 3u);
  EXPECT_NEAR(fit.value().coefficients()[0], 2.0, 1e-9);
  EXPECT_NEAR(fit.value().coefficients()[1], -3.0, 1e-9);
  EXPECT_NEAR(fit.value().coefficients()[2], 0.5, 1e-9);
  EXPECT_NEAR(fit.value().rms_error(points), 0.0, 1e-9);
}

TEST(CalibrationFit, LeastSquaresSmoothsNoise) {
  util::Rng rng(31);
  std::vector<std::pair<double, double>> points;
  for (int i = 0; i <= 100; ++i) {
    const double x = static_cast<double>(i) / 10.0;
    points.emplace_back(x, 1.0 + 2.0 * x + rng.gaussian(0.0, 0.05));
  }
  auto fit = Calibration::fit_least_squares(points, 1);
  ASSERT_TRUE(fit.is_ok());
  EXPECT_NEAR(fit.value().coefficients()[0], 1.0, 0.05);
  EXPECT_NEAR(fit.value().coefficients()[1], 2.0, 0.02);
  EXPECT_LT(fit.value().rms_error(points), 0.08);
}

TEST(CalibrationFit, TooFewPointsRejected) {
  std::vector<std::pair<double, double>> points{{0, 0}, {1, 1}};
  EXPECT_EQ(Calibration::fit_least_squares(points, 2).status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(CalibrationFit, DegeneratePointsRejected) {
  // All at the same raw value: singular normal equations for degree 1.
  std::vector<std::pair<double, double>> points{{3, 1}, {3, 2}, {3, 3}};
  EXPECT_EQ(Calibration::fit_least_squares(points, 1).status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(CalibrationFit, FittedCalibrationWorksOnProbe) {
  // Calibrate a biased device against reference points, then verify the
  // probe reports corrected values.
  SignalModel model;
  model.base = 20.0;
  model.amplitude = 0.0;
  model.noise_stddev = 0.0;
  Teds teds;
  teds.range_min = -100;
  teds.range_max = 200;
  // Device reports 2x + 5 of the physical value; invert with a fit.
  auto cal = Calibration::fit_least_squares(
      {{5.0, 0.0}, {25.0, 10.0}, {45.0, 20.0}}, 1);
  ASSERT_TRUE(cal.is_ok());
  SimulatedProbe probe({teds, model, 1}, cal.value());
  ASSERT_TRUE(probe.connect().is_ok());
  // Raw sample is 20.0 -> calibrated (20-5)/2 = 7.5.
  EXPECT_NEAR(probe.read(0).value().value, 7.5, 1e-9);
}

}  // namespace
}  // namespace sensorcer::sensor
