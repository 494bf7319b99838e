#pragma once
// Elementary Sensor Provider (ESP) — "the basic building block of this
// framework" (§V.B). Wraps one sensor probe, samples it on a schedule into
// a local DataLog (the data-flow-reversal buffer of §II), and serves values
// through both the SensorDataAccessor interface and exertion operations.

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/interfaces.h"
#include "hist/feeder.h"
#include "sensor/data_log.h"
#include "sensor/probe.h"
#include "sorcer/provider.h"
#include "util/scheduler.h"

namespace sensorcer::core {

/// ESP sampling configuration.
struct SamplingPolicy {
  /// Period of autonomous probe sampling into the log; 0 disables
  /// background sampling (values then come from on-demand reads only).
  util::SimDuration sample_period = 1 * util::kSecond;
  std::size_t log_capacity = 1024;
};

class ElementarySensorProvider : public sorcer::ServiceProvider,
                                 public SensorDataAccessor {
 public:
  /// Takes ownership of the probe and connects it. Background sampling
  /// starts immediately when the policy enables it.
  ElementarySensorProvider(std::string name, sensor::ProbePtr probe,
                           util::Scheduler& scheduler,
                           SamplingPolicy policy = {});

  ~ElementarySensorProvider() override;

  // --- SensorDataAccessor -----------------------------------------------------

  util::Result<double> get_value() override;
  util::Result<sensor::Reading> get_reading() override;
  [[nodiscard]] SensorInfo info() const override;

  // --- local store --------------------------------------------------------------

  [[nodiscard]] const sensor::DataLog& log() const { return log_; }

  /// Take one sample into the log right now (also used by the timer).
  void sample_once();

  /// The probe (fault injection in tests/examples).
  sensor::SensorProbe& probe() { return *probe_; }

  void set_location(const std::string& location);

  // --- historian push ------------------------------------------------------------

  /// Start pushing every logged reading at the deployment's historian:
  /// the feeder joins `hub`, whose flushes batch the whole fleet's readings
  /// into appendBatch exertions and start/stop with the historian's
  /// registration.
  hist::HistorianFeeder& enable_history(hist::FeederHub& hub);

  /// The push feeder, or null when history is not enabled.
  [[nodiscard]] hist::HistorianFeeder* history_feeder() {
    return feeder_.get();
  }

  // --- reading taps --------------------------------------------------------------

  /// Observe every reading this provider records (sampled or read on
  /// demand), at the single ingest point the feeder already hangs off —
  /// consumers like flows ride the sampling loop instead of issuing reads
  /// of their own. Returns an id for remove_reading_tap.
  std::uint64_t add_reading_tap(
      std::function<void(const sensor::Reading&)> tap);
  void remove_reading_tap(std::uint64_t id);
  [[nodiscard]] std::size_t reading_tap_count() const { return taps_.size(); }

  /// Failover: adopt the predecessor ESP's surviving DataLog and replay it
  /// at the historian (idempotent — the historian dedups timestamps), so a
  /// re-provisioned sensor leaves no gap in recorded history.
  void assume_state_from(sorcer::ServiceProvider& predecessor) override;

 protected:
  /// A crashed ESP's process is gone: stop the sampling timer and the
  /// historian push so the zombie (alive in memory until its registrations
  /// lapse) cannot keep recording or double-pushing readings.
  void on_crashed() override;

 private:
  void install_operations();

  /// Single ingest point: append to the local log and offer to the feeder.
  void record(const sensor::Reading& reading);

  sensor::ProbePtr probe_;
  util::Scheduler& scheduler_;
  SamplingPolicy policy_;
  sensor::DataLog log_;
  util::TimerId sample_timer_ = 0;
  std::string location_;
  std::unique_ptr<hist::HistorianFeeder> feeder_;
  std::vector<
      std::pair<std::uint64_t, std::function<void(const sensor::Reading&)>>>
      taps_;
  std::uint64_t next_tap_id_ = 1;
};

}  // namespace sensorcer::core
