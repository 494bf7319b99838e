#include "core/elementary_provider.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace sensorcer::core {

namespace {

struct EspMetrics {
  obs::Counter& samples;
  obs::Counter& reads;
  obs::Counter& probe_failures;
};

EspMetrics& esp_metrics() {
  static EspMetrics m{obs::metrics().counter("esp.samples"),
                      obs::metrics().counter("esp.reads"),
                      obs::metrics().counter("esp.probe_failures")};
  return m;
}

}  // namespace

const char* sensor_service_kind_name(SensorServiceKind kind) {
  switch (kind) {
    case SensorServiceKind::kElementary: return "ELEMENTARY";
    case SensorServiceKind::kComposite: return "COMPOSITE";
  }
  return "?";
}

ElementarySensorProvider::ElementarySensorProvider(std::string name,
                                                   sensor::ProbePtr probe,
                                                   util::Scheduler& scheduler,
                                                   SamplingPolicy policy)
    : ServiceProvider(std::move(name),
                      {kSensorDataAccessorType, kElementaryServiceType}),
      probe_(std::move(probe)),
      scheduler_(scheduler),
      policy_(policy),
      log_(policy.log_capacity) {
  (void)probe_->connect();

  registry::Entry attrs;
  attrs.set(registry::attr::kServiceType,
            std::string(sensor_service_kind_name(SensorServiceKind::kElementary)));
  attrs.set(registry::attr::kSensorKind,
            std::string(sensor::sensor_kind_name(probe_->teds().kind)));
  attrs.set(registry::attr::kUnit,
            std::string(sensor::sensor_kind_unit(probe_->teds().kind)));
  set_attributes(attrs);

  install_operations();

  if (policy_.sample_period > 0) {
    sample_timer_ = scheduler_.schedule_every(policy_.sample_period,
                                              [this] { sample_once(); });
  }
}

ElementarySensorProvider::~ElementarySensorProvider() {
  scheduler_.cancel(sample_timer_);
  probe_->disconnect();
}

void ElementarySensorProvider::set_location(const std::string& location) {
  location_ = location;
  registry::Entry attrs = attributes();
  attrs.set(registry::attr::kLocation, location);
  set_attributes(attrs);
}

void ElementarySensorProvider::record(const sensor::Reading& reading) {
  // A crashed process records nothing: a zombie instance (its registration
  // lingering until the lease lapses) serving one last read must not grow a
  // log its replacement already adopted, or tap/push readings nobody owns.
  if (crashed()) return;
  log_.append(reading);
  if (feeder_) feeder_->offer(reading);
  for (const auto& [id, tap] : taps_) tap(reading);
}

std::uint64_t ElementarySensorProvider::add_reading_tap(
    std::function<void(const sensor::Reading&)> tap) {
  const std::uint64_t id = next_tap_id_++;
  taps_.emplace_back(id, std::move(tap));
  return id;
}

void ElementarySensorProvider::remove_reading_tap(std::uint64_t id) {
  std::erase_if(taps_, [id](const auto& t) { return t.first == id; });
}

void ElementarySensorProvider::sample_once() {
  esp_metrics().samples.add(1);
  auto reading = probe_->read(scheduler_.now());
  if (reading.is_ok()) record(reading.value());
}

hist::HistorianFeeder& ElementarySensorProvider::enable_history(
    hist::FeederHub& hub) {
  if (!feeder_) {
    feeder_ = std::make_unique<hist::HistorianFeeder>(provider_name(), hub);
  }
  return *feeder_;
}

void ElementarySensorProvider::on_crashed() {
  scheduler_.cancel(sample_timer_);
  sample_timer_ = 0;
  if (feeder_) feeder_->unbind();
}

void ElementarySensorProvider::assume_state_from(
    sorcer::ServiceProvider& predecessor) {
  auto* esp = dynamic_cast<ElementarySensorProvider*>(&predecessor);
  if (esp == nullptr) return;
  // Adopt the surviving log (newer than anything we sampled so far).
  esp->log().for_each(0, sensor::kEndOfTime,
                      [this](const sensor::Reading& r) { log_.append(r); });
  // Un-pushed readings of the dead instance would be lost; replaying the
  // whole adopted log covers them (historian-side dedup drops the rest).
  if (feeder_) feeder_->backfill(log_);
}

util::Result<sensor::Reading> ElementarySensorProvider::get_reading() {
  esp_metrics().reads.add(1);
  // Probe spans only under an active trace: the periodic sampling timer
  // would otherwise flood the collector with uncorrelated spans.
  obs::Span span;
  if (obs::current_context().valid()) {
    span = obs::tracer().start_span({"probe:", provider_name()});
  }
  auto reading = probe_->read(scheduler_.now());
  if (!reading.is_ok()) {
    esp_metrics().probe_failures.add(1);
    span.set_ok(false);
    // Device trouble: fall back to the local store if it has anything —
    // the log is exactly what lets a service answer while the device blips.
    if (!log_.empty()) {
      sensor::Reading stale = log_.latest();
      stale.quality = sensor::Quality::kSuspect;
      return stale;
    }
    return reading.status();
  }
  record(reading.value());
  return reading;
}

util::Result<double> ElementarySensorProvider::get_value() {
  auto reading = get_reading();
  if (!reading.is_ok()) return reading.status();
  return reading.value().value;
}

SensorInfo ElementarySensorProvider::info() const {
  SensorInfo out;
  out.name = provider_name();
  out.kind = SensorServiceKind::kElementary;
  out.id = service_id();
  out.measurement = sensor::sensor_kind_name(probe_->teds().kind);
  out.unit = sensor::sensor_kind_unit(probe_->teds().kind);
  out.location = location_;
  return out;
}

void ElementarySensorProvider::install_operations() {
  add_operation(
      op::kGetValue,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        auto reading = get_reading();
        if (!reading.is_ok()) return reading.status();
        ctx.put(path::kValue, reading.value().value,
                sorcer::PathDirection::kOut);
        ctx.put(path::kTimestamp,
                static_cast<std::int64_t>(reading.value().timestamp),
                sorcer::PathDirection::kOut);
        ctx.put(path::kQuality,
                std::string(sensor::quality_name(reading.value().quality)),
                sorcer::PathDirection::kOut);
        ctx.put(path::kUnit,
                std::string(sensor::sensor_kind_unit(probe_->teds().kind)),
                sorcer::PathDirection::kOut);
        return util::Status::ok();
      },
      500 * util::kMicrosecond);

  add_operation(
      op::kGetLog,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        util::SimTime since = 0;
        if (ctx.has(path::kLogSince)) {
          auto s = ctx.get_double(path::kLogSince);
          if (s.is_ok()) since = static_cast<util::SimTime>(s.value());
        }
        std::vector<double> values;
        for (const auto& r : log_.window(since)) values.push_back(r.value);
        ctx.put(path::kLogValues, std::move(values),
                sorcer::PathDirection::kOut);
        return util::Status::ok();
      },
      2 * util::kMillisecond);

  add_operation(
      op::kGetInfo,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        const SensorInfo i = info();
        ctx.put(path::kInfoName, i.name, sorcer::PathDirection::kOut);
        ctx.put(path::kInfoKind,
                std::string(sensor_service_kind_name(i.kind)),
                sorcer::PathDirection::kOut);
        ctx.put(path::kInfoMeasurement, i.measurement,
                sorcer::PathDirection::kOut);
        return util::Status::ok();
      },
      200 * util::kMicrosecond);
}

}  // namespace sensorcer::core
