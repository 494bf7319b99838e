#include "core/facade.h"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sorcer/exert.h"
#include "util/strings.h"

namespace sensorcer::core {

namespace {

struct FacadeMetrics {
  obs::Counter& requests;
  obs::Counter& tasks_built;
};

FacadeMetrics& facade_metrics() {
  static FacadeMetrics m{obs::metrics().counter("facade.requests"),
                         obs::metrics().counter("facade.tasks_built")};
  return m;
}

/// Idle request shells kept between requests: a 64-sensor page holds 64,
/// and the fabric keeps 256 spare wire buffers by the same rule.
constexpr std::size_t kMaxIdleTasks = 256;

/// `n` in decimal, written into a stack buffer: a span-name part that
/// allocates nothing.
class Decimal {
 public:
  explicit Decimal(std::size_t n)
      : end_(std::to_chars(digits_, digits_ + sizeof digits_, n).ptr) {}
  operator std::string_view() const {
    return {digits_, static_cast<std::size_t>(end_ - digits_)};
  }

 private:
  char digits_[20]{};  // a 64-bit count has at most 20 digits
  char* end_;
};

/// The value a done read task carries, else the task's error.
util::Result<double> read_result(const sorcer::Task& task) {
  if (task.status() != sorcer::ExertStatus::kDone) return task.error();
  return task.context().get_double(path::kValue);
}

std::int64_t int_or(const sorcer::ServiceContext& ctx, const char* path,
                    std::int64_t fallback = 0) {
  const sorcer::ContextValue* v = ctx.find(path);
  if (v == nullptr) return fallback;
  if (const auto* i = std::get_if<std::int64_t>(v)) return *i;
  if (const auto* d = std::get_if<double>(v)) {
    return static_cast<std::int64_t>(*d);
  }
  return fallback;
}

/// The aggregate a done historian stats task carries, else its error.
util::Result<hist::StatsResult> stats_result(const sorcer::Task& task,
                                             util::SimTime from,
                                             util::SimTime to) {
  if (task.status() != sorcer::ExertStatus::kDone) return task.error();
  const sorcer::ServiceContext& ctx = task.context();
  hist::StatsResult out;
  out.stats.count = static_cast<std::uint64_t>(int_or(ctx, path::kHistCount));
  out.stats.min = ctx.get_double(path::kHistMin).value_or(0.0);
  out.stats.max = ctx.get_double(path::kHistMax).value_or(0.0);
  out.stats.sum = ctx.get_double(path::kHistSum).value_or(0.0);
  out.stats.last = ctx.get_double(path::kHistLast).value_or(0.0);
  out.from_effective = int_or(ctx, path::kHistFromEffective, from);
  out.to_effective = int_or(ctx, path::kHistToEffective, to);
  out.source = ctx.peek_string(path::kHistSource).value_or("");
  out.resolution = int_or(ctx, path::kHistResolution);
  return out;
}

/// The series a done historian task carries, else the task's error.
util::Result<hist::SeriesResult> series_result(const sorcer::Task& task) {
  if (task.status() != sorcer::ExertStatus::kDone) return task.error();
  const sorcer::ServiceContext& ctx = task.context();
  hist::SeriesResult out;
  // Borrow the reply columns in place instead of copying both series out of
  // the context (`ctx` is not mutated while the borrows live).
  const auto* timestamps = ctx.peek_series(path::kHistTimestamps);
  const auto* values = ctx.peek_series(path::kHistValues);
  if (timestamps != nullptr && values != nullptr) {
    const std::size_t n = std::min(timestamps->size(), values->size());
    out.points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.points.push_back(
          {static_cast<util::SimTime>((*timestamps)[i]), (*values)[i]});
    }
  }
  out.source = ctx.peek_string(path::kHistSource).value_or("");
  if (const sorcer::ContextValue* t = ctx.find(path::kHistTruncated)) {
    if (const auto* b = std::get_if<bool>(t)) out.truncated = *b;
  }
  return out;
}

}  // namespace

SensorcerFacade::SensorcerFacade(std::string name,
                                 sorcer::ServiceAccessor& accessor,
                                 SensorNetworkManager& manager,
                                 SensorServiceProvisioner* provisioner)
    : ServiceProvider(std::move(name), {kFacadeType}),
      accessor_(accessor),
      manager_(manager),
      provisioner_(provisioner) {
  registry::Entry attrs;
  attrs.set(registry::attr::kComment, "SenSORCER Facade");
  set_attributes(attrs);
}

std::shared_ptr<sorcer::Task> SensorcerFacade::take_task() {
  std::shared_ptr<sorcer::Task> task;
  {
    std::lock_guard lock(idle_mu_);
    if (!idle_tasks_.empty()) {
      task = std::move(idle_tasks_.back());
      idle_tasks_.pop_back();
    }
  }
  if (!task) {
    facade_metrics().tasks_built.add(1);
    return sorcer::Task::make({}, {});
  }
  task->renew();
  return task;
}

std::shared_ptr<sorcer::Task> SensorcerFacade::read_task(
    std::string_view name) {
  std::shared_ptr<sorcer::Task> task = take_task();
  task->rename({"facade.read:", name});
  task->resign(kSensorDataAccessorType, op::kGetValue, name);
  return task;
}

std::shared_ptr<sorcer::Task> SensorcerFacade::hist_task(
    const char* selector, const std::string& sensor, util::SimTime from,
    util::SimTime to, std::int64_t extra, const char* extra_path) {
  std::shared_ptr<sorcer::Task> task = take_task();
  task->rename({"facade.hist:", sensor});
  task->resign(kDataCollectionType, selector, "");
  sorcer::ServiceContext& ctx = task->context();
  ctx.put(path::kHistSensor, sensor, sorcer::PathDirection::kIn);
  ctx.put(path::kHistFrom, static_cast<std::int64_t>(from),
          sorcer::PathDirection::kIn);
  ctx.put(path::kHistTo, static_cast<std::int64_t>(to),
          sorcer::PathDirection::kIn);
  ctx.put(extra_path, extra, sorcer::PathDirection::kIn);
  return task;
}

void SensorcerFacade::give_back(std::shared_ptr<sorcer::Task> task) {
  // A request still parked on the fabric (its call timed out) holds the
  // task, and the provider that runs it late writes into it: only a task
  // the façade holds alone may serve another request.
  if (task.use_count() != 1) return;
  // A shell that carried a huge answer is let go rather than kept at that
  // size.
  for (const char* column : {path::kHistTimestamps, path::kHistValues}) {
    const std::vector<double>* kept = task->context().peek_series(column);
    if (kept != nullptr && kept->capacity() > hist::kMaxKeptPoints) return;
  }
  std::lock_guard lock(idle_mu_);
  if (idle_tasks_.size() < kMaxIdleTasks) {
    idle_tasks_.push_back(std::move(task));
  }
}

std::vector<SensorInfo> SensorcerFacade::get_sensor_list() {
  return manager_.list_services();
}

util::Result<double> SensorcerFacade::get_value(
    const std::string& service_name) {
  facade_metrics().requests.add(1);
  // Root span for the whole request: the exertion and the probe reads it
  // triggers all nest below this context.
  obs::Span span =
      obs::tracer().start_span({"facade.getValue:", service_name});
  obs::ContextGuard guard(span.context());
  // Facade reads are service-to-service calls like any other: a task
  // exertion routed through the invocation pipeline, so they really cross
  // the fabric instead of short-circuiting into the provider object.
  std::shared_ptr<sorcer::Task> task = read_task(service_name);
  (void)sorcer::exert(task, accessor_);
  util::Result<double> value = read_result(*task);
  give_back(std::move(task));
  span.set_ok(value.is_ok());
  return value;
}

std::vector<util::Result<double>> SensorcerFacade::get_values(
    const std::vector<std::string>& service_names) {
  facade_metrics().requests.add(1);
  obs::Span span = obs::tracer().start_span(
      {"facade.getValues[", Decimal(service_names.size()), "]"});
  obs::ContextGuard guard(span.context());
  std::vector<sorcer::ExertionPtr> batch;
  batch.reserve(service_names.size());
  for (const std::string& name : service_names) {
    batch.push_back(read_task(name));
  }
  (void)sorcer::exert_all(batch, accessor_);
  std::vector<util::Result<double>> out;
  out.reserve(batch.size());
  bool all_ok = true;
  for (const auto& task : batch) {
    out.push_back(read_result(static_cast<const sorcer::Task&>(*task)));
    all_ok = all_ok && out.back().is_ok();
  }
  for (sorcer::ExertionPtr& done : batch) {
    give_back(std::static_pointer_cast<sorcer::Task>(std::move(done)));
  }
  span.set_ok(all_ok);
  return out;
}

std::shared_ptr<sorcer::Task> SensorcerFacade::exert_hist_query(
    const char* selector, const std::string& sensor, util::SimTime from,
    util::SimTime to, std::int64_t extra, const char* extra_path) {
  facade_metrics().requests.add(1);
  obs::Span span =
      obs::tracer().start_span({"facade.", selector, ":", sensor});
  obs::ContextGuard guard(span.context());
  std::shared_ptr<sorcer::Task> task =
      hist_task(selector, sensor, from, to, extra, extra_path);
  (void)sorcer::exert(task, accessor_);
  if (task->status() != sorcer::ExertStatus::kDone) span.set_ok(false);
  return task;
}

util::Result<hist::StatsResult> SensorcerFacade::query_stats(
    const std::string& sensor, util::SimTime from, util::SimTime to,
    util::SimDuration max_resolution) {
  std::shared_ptr<sorcer::Task> task = exert_hist_query(
      op::kHistStats, sensor, from, to,
      static_cast<std::int64_t>(max_resolution), path::kHistResolution);
  util::Result<hist::StatsResult> result = stats_result(*task, from, to);
  give_back(std::move(task));
  return result;
}

util::Result<hist::SeriesResult> SensorcerFacade::query_range(
    const std::string& sensor, util::SimTime from, util::SimTime to,
    std::size_t max_points) {
  std::shared_ptr<sorcer::Task> task = exert_hist_query(
      op::kHistRange, sensor, from, to,
      static_cast<std::int64_t>(max_points), path::kHistPoints);
  util::Result<hist::SeriesResult> result = series_result(*task);
  give_back(std::move(task));
  return result;
}

util::Result<hist::SeriesResult> SensorcerFacade::query_downsample(
    const std::string& sensor, util::SimTime from, util::SimTime to,
    std::size_t points) {
  std::shared_ptr<sorcer::Task> task = exert_hist_query(
      op::kHistDownsample, sensor, from, to,
      static_cast<std::int64_t>(points), path::kHistPoints);
  util::Result<hist::SeriesResult> result = series_result(*task);
  give_back(std::move(task));
  return result;
}

std::vector<util::Result<hist::SeriesResult>>
SensorcerFacade::query_downsample_many(const std::vector<std::string>& sensors,
                                       util::SimTime from, util::SimTime to,
                                       std::size_t points) {
  facade_metrics().requests.add(1);
  obs::Span span = obs::tracer().start_span(
      {"facade.histDownsampleMany[", Decimal(sensors.size()), "]"});
  obs::ContextGuard guard(span.context());
  std::vector<sorcer::ExertionPtr> batch;
  batch.reserve(sensors.size());
  for (const std::string& sensor : sensors) {
    batch.push_back(hist_task(op::kHistDownsample, sensor, from, to,
                              static_cast<std::int64_t>(points),
                              path::kHistPoints));
  }
  (void)sorcer::exert_all(batch, accessor_);
  std::vector<util::Result<hist::SeriesResult>> out;
  out.reserve(batch.size());
  bool all_ok = true;
  for (const auto& task : batch) {
    out.push_back(series_result(static_cast<const sorcer::Task&>(*task)));
    all_ok = all_ok && out.back().is_ok();
  }
  for (sorcer::ExertionPtr& done : batch) {
    give_back(std::static_pointer_cast<sorcer::Task>(std::move(done)));
  }
  span.set_ok(all_ok);
  return out;
}

util::Status SensorcerFacade::compose_service(
    const std::string& composite, const std::vector<std::string>& children) {
  util::Status composed = manager_.compose(composite, children);
  if (composed.is_ok() && provisioner_ != nullptr) {
    // A CSP needs its components: record required edges so the monitor
    // cascade-restarts the composite when a re-provisioned child comes back
    // under the same name (the CSP re-resolves components by name).
    for (const std::string& child : children) {
      (void)provisioner_->declare_dependency(composite, child,
                                             rio::DependencyKind::kRequired);
    }
  }
  return composed;
}

util::Status SensorcerFacade::add_expression(const std::string& composite,
                                             const std::string& expression) {
  return manager_.set_expression(composite, expression);
}

util::Status SensorcerFacade::create_service(const std::string& name,
                                             const rio::QosRequirement& qos) {
  if (provisioner_ == nullptr) {
    return {util::ErrorCode::kUnavailable,
            "no provisioning service is deployed"};
  }
  return provisioner_->provision_composite(name, qos);
}

util::Status SensorcerFacade::create_flow(const flow::FlowSpec& spec) {
  if (flows_ == nullptr) {
    return {util::ErrorCode::kUnavailable, "no flow manager is deployed"};
  }
  return flows_->create_flow(spec);
}

util::Status SensorcerFacade::destroy_flow(const std::string& name) {
  if (flows_ == nullptr) {
    return {util::ErrorCode::kUnavailable, "no flow manager is deployed"};
  }
  return flows_->destroy_flow(name);
}

std::vector<flow::FlowStats> SensorcerFacade::list_flows() {
  if (flows_ == nullptr) return {};
  return flows_->list_flows();
}

util::Result<flow::FlowStats> SensorcerFacade::flow_stats(
    const std::string& name) {
  if (flows_ == nullptr) {
    return util::Status{util::ErrorCode::kUnavailable,
                        "no flow manager is deployed"};
  }
  return flows_->stats(name);
}

std::shared_ptr<CompositeSensorProvider> SensorcerFacade::create_local_service(
    const std::string& name) {
  return manager_.create_composite(name);
}

util::Result<SensorInfo> SensorcerFacade::service_information(
    const std::string& name) {
  auto sensor = manager_.find_sensor(name);
  if (!sensor.is_ok()) return sensor.status();
  return sensor.value()->info();
}

std::string SensorcerFacade::topology(const std::string& root,
                                      bool with_values) {
  return manager_.render_tree(root, with_values);
}

}  // namespace sensorcer::core
