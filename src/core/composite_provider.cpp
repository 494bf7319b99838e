#include "core/composite_provider.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "sorcer/jobber.h"
#include "util/strings.h"

namespace sensorcer::core {

namespace {

struct CspMetrics {
  obs::Counter& reads;
  obs::Counter& collections;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& coalesced;
  obs::Histogram& collection_latency;
};

CspMetrics& csp_metrics() {
  static CspMetrics m{
      obs::metrics().counter("csp.reads"),
      obs::metrics().counter("csp.collections"),
      obs::metrics().counter("csp.cache_hits"),
      obs::metrics().counter("csp.cache_misses"),
      obs::metrics().counter("csp.coalesced"),
      obs::metrics().histogram("csp.collection_latency_us")};
  return m;
}

}  // namespace

CompositeSensorProvider::CompositeSensorProvider(
    std::string name, sorcer::ServiceAccessor& accessor,
    util::Scheduler& scheduler, CollectionPolicy policy)
    : ServiceProvider(std::move(name),
                      {kSensorDataAccessorType, kCompositeServiceType}),
      accessor_(accessor),
      scheduler_(scheduler),
      policy_(policy) {
  registry::Entry attrs;
  attrs.set(registry::attr::kServiceType,
            std::string(sensor_service_kind_name(SensorServiceKind::kComposite)));
  set_attributes(attrs);
  install_operations();
}

bool CompositeSensorProvider::would_cycle(
    const SensorDataAccessor& candidate) const {
  if (&candidate == static_cast<const SensorDataAccessor*>(this)) return true;
  const auto* composite =
      dynamic_cast<const CompositeSensorProvider*>(&candidate);
  if (composite == nullptr) return false;
  for (const auto& comp : composite->components_) {
    auto item =
        accessor_.find_item(registry::ServiceTemplate::by_id(comp.id));
    if (!item.is_ok()) continue;
    auto child = registry::proxy_cast<SensorDataAccessor>(item.value().proxy);
    if (child && would_cycle(*child)) return true;
  }
  return false;
}

void CompositeSensorProvider::invalidate_cache(bool plan_too) {
  std::lock_guard lock(collect_mu_);
  cache_valid_ = false;
  if (plan_too) plan_.clear();
}

util::Status CompositeSensorProvider::add_component(
    const std::string& service_name) {
  if (service_name == provider_name()) {
    return {util::ErrorCode::kInvalidArgument,
            "a composite cannot contain itself"};
  }
  for (const auto& comp : components_) {
    if (comp.name == service_name) {
      return {util::ErrorCode::kFailedPrecondition,
              "'" + service_name + "' is already composed"};
    }
  }
  auto item = accessor_.find_item(registry::ServiceTemplate::by_name(
      kSensorDataAccessorType, service_name));
  if (!item.is_ok()) {
    return {util::ErrorCode::kNotFound,
            "no sensor service named '" + service_name + "' on the network"};
  }
  auto child = registry::proxy_cast<SensorDataAccessor>(item.value().proxy);
  if (!child) {
    return {util::ErrorCode::kInvalidArgument,
            "'" + service_name + "' does not implement SensorDataAccessor"};
  }
  if (would_cycle(*child)) {
    return {util::ErrorCode::kInvalidArgument,
            "composing '" + service_name + "' would create a containment cycle"};
  }
  // Dynamic variable creation: the new component binds the next free letter.
  components_.push_back(Component{item.value().id, service_name,
                                  component_variable_name(next_variable_++)});
  invalidate_cache(/*plan_too=*/true);
  return util::Status::ok();
}

util::Status CompositeSensorProvider::remove_component(
    const std::string& service_name) {
  auto it = std::find_if(components_.begin(), components_.end(),
                         [&](const Component& c) {
                           return c.name == service_name;
                         });
  if (it == components_.end()) {
    return {util::ErrorCode::kNotFound,
            "'" + service_name + "' is not composed here"};
  }
  const std::string freed_variable = it->variable;
  components_.erase(it);
  invalidate_cache(/*plan_too=*/true);

  if (computation_.has_expression()) {
    if (computation_.variables().contains(freed_variable)) {
      // The expression referenced the removed service; it can no longer be
      // evaluated, so fall back to the default aggregate.
      computation_.clear_expression();
    } else {
      // Surviving components keep their variables but their value order
      // shifted — re-resolve the expression's slots against the new order.
      (void)computation_.rebind(component_variables());
    }
  }
  return util::Status::ok();
}

std::vector<std::string> CompositeSensorProvider::component_names() const {
  std::vector<std::string> out;
  out.reserve(components_.size());
  for (const auto& c : components_) out.push_back(c.name);
  return out;
}

std::vector<std::string> CompositeSensorProvider::component_variables() const {
  std::vector<std::string> out;
  out.reserve(components_.size());
  for (const auto& c : components_) out.push_back(c.variable);
  return out;
}

util::Status CompositeSensorProvider::set_expression(
    const std::string& source) {
  auto status = computation_.set_expression(source, component_variables());
  if (status.is_ok()) invalidate_cache(/*plan_too=*/false);
  return status;
}

void CompositeSensorProvider::assume_state_from(
    sorcer::ServiceProvider& predecessor) {
  auto* csp = dynamic_cast<CompositeSensorProvider*>(&predecessor);
  if (csp == nullptr) return;
  // Adopt the composition verbatim (ids included — reads resolve by name,
  // so a component that was itself re-provisioned rebinds transparently on
  // the next collection) and re-attach the expression over the same
  // variables. The plan cache starts cold in the replacement.
  components_ = csp->components_;
  next_variable_ = csp->next_variable_;
  if (csp->computation_.has_expression()) {
    (void)set_expression(csp->expression());
  }
  invalidate_cache(/*plan_too=*/true);
}

std::vector<std::optional<double>> CompositeSensorProvider::fan_out(
    const std::vector<PlanEntry>& plan, util::SimDuration* latency) {
  std::vector<std::shared_ptr<sorcer::Task>> tasks;
  tasks.reserve(plan.size());
  for (const auto& entry : plan) {
    tasks.push_back(sorcer::Task::make(entry.task_name, entry.signature));
  }

  // Prefer the federation: a rendezvous peer coordinates the fan-out.
  bool federated = false;
  if (!tasks.empty()) {
    // Lenient collection must not abort on the first unreachable child;
    // strictness is enforced after the fan-out, per component.
    auto strategy = policy_.strategy;
    strategy.fail_fast = false;
    auto job = sorcer::Job::make(provider_name() + ".collect", strategy);
    for (const auto& t : tasks) job->add(t);
    (void)sorcer::exert(job, accessor_);
    federated = job->error().code() != util::ErrorCode::kNotFound ||
                job->status() != sorcer::ExertStatus::kFailed;
    if (federated) *latency = job->latency();
  }
  if (!federated) {
    // No rendezvous peer on the network: resolve the prebuilt plan to
    // servicers and scatter-gather it as one batch through the invocation
    // pipeline. invoke_servicer_all (not exert) keeps the historical
    // no-substitution semantics and metric counts of the direct path. The
    // batch already paid its overlapped window in fabric time, so it costs
    // the slowest child plus one batch-dispatch overhead — the Jobber's
    // parallel latency model; an empty batch costs nothing.
    std::vector<std::pair<std::shared_ptr<sorcer::Servicer>,
                          sorcer::ExertionPtr>>
        calls;
    calls.reserve(tasks.size());
    for (const auto& task : tasks) {
      auto servicer = accessor_.find_servicer(task->signature());
      if (servicer.is_ok()) calls.emplace_back(servicer.value(), task);
    }
    sorcer::invoke_servicer_all(accessor_, calls);
    *latency = 0;
    if (!calls.empty()) {
      util::SimDuration slowest = 0;
      for (const auto& task : tasks) {
        slowest = std::max(slowest, task->latency());
      }
      *latency = slowest + sorcer::Jobber::kDispatchOverhead;
    }
  }

  std::vector<std::optional<double>> out;
  out.reserve(tasks.size());
  for (const auto& task : tasks) {
    // Borrow the reply value in place (this is the collection hot path —
    // one lookup per component per read).
    const sorcer::ContextValue* v = task->context().find(path::kValue);
    const double* d = v != nullptr ? std::get_if<double>(v) : nullptr;
    if (task->status() == sorcer::ExertStatus::kDone && d != nullptr) {
      out.emplace_back(*d);
    } else {
      out.emplace_back(std::nullopt);
    }
  }
  return out;
}

CompositeSensorProvider::Collected CompositeSensorProvider::collect() {
  std::unique_lock lock(collect_mu_);

  // Freshness window: a collection newer than the TTL answers the read
  // outright — no task build, no fan-out, no latency charge.
  if (cache_valid_ && policy_.freshness > 0 &&
      scheduler_.now() - cache_time_ <= policy_.freshness) {
    csp_metrics().cache_hits.add(1);
    last_collection_latency_.store(0, std::memory_order_relaxed);
    return Collected{cached_values_, cache_time_, true};
  }

  // Single-flight: if another reader is already collecting, wait for its
  // flight to land and share the result instead of fanning out again.
  if (collect_in_flight_) {
    if (collect_owner_ == std::this_thread::get_id()) {
      // Re-entrant read on the collecting thread itself — the in-flight
      // fan-out pumps the virtual-time scheduler, which can fire a timer
      // (watch poll, sampler) that reads this CSP again on the same stack.
      // Waiting would self-deadlock; serve the previous collection if one
      // exists, else run an independent fan-out without touching the
      // single-flight state.
      if (cache_valid_) {
        csp_metrics().coalesced.add(1);
        last_collection_latency_.store(0, std::memory_order_relaxed);
        return Collected{cached_values_, cache_time_, true};
      }
      const std::vector<PlanEntry> plan = plan_;
      lock.unlock();
      util::SimDuration latency = 0;
      std::vector<std::optional<double>> values = fan_out(plan, &latency);
      return Collected{std::move(values), scheduler_.now(), false};
    }
    csp_metrics().coalesced.add(1);
    const std::uint64_t waited_for = collect_generation_;
    collect_cv_.wait(lock,
                     [&] { return collect_generation_ != waited_for; });
    last_collection_latency_.store(0, std::memory_order_relaxed);
    return Collected{cached_values_, cache_time_, true};
  }
  collect_in_flight_ = true;
  collect_owner_ = std::this_thread::get_id();

  // The fan-out plan (task name + signature per component) is prebuilt and
  // survives across reads until the composition changes.
  if (plan_.empty()) {
    plan_.reserve(components_.size());
    for (const auto& comp : components_) {
      plan_.push_back(PlanEntry{
          comp.variable,
          sorcer::Signature{kSensorDataAccessorType, op::kGetValue,
                            comp.name}});
    }
  }
  const std::vector<PlanEntry> plan = plan_;
  lock.unlock();

  csp_metrics().cache_misses.add(1);
  csp_metrics().collections.add(1);
  util::SimDuration latency = 0;
  std::vector<std::optional<double>> values = fan_out(plan, &latency);
  last_collection_latency_.store(latency, std::memory_order_relaxed);
  csp_metrics().collection_latency.observe(static_cast<double>(latency));

  lock.lock();
  cached_values_ = values;
  cache_time_ = scheduler_.now();
  cache_valid_ = true;
  collect_in_flight_ = false;
  collect_owner_ = {};
  ++collect_generation_;
  const util::SimTime at = cache_time_;
  lock.unlock();
  collect_cv_.notify_all();
  return Collected{std::move(values), at, false};
}

util::Result<double> CompositeSensorProvider::read_value(
    Collected* collected_out) {
  if (components_.empty()) {
    return util::Status{util::ErrorCode::kFailedPrecondition,
                        "composite '" + provider_name() +
                            "' has no composed services"};
  }
  Collected collected = collect();

  std::vector<double> values;
  values.reserve(collected.values.size());
  for (std::size_t i = 0; i < collected.values.size(); ++i) {
    if (collected.values[i]) {
      values.push_back(*collected.values[i]);
    } else if (policy_.strict || computation_.has_expression()) {
      return util::Status{
          util::ErrorCode::kUnavailable,
          util::format("component '%s' (variable %s) is unreachable",
                       components_[i].name.c_str(),
                       components_[i].variable.c_str())};
    }
  }
  if (values.empty()) {
    return util::Status{util::ErrorCode::kUnavailable,
                        "no composed service is reachable"};
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  csp_metrics().reads.add(1);
  if (collected_out != nullptr) *collected_out = std::move(collected);
  return computation_.evaluate(values);
}

util::Result<double> CompositeSensorProvider::get_value() {
  return read_value(nullptr);
}

util::Result<sensor::Reading> CompositeSensorProvider::get_reading() {
  Collected collected;
  auto value = read_value(&collected);
  if (!value.is_ok()) return value.status();
  sensor::Reading reading;
  // Cache-served reads carry the timestamp of the collection they were
  // answered from, so consumers can see the (bounded) staleness.
  reading.timestamp = collected.from_cache ? collected.at : scheduler_.now();
  reading.value = value.value();
  reading.quality = sensor::Quality::kGood;
  reading.sequence = reads_.load(std::memory_order_relaxed);
  return reading;
}

SensorInfo CompositeSensorProvider::info() const {
  SensorInfo out;
  out.name = provider_name();
  out.kind = SensorServiceKind::kComposite;
  out.id = service_id();
  out.measurement = "composite";
  out.contained = component_names();
  out.expression = computation_.expression_source();
  return out;
}

void CompositeSensorProvider::install_operations() {
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
        return util::Status::ok();
      },
      1 * util::kMillisecond);

  add_operation(
      op::kGetInfo,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        const SensorInfo i = info();
        ctx.put(path::kInfoName, i.name, sorcer::PathDirection::kOut);
        ctx.put(path::kInfoKind, std::string(sensor_service_kind_name(i.kind)),
                sorcer::PathDirection::kOut);
        ctx.put(path::kExpression, i.expression, sorcer::PathDirection::kOut);
        return util::Status::ok();
      },
      200 * util::kMicrosecond);

  add_operation(
      op::kAddComponent,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        auto name = ctx.get_string(path::kComponentName);
        if (!name.is_ok()) return name.status();
        return add_component(name.value());
      },
      500 * util::kMicrosecond);

  add_operation(
      op::kRemoveComponent,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        auto name = ctx.get_string(path::kComponentName);
        if (!name.is_ok()) return name.status();
        return remove_component(name.value());
      },
      500 * util::kMicrosecond);

  add_operation(
      op::kSetExpression,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        auto source = ctx.get_string(path::kExpression);
        if (!source.is_ok()) return source.status();
        return set_expression(source.value());
      },
      500 * util::kMicrosecond);
}

}  // namespace sensorcer::core
