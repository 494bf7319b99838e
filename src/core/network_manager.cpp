#include "core/network_manager.h"

#include <algorithm>

#include "obs/health.h"
#include "util/strings.h"

namespace sensorcer::core {

SensorNetworkManager::SensorNetworkManager(
    sorcer::ServiceAccessor& accessor, util::Scheduler& scheduler,
    registry::LeaseRenewalManager& lrm, ManagerConfig config)
    : accessor_(accessor),
      scheduler_(scheduler),
      lrm_(lrm),
      config_(config) {}

void SensorNetworkManager::join_all(
    const std::shared_ptr<sorcer::ServiceProvider>& provider) {
  // Managed services are full network citizens: endpoint on the fabric
  // (dispatchable over the wire, RPC byte-accounted) plus registrations on
  // every known lookup service.
  if (network_ != nullptr) provider->attach_network(*network_);
  for (const auto& lus : accessor_.lookups()) {
    (void)provider->join(lus, lrm_, config_.lease_duration);
  }
}

std::shared_ptr<ElementarySensorProvider>
SensorNetworkManager::register_elementary(const std::string& name,
                                          sensor::ProbePtr probe,
                                          const std::string& location) {
  auto esp = std::make_shared<ElementarySensorProvider>(
      name, std::move(probe), scheduler_, config_.sampling);
  if (!location.empty()) esp->set_location(location);
  join_all(esp);
  if (config_.history_hub != nullptr) esp->enable_history(*config_.history_hub);
  owned_.push_back(esp);
  return esp;
}

std::shared_ptr<CompositeSensorProvider>
SensorNetworkManager::create_composite(const std::string& name) {
  auto csp = std::make_shared<CompositeSensorProvider>(
      name, accessor_, scheduler_, config_.collection);
  join_all(csp);
  owned_.push_back(csp);
  return csp;
}

void SensorNetworkManager::adopt(
    std::shared_ptr<sorcer::ServiceProvider> provider) {
  owned_.push_back(std::move(provider));
}

util::Status SensorNetworkManager::remove_service(const std::string& name) {
  auto it = std::find_if(owned_.begin(), owned_.end(), [&](const auto& p) {
    return p->provider_name() == name;
  });
  if (it == owned_.end()) {
    return {util::ErrorCode::kNotFound,
            "'" + name + "' is not managed by this manager"};
  }
  (*it)->leave();
  owned_.erase(it);
  return util::Status::ok();
}

util::Result<std::shared_ptr<CompositeSensorProvider>>
SensorNetworkManager::find_composite(const std::string& name) {
  auto item = accessor_.find_item(
      registry::ServiceTemplate::by_name(kCompositeServiceType, name));
  if (!item.is_ok()) {
    return util::Status{util::ErrorCode::kNotFound,
                        "no composite service named '" + name + "'"};
  }
  auto csp = registry::proxy_cast<CompositeSensorProvider>(item.value().proxy);
  if (!csp) {
    return util::Status{util::ErrorCode::kInternal,
                        "'" + name + "' proxy is not a composite provider"};
  }
  return csp;
}

util::Status SensorNetworkManager::compose(
    const std::string& composite, const std::vector<std::string>& children) {
  auto csp = find_composite(composite);
  if (!csp.is_ok()) return csp.status();
  // Declarative: children already composed (e.g. adopted from a failed-over
  // predecessor's state hand-off) are kept, not duplicated.
  const std::vector<std::string> existing = csp.value()->component_names();
  for (const auto& child : children) {
    if (std::find(existing.begin(), existing.end(), child) !=
        existing.end()) {
      continue;
    }
    if (util::Status added = csp.value()->add_component(child);
        !added.is_ok()) {
      return added;
    }
  }
  return util::Status::ok();
}

util::Status SensorNetworkManager::set_expression(
    const std::string& composite, const std::string& expression) {
  auto csp = find_composite(composite);
  if (!csp.is_ok()) return csp.status();
  return csp.value()->set_expression(expression);
}

util::Result<std::shared_ptr<SensorDataAccessor>>
SensorNetworkManager::find_sensor(const std::string& name) {
  auto item = accessor_.find_item(
      registry::ServiceTemplate::by_name(kSensorDataAccessorType, name));
  if (!item.is_ok()) return item.status();
  auto sensor = registry::proxy_cast<SensorDataAccessor>(item.value().proxy);
  if (!sensor) {
    return util::Status{util::ErrorCode::kInternal,
                        "proxy does not implement SensorDataAccessor"};
  }
  return sensor;
}

std::vector<SensorInfo> SensorNetworkManager::list_services() {
  std::vector<SensorInfo> out;
  for (const auto& item : accessor_.find_all(
           registry::ServiceTemplate::by_type(kSensorDataAccessorType))) {
    if (auto sensor = registry::proxy_cast<SensorDataAccessor>(item.proxy)) {
      out.push_back(sensor->info());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SensorInfo& a, const SensorInfo& b) {
              return a.name < b.name;
            });
  return out;
}

void SensorNetworkManager::render_node(const std::string& name,
                                       const std::string& prefix, bool last,
                                       bool with_values, std::string& out,
                                       int depth) {
  out += prefix;
  if (depth > 0) out += last ? "`-- " : "|-- ";
  out += name;

  auto sensor = find_sensor(name);
  if (!sensor.is_ok()) {
    out += "  [unreachable]\n";
    return;
  }
  const SensorInfo info = sensor.value()->info();
  out += util::format("  (%s%s%s)",
                      sensor_service_kind_name(info.kind),
                      info.expression.empty() ? "" : ", expr: ",
                      info.expression.c_str());
  if (with_values) {
    auto value = sensor.value()->get_value();
    if (value.is_ok()) {
      out += util::format("  value=%.3f", value.value());
    } else {
      out += "  value=<" + std::string(util::error_code_name(
                               value.status().code())) + ">";
    }
  }
  out += "\n";

  if (depth > 16) {  // containment cycles are rejected, but stay safe
    out += prefix + "  ...\n";
    return;
  }
  const std::string child_prefix =
      depth == 0 ? prefix : prefix + (last ? "    " : "|   ");
  for (std::size_t i = 0; i < info.contained.size(); ++i) {
    render_node(info.contained[i], child_prefix,
                i + 1 == info.contained.size(), with_values, out, depth + 1);
  }
}

std::string SensorNetworkManager::render_tree(const std::string& root,
                                              bool with_values) {
  std::string out;
  render_node(root, "", true, with_values, out, 0);
  return out;
}

obs::Snapshot SensorNetworkManager::health_snapshot() const {
  obs::Snapshot snap = obs::metrics().snapshot(scheduler_.now());
  if (network_ != nullptr) {
    snap.merge(network_->metrics().snapshot(scheduler_.now()));
  }
  return snap;
}

std::string SensorNetworkManager::health_report() const {
  std::string report = obs::render_federation_health(health_snapshot());
  // Per-registry shard balance: live populations straight from each known
  // federation (the obs gauges only track the most recently active one).
  const auto lookups = accessor_.lookups();
  if (!lookups.empty()) {
    report += "\nregistry shard balance\n";
    for (const auto& lus : lookups) {
      const std::vector<std::size_t> sizes = lus->shard_sizes();
      std::size_t total = 0;
      std::size_t max_size = 0;
      std::string row;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        total += sizes[i];
        max_size = std::max(max_size, sizes[i]);
        row += (i == 0 ? "" : " ") + std::to_string(sizes[i]);
      }
      const double mean =
          sizes.empty() ? 0.0
                        : static_cast<double>(total) /
                              static_cast<double>(sizes.size());
      report += util::format(
          "  %-12s %zu shards [%s]  imbalance %.2f\n", lus->name().c_str(),
          sizes.size(), row.c_str(),
          mean > 0.0 ? static_cast<double>(max_size) / mean : 0.0);
    }
  }
  return report;
}

}  // namespace sensorcer::core
