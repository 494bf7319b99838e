#include "core/provisioner.h"

namespace sensorcer::core {

util::Status SensorServiceProvisioner::provision_composite(
    const std::string& name, const rio::QosRequirement& qos,
    const std::vector<std::string>& depends_on) {
  rio::OperationalString opstring;
  opstring.name = name;
  rio::ServiceElement element;
  element.name = name;
  element.qos = qos;
  element.planned = 1;
  element.factory = [this](const std::string& instance_name)
      -> std::shared_ptr<sorcer::ServiceProvider> {
    auto csp = std::make_shared<CompositeSensorProvider>(
        instance_name, accessor_, scheduler_, collection_);
    if (instance_hook_) instance_hook_(csp);
    return csp;
  };
  opstring.elements.push_back(std::move(element));
  util::Status deployed = monitor_.deploy(std::move(opstring));
  for (const std::string& dep : depends_on) {
    (void)monitor_.add_dependency(name, dep, rio::DependencyKind::kRequired);
  }
  return deployed;
}

util::Status SensorServiceProvisioner::provision_elementary(
    const std::string& name,
    std::function<sensor::ProbePtr(const std::string&)> probe_factory,
    const rio::QosRequirement& qos, std::size_t replicas) {
  rio::OperationalString opstring;
  opstring.name = name;
  rio::ServiceElement element;
  element.name = name;
  element.qos = qos;
  element.planned = replicas;
  element.factory = [this, probe_factory = std::move(probe_factory)](
                        const std::string& instance_name)
      -> std::shared_ptr<sorcer::ServiceProvider> {
    auto esp = std::make_shared<ElementarySensorProvider>(
        instance_name, probe_factory(instance_name), scheduler_, sampling_);
    if (history_hub_ != nullptr) esp->enable_history(*history_hub_);
    if (instance_hook_) instance_hook_(esp);
    return esp;
  };
  opstring.elements.push_back(std::move(element));
  util::Status deployed = monitor_.deploy(std::move(opstring));
  if (history_hub_ != nullptr && !historian_instance_.empty()) {
    // The historian dying is survivable — the feeder buffers and replays —
    // so the edge is optional: ESPs degrade, they do not restart.
    for (const auto& svc : monitor_.deployed_instances(name)) {
      (void)monitor_.add_dependency(svc->provider_name(), historian_instance_,
                                    rio::DependencyKind::kOptional);
    }
  }
  return deployed;
}

util::Status SensorServiceProvisioner::unprovision(const std::string& name) {
  // Stop historian pushes before eviction: an undeployed ESP's feeder must
  // not flush another batch while the registration lease lapses.
  for (const auto& svc : monitor_.deployed_instances(name)) {
    if (auto* esp = dynamic_cast<ElementarySensorProvider*>(svc.get())) {
      if (auto* feeder = esp->history_feeder()) feeder->unbind();
    }
  }
  // undeploy() drops the instances' dependency-graph nodes, so stale edges
  // cannot cascade a re-provision of this opstring later.
  return monitor_.undeploy(name);
}

}  // namespace sensorcer::core
