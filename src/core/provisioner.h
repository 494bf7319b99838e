#pragma once
// Sensor Service Provisioner — the façade's bridge to Rio (§V.B): "dynamic
// network formation of sensors in SenSORCER dynamically allocates a CSP to
// the capable cybernode with operational specifications provided by the
// requestor."

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/composite_provider.h"
#include "core/elementary_provider.h"
#include "rio/monitor.h"
#include "sensor/probe.h"

namespace sensorcer::core {

class SensorServiceProvisioner {
 public:
  SensorServiceProvisioner(rio::ProvisionMonitor& monitor,
                           sorcer::ServiceAccessor& accessor,
                           util::Scheduler& scheduler,
                           CollectionPolicy collection = {},
                           SamplingPolicy sampling = {})
      : monitor_(monitor),
        accessor_(accessor),
        scheduler_(scheduler),
        collection_(collection),
        sampling_(sampling) {}

  /// Provision a new composite sensor service named `name` onto a cybernode
  /// satisfying `qos` (the paper's step 3: "Provisioned a new composite
  /// service on to the network"). The instance becomes discoverable after
  /// the monitor's activation delay. `depends_on` lists instance names the
  /// composite requires (its future components): the monitor cascades a
  /// restart of this CSP when one of them is re-provisioned.
  util::Status provision_composite(const std::string& name,
                                   const rio::QosRequirement& qos,
                                   const std::vector<std::string>& depends_on = {});

  /// Provision an elementary sensor service around probes produced by
  /// `probe_factory` (one per replica). With history enabled, every
  /// instance gets an *optional* dependency edge onto the historian: the
  /// historian dying degrades the ESPs (they buffer) but never restarts
  /// them.
  util::Status provision_elementary(
      const std::string& name,
      std::function<sensor::ProbePtr(const std::string&)> probe_factory,
      const rio::QosRequirement& qos, std::size_t replicas = 1);

  /// Provision an arbitrary service element under its own operational
  /// string — the generic hook subsystems (flow relays, custom peers) use
  /// to ride Rio placement and failover without a bespoke method here.
  util::Status provision_service(const std::string& opstring_name,
                                 rio::ServiceElement element) {
    return monitor_.deploy(
        rio::OperationalString{opstring_name, {std::move(element)}});
  }

  /// Declare a dependency between two provisioned instances (see
  /// rio::ProvisionMonitor::add_dependency).
  util::Status declare_dependency(
      const std::string& dependent, const std::string& dependency,
      rio::DependencyKind kind = rio::DependencyKind::kRequired) {
    return monitor_.add_dependency(dependent, dependency, kind);
  }

  /// Tear down a previously provisioned service: stop its historian pushes,
  /// drop its dependency edges, evict its instances.
  util::Status unprovision(const std::string& name);

  /// Attach historian push to every ESP this provisioner instantiates —
  /// including replacements the monitor re-provisions after a node failure,
  /// which then backfill the historian from the adopted DataLog. Their
  /// feeders join `hub`, the one the network manager's ESPs share.
  /// `historian_instance` names the deployed historian for the optional
  /// dependency edge each history-fed ESP gets.
  void enable_history(hist::FeederHub& hub,
                      std::string historian_instance = "Historian") {
    history_hub_ = &hub;
    historian_instance_ = std::move(historian_instance);
  }

  /// Observe every instance the provisioner's factories create — initial
  /// placements and monitor re-provisions alike. The chaos harness uses
  /// this to install reading taps on replacement ESPs.
  void set_instance_hook(
      std::function<void(const std::shared_ptr<sorcer::ServiceProvider>&)>
          hook) {
    instance_hook_ = std::move(hook);
  }

  [[nodiscard]] rio::ProvisionMonitor& monitor() { return monitor_; }

 private:
  rio::ProvisionMonitor& monitor_;
  sorcer::ServiceAccessor& accessor_;
  util::Scheduler& scheduler_;
  CollectionPolicy collection_;
  SamplingPolicy sampling_;
  hist::FeederHub* history_hub_ = nullptr;
  std::string historian_instance_;
  std::function<void(const std::shared_ptr<sorcer::ServiceProvider>&)>
      instance_hook_;
};

}  // namespace sensorcer::core
