#pragma once
// Sensor Network Manager — creates, composes and dissolves the logical
// sensor network (§V.A "Network Management": add/remove sensor nodes,
// subnets, and create dynamic grouping). Management never touches physical
// resources: it only rearranges which services a composite contains.

#include <memory>
#include <string>
#include <vector>

#include "core/composite_provider.h"
#include "core/elementary_provider.h"
#include "obs/metrics.h"
#include "registry/lease_renewal.h"
#include "simnet/network.h"
#include "sorcer/accessor.h"

namespace sensorcer::core {

/// Shared service-lifecycle settings.
struct ManagerConfig {
  util::SimDuration lease_duration = 30 * util::kSecond;
  CollectionPolicy collection;
  SamplingPolicy sampling;
  /// When set, every ESP registered through the manager gets a feeder on
  /// this hub, so sampled readings flow to the deployment's historian.
  hist::FeederHub* history_hub = nullptr;
};

class SensorNetworkManager {
 public:
  SensorNetworkManager(sorcer::ServiceAccessor& accessor,
                       util::Scheduler& scheduler,
                       registry::LeaseRenewalManager& lrm,
                       ManagerConfig config = {});

  // --- node / subnet lifecycle -------------------------------------------------

  /// Create an elementary sensor service around `probe` and join it to all
  /// known lookup services.
  std::shared_ptr<ElementarySensorProvider> register_elementary(
      const std::string& name, sensor::ProbePtr probe,
      const std::string& location = "");

  /// Create an empty composite sensor service and join it.
  std::shared_ptr<CompositeSensorProvider> create_composite(
      const std::string& name);

  /// Adopt an externally created provider (e.g. one the provisioner
  /// deployed) into this manager's bookkeeping without re-registering it.
  void adopt(std::shared_ptr<sorcer::ServiceProvider> provider);

  /// Remove a managed service from the network (clean leave).
  util::Status remove_service(const std::string& name);

  // --- grouping ----------------------------------------------------------------

  /// Compose `children` into the composite named `composite` — forming a
  /// sensor subnet (all-elementary children) or network (mixed).
  util::Status compose(const std::string& composite,
                       const std::vector<std::string>& children);

  /// Attach a compute expression to a composite.
  util::Status set_expression(const std::string& composite,
                              const std::string& expression);

  // --- queries -----------------------------------------------------------------

  /// The SensorDataAccessor registered under `name`, if any.
  util::Result<std::shared_ptr<SensorDataAccessor>> find_sensor(
      const std::string& name);

  /// Info cards of every sensor service on the network, sorted by name.
  std::vector<SensorInfo> list_services();

  /// ASCII containment tree rooted at `root` (Fig 3's logical sensor
  /// network rendering), with live values when `with_values`.
  std::string render_tree(const std::string& root, bool with_values = false);

  // --- observability -----------------------------------------------------------

  /// Point the manager at the simulated fabric so health snapshots include
  /// its per-network traffic counters.
  void attach_network(simnet::Network* network) { network_ = network; }

  /// Merged metric snapshot: the process-wide registry (registry, sorcer,
  /// rio, esp/csp and facade hooks) plus the attached network's counters.
  /// Wall-clock instruments are left out, so under virtual time the
  /// snapshot is a deterministic function of the seed.
  [[nodiscard]] obs::Snapshot health_snapshot() const;

  /// Rendered federation health report (discovery latency, lease churn,
  /// exertion percentiles, bytes by protocol) for the browser's health pane.
  [[nodiscard]] std::string health_report() const;

  [[nodiscard]] const ManagerConfig& config() const { return config_; }

 private:
  util::Result<std::shared_ptr<CompositeSensorProvider>> find_composite(
      const std::string& name);
  void join_all(const std::shared_ptr<sorcer::ServiceProvider>& provider);
  void render_node(const std::string& name, const std::string& prefix,
                   bool last, bool with_values, std::string& out,
                   int depth);

  sorcer::ServiceAccessor& accessor_;
  util::Scheduler& scheduler_;
  registry::LeaseRenewalManager& lrm_;
  ManagerConfig config_;
  simnet::Network* network_ = nullptr;
  // The manager keeps its creations alive; registries hold only proxies.
  std::vector<std::shared_ptr<sorcer::ServiceProvider>> owned_;
};

}  // namespace sensorcer::core
