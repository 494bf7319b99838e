#pragma once
// Deployment — a complete SenSORCER "lab" in one object, mirroring the
// paper's experimental deployment at the SORCER Lab (Fig 2): lookup
// services with discovery, Jini infrastructure services (lease renewal,
// event mailbox, transaction manager), Rio cybernodes with a provision
// monitor, SORCER rendezvous peers (Jobber, Spacer over an exertion space),
// and the SenSORCER façade with its browser.
//
// Examples, integration tests and benches all boot through this class so
// the wiring order (scheduler → network → registries → peers → façade) is
// written exactly once.

#include <memory>
#include <string>
#include <vector>

#include "core/browser.h"
#include "core/facade.h"
#include "core/network_manager.h"
#include "core/provisioner.h"
#include "flow/manager.h"
#include "hist/feeder.h"
#include "hist/historian.h"
#include "registry/discovery.h"
#include "registry/event_mailbox.h"
#include "registry/transaction.h"
#include "rio/monitor.h"
#include "sorcer/invoke.h"
#include "sorcer/jobber.h"
#include "sorcer/spacer.h"

namespace sensorcer::core {

struct DeploymentConfig {
  std::size_t lookup_services = 1;
  /// Shards per lookup service (consistent-hash partitions of the registry).
  std::size_t lus_shards = registry::RegistryFederation::kDefaultShards;
  std::size_t cybernodes = 2;
  rio::QosCapability cybernode_capability{4.0, 4096.0, "x86_64", {}};
  bool with_jobber = true;
  bool with_spacer = true;
  std::size_t spacer_workers = 4;
  /// Ignored: every call crosses the fabric, and fan-out concurrency comes
  /// from overlapped round-trips, not threads. Kept so existing configs
  /// that set it still compile.
  std::size_t worker_threads = 4;
  util::SimDuration lease_duration = 30 * util::kSecond;
  util::SimDuration network_latency = 200 * util::kMicrosecond;
  /// Invocation pipeline settings (call and ping deadlines). Every
  /// service-to-service call is a request/response message pair on the
  /// fabric.
  sorcer::InvokeConfig invoke;
  rio::MonitorConfig monitor;
  CollectionPolicy collection;
  SamplingPolicy sampling;
  /// Boot a Historian service and feed it from every managed/provisioned
  /// ESP (sampled readings pushed as appendBatch exertions through one
  /// deployment-wide FeederHub configured by history_feed).
  bool with_historian = true;
  hist::HistorianConfig historian;
  hist::FeederConfig history_feed;
  /// Boot a FlowManager wired to the managed sensors' reading taps and the
  /// provision monitor (streaming dataflows with cost-modeled placement).
  bool with_flow = true;
  flow::FlowManagerConfig flow;
  std::uint64_t seed = 42;
};

class Deployment {
 public:
  explicit Deployment(DeploymentConfig config = {});
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // --- simulation control ------------------------------------------------------

  /// Advance virtual time (drives sampling, leases, announcements, polls).
  void pump(util::SimDuration span) { scheduler_.run_for(span); }

  [[nodiscard]] util::SimTime now() const { return scheduler_.now(); }

  // --- convenience builders ------------------------------------------------------

  /// Register a SUN SPOT-style temperature ESP (the paper's sensors).
  std::shared_ptr<ElementarySensorProvider> add_temperature_sensor(
      const std::string& name, double base_celsius = 22.0,
      const std::string& location = "CP TTU/310");

  /// Register an ESP around an arbitrary probe.
  std::shared_ptr<ElementarySensorProvider> add_sensor(
      const std::string& name, sensor::ProbePtr probe,
      const std::string& location = "");

  // --- the stack -----------------------------------------------------------------

  util::Scheduler& scheduler() { return scheduler_; }
  simnet::Network& network() { return network_; }
  registry::LeaseRenewalManager& lease_renewal() { return lrm_; }
  registry::TransactionManager& transactions() { return txn_manager_; }
  registry::EventMailbox& event_mailbox() { return mailbox_; }
  registry::DiscoveryManager& discovery() { return discovery_; }
  sorcer::ServiceAccessor& accessor() { return accessor_; }
  sorcer::RemoteInvoker& invoker() { return *invoker_; }
  sorcer::ExertSpace& space() { return space_; }

  const std::vector<std::shared_ptr<registry::LookupService>>& lookups()
      const {
    return lookups_;
  }
  const std::vector<std::shared_ptr<rio::Cybernode>>& cybernodes() const {
    return cybernodes_;
  }
  rio::ProvisionMonitor& monitor() { return *monitor_; }
  /// The Jobber rendezvous peer, or null when with_jobber is off (the chaos
  /// harness kills and revives it mid-fan-out).
  sorcer::Jobber* jobber() { return jobber_.get(); }
  /// The historian, or null when with_historian is off.
  hist::Historian* historian() { return historian_.get(); }
  /// The hub every ESP's historian feeder joins, or null when
  /// with_historian is off.
  hist::FeederHub* feeder_hub() { return feeder_hub_.get(); }
  /// The flow manager, or null when with_flow is off.
  flow::FlowManager* flow_manager() { return flow_manager_.get(); }
  SensorNetworkManager& manager() { return *manager_; }
  SensorServiceProvisioner& provisioner() { return *provisioner_; }
  SensorcerFacade& facade() { return *facade_; }
  SensorBrowser& browser() { return *browser_; }

  [[nodiscard]] const DeploymentConfig& config() const { return config_; }

 private:
  DeploymentConfig config_;
  util::Scheduler scheduler_;
  simnet::Network network_;
  registry::LeaseRenewalManager lrm_;
  registry::TransactionManager txn_manager_;
  registry::EventMailbox mailbox_;
  registry::DiscoveryManager discovery_;
  std::vector<std::shared_ptr<registry::LookupService>> lookups_;
  // Declared after network_: the invoker detaches its endpoint on
  // destruction, so the fabric must outlive it.
  std::unique_ptr<sorcer::RemoteInvoker> invoker_;
  sorcer::ServiceAccessor accessor_;
  // Declared after accessor_ and the registries it uses; ESPs that outlive
  // it (a lookup service still holding a proxy) find their hub gone.
  std::unique_ptr<hist::FeederHub> feeder_hub_;
  sorcer::ExertSpace space_;
  std::shared_ptr<sorcer::Jobber> jobber_;
  std::shared_ptr<sorcer::Spacer> spacer_;
  std::vector<std::shared_ptr<rio::Cybernode>> cybernodes_;
  std::shared_ptr<rio::ProvisionMonitor> monitor_;
  std::shared_ptr<hist::Historian> historian_;
  std::unique_ptr<SensorNetworkManager> manager_;
  std::unique_ptr<SensorServiceProvisioner> provisioner_;
  std::shared_ptr<flow::FlowManager> flow_manager_;
  std::shared_ptr<SensorcerFacade> facade_;
  std::unique_ptr<SensorBrowser> browser_;
  std::uint64_t sensor_seed_ = 1000;
};

}  // namespace sensorcer::core
