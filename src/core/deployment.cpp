#include "core/deployment.h"

#include "obs/trace.h"
#include "util/strings.h"

namespace sensorcer::core {

Deployment::Deployment(DeploymentConfig config)
    : config_(config),
      network_(scheduler_, config.seed),
      lrm_(scheduler_, config.lease_batch),
      txn_manager_(scheduler_),
      mailbox_(scheduler_),
      discovery_(network_, scheduler_) {
  network_.set_latency(config_.network_latency);
  // Spans record this deployment's virtual time (last deployment wins when
  // several coexist, e.g. in one test binary — fine for reports and tests).
  obs::set_sim_clock(&scheduler_);

  // The invocation pipeline: every service-to-service dispatch routed
  // through this accessor goes via the invoker, as messages on the fabric.
  invoker_ = std::make_unique<sorcer::RemoteInvoker>(network_, config_.invoke);
  accessor_.set_invoker(invoker_.get());

  // Lookup services: advertised over multicast discovery and also handed to
  // the accessor directly (unicast discovery), so clients work immediately.
  for (std::size_t i = 0; i < config_.lookup_services; ++i) {
    auto lus = std::make_shared<registry::LookupService>(
        util::format("lus-%zu", i), scheduler_, &network_,
        100 * util::kMillisecond, config_.lus_shards);
    discovery_.advertise(lus);
    accessor_.add_lookup(lus);
    lookups_.push_back(std::move(lus));
  }

  if (config_.with_jobber) {
    jobber_ = std::make_shared<sorcer::Jobber>("Jobber", accessor_);
    jobber_->attach_network(network_);
    for (const auto& lus : lookups_) {
      (void)jobber_->join(lus, lrm_, config_.lease_duration);
    }
  }
  if (config_.with_spacer) {
    spacer_ = std::make_shared<sorcer::Spacer>("Spacer", accessor_, space_,
                                               config_.spacer_workers);
    spacer_->attach_network(network_);
    for (const auto& lus : lookups_) {
      (void)spacer_->join(lus, lrm_, config_.lease_duration);
    }
  }

  for (std::size_t i = 0; i < config_.cybernodes; ++i) {
    auto node = std::make_shared<rio::Cybernode>(
        util::format("Cybernode-%zu", i + 1), config_.cybernode_capability);
    node->attach_network(network_);
    for (const auto& lus : lookups_) {
      (void)node->join(lus, lrm_, config_.lease_duration);
    }
    cybernodes_.push_back(std::move(node));
  }

  rio::MonitorConfig monitor_config = config_.monitor;
  monitor_config.service_lease = config_.lease_duration;
  monitor_ = std::make_shared<rio::ProvisionMonitor>(
      "Monitor", accessor_, lrm_, scheduler_, monitor_config);
  monitor_->attach_network(network_);
  for (const auto& lus : lookups_) {
    (void)monitor_->join(lus, lrm_, config_.lease_duration);
  }

  if (config_.with_historian) {
    historian_ = std::make_shared<hist::Historian>("Historian",
                                                   config_.historian);
    historian_->attach_network(network_);
    for (const auto& lus : lookups_) {
      (void)historian_->join(lus, lrm_, config_.lease_duration);
    }
    // One hub feeds the historian from every ESP, managed or provisioned:
    // one flush timer, one subscription, one flush in flight.
    feeder_hub_ = std::make_unique<hist::FeederHub>(scheduler_, accessor_,
                                                    config_.history_feed);
    if (!lookups_.empty()) feeder_hub_->bind(lookups_.front(), lrm_);
  }

  ManagerConfig manager_config;
  manager_config.lease_duration = config_.lease_duration;
  manager_config.collection = config_.collection;
  manager_config.sampling = config_.sampling;
  manager_config.history_hub = feeder_hub_.get();
  manager_ = std::make_unique<SensorNetworkManager>(accessor_, scheduler_,
                                                    lrm_, manager_config);
  manager_->attach_network(&network_);
  provisioner_ = std::make_unique<SensorServiceProvisioner>(
      *monitor_, accessor_, scheduler_, manager_config.collection,
      config_.sampling);
  if (feeder_hub_) provisioner_->enable_history(*feeder_hub_);
  if (config_.with_flow) {
    flow::FlowManagerConfig flow_config = config_.flow;
    flow_config.sample_period = config_.sampling.sample_period;
    flow_manager_ = std::make_shared<flow::FlowManager>(
        "FlowManager", accessor_, scheduler_, lrm_, monitor_.get(),
        flow_config);
    flow_manager_->attach_network(network_);
    for (const auto& lus : lookups_) {
      (void)flow_manager_->join(lus, lrm_, config_.lease_duration);
    }
    // Flow sources ride the managed ESPs' record() taps: a flow consumes
    // the readings the sampling loop already takes, never re-reading.
    flow_manager_->set_source_binder(
        [this](const std::string& sensor,
               std::function<void(const sensor::Reading&)> tap)
            -> util::Result<flow::TapHandle> {
          auto found = manager_->find_sensor(sensor);
          if (!found.is_ok()) return found.status();
          auto esp = std::dynamic_pointer_cast<ElementarySensorProvider>(
              found.value());
          if (!esp) {
            return util::Status{
                util::ErrorCode::kFailedPrecondition,
                "flow source '" + sensor + "' is not an elementary sensor"};
          }
          const std::uint64_t id = esp->add_reading_tap(std::move(tap));
          std::weak_ptr<ElementarySensorProvider> weak = esp;
          return flow::TapHandle{[weak, id] {
            if (auto strong = weak.lock()) strong->remove_reading_tap(id);
          }};
        });
  }
  facade_ = std::make_shared<SensorcerFacade>(
      "SenSORCER Facade", accessor_, *manager_, provisioner_.get());
  facade_->set_flow_manager(flow_manager_.get());
  facade_->attach_network(network_);
  for (const auto& lus : lookups_) {
    (void)facade_->join(lus, lrm_, config_.lease_duration);
  }
  browser_ = std::make_unique<SensorBrowser>(*facade_);
}

Deployment::~Deployment() {
  if (obs::sim_clock() == &scheduler_) obs::set_sim_clock(nullptr);
}

std::shared_ptr<ElementarySensorProvider> Deployment::add_temperature_sensor(
    const std::string& name, double base_celsius,
    const std::string& location) {
  return add_sensor(
      name, sensor::make_temperature_probe(name, ++sensor_seed_, base_celsius),
      location);
}

std::shared_ptr<ElementarySensorProvider> Deployment::add_sensor(
    const std::string& name, sensor::ProbePtr probe,
    const std::string& location) {
  return manager_->register_elementary(name, std::move(probe), location);
}

}  // namespace sensorcer::core
