#pragma once
// Sensorcer Façade — "the single entry point of the SenSORCER system" (§V.B).
// It bundles the Sensor Network Manager, the Service Accessor and the Sensor
// Service Provisioner behind the uniform operations the Sensor Browser's
// buttons map to: Get Sensor List / Get Value / Compose Service /
// Add Expression / Create Service.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/network_manager.h"
#include "core/provisioner.h"
#include "flow/manager.h"
#include "hist/series.h"
#include "sorcer/provider.h"

namespace sensorcer::core {

class SensorcerFacade : public sorcer::ServiceProvider {
 public:
  /// `provisioner` may be null when the deployment has no Rio monitor; the
  /// Create Service (provision) operation then fails with kUnavailable.
  SensorcerFacade(std::string name, sorcer::ServiceAccessor& accessor,
                  SensorNetworkManager& manager,
                  SensorServiceProvisioner* provisioner = nullptr);

  // --- browser-button operations ------------------------------------------------

  /// "Get Sensor List": every sensor service on the network.
  std::vector<SensorInfo> get_sensor_list();

  /// "Get Value": current value of the named sensor service.
  util::Result<double> get_value(const std::string& service_name);

  /// Multi-sensor "Get Value": one read task per name, issued as a single
  /// scatter-gather batch through the invocation pipeline — the reads
  /// overlap on the fabric and the whole page refresh costs ~one
  /// round-trip, not N. Results are positional with
  /// `service_names`.
  std::vector<util::Result<double>> get_values(
      const std::vector<std::string>& service_names);

  /// "Compose Service": add child services to a composite.
  util::Status compose_service(const std::string& composite,
                               const std::vector<std::string>& children);

  /// "Add Expression": attach a compute expression to a composite.
  util::Status add_expression(const std::string& composite,
                              const std::string& expression);

  /// "Create Service": provision a new composite onto a QoS-matching
  /// cybernode through Rio.
  util::Status create_service(const std::string& name,
                              const rio::QosRequirement& qos = {});

  /// Create a composite hosted locally (no provisioning).
  std::shared_ptr<CompositeSensorProvider> create_local_service(
      const std::string& name);

  // --- historian queries ----------------------------------------------------------

  /// Aggregate stats of `sensor` over [from, to), answered by the
  /// historian from the coarsest rollup ring no wider than
  /// `max_resolution` (0 demands the exact raw path). Routed through the
  /// invocation pipeline like every other service-to-service call.
  util::Result<hist::StatsResult> query_stats(
      const std::string& sensor, util::SimTime from, util::SimTime to,
      util::SimDuration max_resolution = 60 * util::kSecond);

  /// Raw retained readings of `sensor` in [from, to).
  util::Result<hist::SeriesResult> query_range(const std::string& sensor,
                                               util::SimTime from,
                                               util::SimTime to,
                                               std::size_t max_points = 1024);

  /// At most `points` downsampled (bucket-start, mean) pairs over [from, to).
  util::Result<hist::SeriesResult> query_downsample(const std::string& sensor,
                                                    util::SimTime from,
                                                    util::SimTime to,
                                                    std::size_t points = 64);

  /// Dashboard fan-out: one downsample query per sensor, exerted as a
  /// scatter-gather batch (overlapped wire round-trips, like get_values).
  /// Results are positional.
  std::vector<util::Result<hist::SeriesResult>> query_downsample_many(
      const std::vector<std::string>& sensors, util::SimTime from,
      util::SimTime to, std::size_t points = 64);

  // --- streaming dataflows --------------------------------------------------------

  /// The deployment wires its FlowManager in; null leaves the flow
  /// operations failing with kUnavailable.
  void set_flow_manager(flow::FlowManager* flows) { flows_ = flows; }
  [[nodiscard]] flow::FlowManager* flow_manager() { return flows_; }

  /// "Create Flow": compile, place and start a streaming dataflow.
  util::Status create_flow(const flow::FlowSpec& spec);
  util::Status destroy_flow(const std::string& name);
  std::vector<flow::FlowStats> list_flows();
  util::Result<flow::FlowStats> flow_stats(const std::string& name);

  /// Info card for the browser's "Sensor Service Information" pane.
  util::Result<SensorInfo> service_information(const std::string& name);

  /// Containment tree (Fig 3) rooted at a composite.
  std::string topology(const std::string& root, bool with_values = false);

  [[nodiscard]] SensorNetworkManager& manager() { return manager_; }
  [[nodiscard]] sorcer::ServiceAccessor& accessor() { return accessor_; }

 private:
  /// An idle request shell renewed, or a new one (counted in
  /// facade.tasks_built) when none is idle; the caller names and signs it.
  std::shared_ptr<sorcer::Task> take_task();
  /// A read task pinned to the provider `name`.
  std::shared_ptr<sorcer::Task> read_task(std::string_view name);
  /// A historian `selector` query task about `sensor` over [from, to),
  /// with `extra` at `extra_path` (the resolution or point count).
  std::shared_ptr<sorcer::Task> hist_task(const char* selector,
                                          const std::string& sensor,
                                          util::SimTime from, util::SimTime to,
                                          std::int64_t extra,
                                          const char* extra_path);
  /// Keep `task` for a later request when the façade is its sole holder,
  /// its reply columns fit hist::kMaxKeptPoints and the idle list has
  /// room; otherwise let it go.
  void give_back(std::shared_ptr<sorcer::Task> task);

  /// A historian query task for `sensor`, exerted under a
  /// "facade.<selector>:<sensor>" span; its status says how it ended.
  std::shared_ptr<sorcer::Task> exert_hist_query(const char* selector,
                                                 const std::string& sensor,
                                                 util::SimTime from,
                                                 util::SimTime to,
                                                 std::int64_t extra,
                                                 const char* extra_path);

  sorcer::ServiceAccessor& accessor_;
  SensorNetworkManager& manager_;
  SensorServiceProvisioner* provisioner_;
  flow::FlowManager* flows_ = nullptr;

  /// Request shells between requests, like each CSP's collection job: a
  /// warm request allocates only what it hands back to its caller.
  std::mutex idle_mu_;
  std::vector<std::shared_ptr<sorcer::Task>> idle_tasks_;
};

}  // namespace sensorcer::core
