// Air-vehicle fleet — the application the paper's conclusion announces:
// "we are planning for large-scale air vehicles distributed applications"
// (work funded by the Air Force Research Lab, Air Vehicles Directorate).
//
// Each vehicle exposes altitude, airspeed and outside-air-temperature
// probes; a per-vehicle composite computes an energy-state metric; a
// fleet-level composite tracks the fleet. Mid-flight, the cybernode hosting
// the fleet composite fails and Rio re-provisions it on another node while
// the vehicles keep flying.

#include <cstdio>

#include "core/deployment.h"

using namespace sensorcer;

namespace {

void deploy_vehicle(core::Deployment& lab, const std::string& tail,
                    std::uint64_t seed, double cruise_alt,
                    double cruise_speed) {
  lab.add_sensor(tail + "/altitude",
                 sensor::make_altitude_probe(tail, seed, cruise_alt),
                 "airspace");
  lab.add_sensor(tail + "/airspeed",
                 sensor::make_airspeed_probe(tail, seed + 1, cruise_speed),
                 "airspace");
  lab.add_sensor(tail + "/oat",
                 sensor::make_temperature_probe(tail, seed + 2, -5.0),
                 "airspace");

  lab.facade().create_local_service(tail + "/air-data");
  (void)lab.facade().compose_service(
      tail + "/air-data",
      {tail + "/altitude", tail + "/airspeed", tail + "/oat"});
  // Specific energy height: h + v^2 / (2g), in metres.
  (void)lab.facade().add_expression(tail + "/air-data",
                                    "a + b ^ 2 / (2 * 9.81)");
}

}  // namespace

int main() {
  core::DeploymentConfig config;
  config.cybernodes = 3;
  config.lease_duration = 2 * util::kSecond;
  core::Deployment lab(config);

  std::puts("=== Air-vehicle fleet (conclusion's target application) ===\n");
  deploy_vehicle(lab, "AV-101", 500, 3000.0, 60.0);
  deploy_vehicle(lab, "AV-102", 600, 3200.0, 65.0);
  deploy_vehicle(lab, "AV-103", 700, 2800.0, 55.0);
  lab.pump(2 * util::kSecond);

  // Fleet watch runs on a Rio cybernode so it survives node failures.
  rio::QosRequirement qos{1.0, 256.0, "", {}};
  if (!lab.facade().create_service("fleet/energy-watch", qos).is_ok()) {
    std::puts("provisioning failed");
    return 1;
  }
  lab.pump(util::kSecond);
  (void)lab.facade().compose_service(
      "fleet/energy-watch",
      {"AV-101/air-data", "AV-102/air-data", "AV-103/air-data"});
  (void)lab.facade().add_expression("fleet/energy-watch", "min(a, b, c)");

  std::puts("Fleet status (min specific-energy height across vehicles):");
  std::puts(lab.facade().topology("fleet/energy-watch", true).c_str());

  // Mid-flight infrastructure failure.
  std::string failed_node;
  for (const auto& node : lab.cybernodes()) {
    if (node->hosted_count() > 0) {
      failed_node = node->provider_name();
      node->fail();
      break;
    }
  }
  std::printf("\n*** cybernode '%s' failed mid-flight ***\n",
              failed_node.c_str());
  lab.pump(10 * util::kSecond);
  std::printf("monitor re-provisioned %llu instance(s)\n\n",
              static_cast<unsigned long long>(
                  lab.monitor().reprovision_count()));

  // Rio restored the service (fresh instance); ground control re-issues the
  // watch configuration — the vehicles and their composites were never
  // affected.
  (void)lab.facade().compose_service(
      "fleet/energy-watch",
      {"AV-101/air-data", "AV-102/air-data", "AV-103/air-data"});
  (void)lab.facade().add_expression("fleet/energy-watch", "min(a, b, c)");

  auto value = lab.facade().get_value("fleet/energy-watch");
  if (!value.is_ok()) {
    std::printf("fleet watch lost: %s\n", value.status().to_string().c_str());
    return 1;
  }
  std::printf("fleet watch recovered on another cybernode: "
              "min energy height = %.0f m\n\n",
              value.value());
  std::puts(lab.facade().topology("fleet/energy-watch", true).c_str());
  return 0;
}
