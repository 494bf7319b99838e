// Experiment CLM-5 (§IV.C): "Rio provisioning services additionally provide
// pluggable load distribution and resource utilization analysis mechanisms
// to effectively make use of resources on the network."
//
// Deploys waves of sensor services over a cybernode fleet and reports
// placement success, load balance (max/mean node utilization — 1.0 is
// perfect) and QoS-constrained placement behaviour. Expected shape: the
// least-utilized placement policy keeps max/mean near 1; QoS labels restrict
// candidates without affecting balance among the eligible nodes.

#include <cstdio>

#include "util/strings.h"
#include "core/deployment.h"

using namespace sensorcer;

namespace {

double balance(const std::vector<std::shared_ptr<rio::Cybernode>>& nodes) {
  double max_util = 0, sum = 0;
  std::size_t alive = 0;
  for (const auto& node : nodes) {
    if (!node->is_alive()) continue;
    max_util = std::max(max_util, node->utilization());
    sum += node->utilization();
    ++alive;
  }
  const double mean = alive ? sum / static_cast<double>(alive) : 0;
  return mean > 0 ? max_util / mean : 0;
}

}  // namespace

int main() {
  std::puts("=== CLM-5: QoS-matched provisioning and load distribution ===\n");

  std::puts("Load balance over homogeneous fleets:");
  std::vector<std::vector<std::string>> rows;
  for (std::size_t nodes : {2u, 4u, 8u}) {
    for (std::size_t services : {4u, 16u, 48u}) {
      core::DeploymentConfig config;
      config.cybernodes = nodes;
      config.cybernode_capability = {16.0, 16384.0, "x86_64", {}};
      core::Deployment lab(config);

      rio::QosRequirement qos{0.25, 64.0, "", {}};
      std::size_t placed = 0;
      for (std::size_t i = 0; i < services; ++i) {
        if (lab.provisioner()
                .provision_composite("svc-" + std::to_string(i), qos)
                .is_ok()) {
          ++placed;
        }
      }
      lab.pump(util::kSecond);
      rows.push_back({std::to_string(nodes), std::to_string(services),
                      util::format("%zu/%zu", placed, services),
                      util::format("%.3f", balance(lab.cybernodes()))});
    }
  }
  std::puts(util::render_table(
                {"cybernodes", "services", "placed", "max/mean util"}, rows)
                .c_str());

  std::puts("QoS-constrained placement (heterogeneous fleet):");
  {
    core::DeploymentConfig config;
    config.cybernodes = 0;  // build the fleet by hand
    core::Deployment lab(config);
    struct Spec {
      const char* name;
      rio::QosCapability cap;
    };
    const Spec specs[] = {
        {"big-x86", {8.0, 8192.0, "x86_64", {"datacenter"}}},
        {"small-x86", {2.0, 1024.0, "x86_64", {"edge"}}},
        {"arm-edge", {2.0, 1024.0, "arm64", {"edge"}}},
    };
    std::vector<std::shared_ptr<rio::Cybernode>> fleet;
    for (const auto& spec : specs) {
      auto node = std::make_shared<rio::Cybernode>(spec.name, spec.cap);
      for (const auto& lus : lab.lookups()) {
        (void)node->join(lus, lab.lease_renewal(), 3600 * util::kSecond);
      }
      fleet.push_back(std::move(node));
    }

    struct Want {
      const char* name;
      rio::QosRequirement qos;
    };
    const Want wants[] = {
        {"anywhere", {0.5, 64.0, "", {}}},
        {"edge-only", {0.5, 64.0, "", {"edge"}}},
        {"arm-edge-only", {0.5, 64.0, "arm64", {"edge"}}},
        {"impossible", {0.5, 64.0, "riscv", {}}},
        {"too-big", {32.0, 64.0, "", {}}},
    };
    std::vector<std::vector<std::string>> qrows;
    for (const auto& want : wants) {
      auto status = lab.provisioner().provision_composite(want.name, want.qos);
      lab.pump(200 * util::kMillisecond);
      std::string host = "-";
      for (const auto& node : fleet) {
        for (const auto& svc : node->hosted()) {
          if (svc->provider_name() == want.name) host = node->provider_name();
        }
      }
      qrows.push_back({want.name, want.qos.to_string(),
                       status.is_ok() ? "placed" : status.to_string(), host});
    }
    std::puts(util::render_table({"service", "requirement", "result", "host"},
                                 qrows)
                  .c_str());
  }
  std::puts("Expected shape: homogeneous fleets balance to max/mean ≈ 1; "
            "label/arch constraints steer placement; unsatisfiable QoS "
            "fails with CAPACITY instead of mis-placing.");
  return 0;
}
