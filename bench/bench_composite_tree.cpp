// Experiment CLM-7 (§V.B): "CSP's ability to contain other CSPs makes
// logical sensor networking possible ... the semantics of network management
// in SenSORCER is reduced to the management of a single CSP."
//
// Builds balanced composite trees over zero-noise sensors, sweeps depth and
// fan-out, checks the root value against the analytic oracle, and measures
// the modeled read latency for parallel versus sequential child collection.
// Expected shape: parallel collection cost grows with depth (one fan-out
// level at a time), sequential with the full leaf count; values are exact.

#include <cmath>
#include <cstdio>

#include "util/strings.h"
#include "core/deployment.h"

using namespace sensorcer;

namespace {

/// Builds a `depth`-level tree with `fanout` children per composite; leaves
/// are zero-noise sensors with base values 10, 11, 12, ... Returns the
/// number of leaves.
std::size_t build_tree(core::Deployment& lab, const std::string& name,
                       std::size_t depth, std::size_t fanout,
                       std::size_t& leaf_counter,
                       sorcer::Flow flow) {
  core::CollectionPolicy policy;
  policy.strategy.flow = flow;
  auto composite = std::make_shared<core::CompositeSensorProvider>(
      name, lab.accessor(), lab.scheduler(), policy);
  composite->attach_network(lab.network());
  for (const auto& lus : lab.lookups()) {
    (void)composite->join(lus, lab.lease_renewal(), 3600 * util::kSecond);
  }
  lab.manager().adopt(composite);

  std::size_t leaves = 0;
  for (std::size_t i = 0; i < fanout; ++i) {
    if (depth == 1) {
      const std::size_t leaf = leaf_counter++;
      sensor::SignalModel model;
      model.base = 10.0 + static_cast<double>(leaf);
      model.amplitude = 0.0;
      model.noise_stddev = 0.0;
      sensor::Teds teds{sensor::SensorKind::kTemperature, "bench", "zero",
                        std::to_string(leaf), -1e6, 1e6, 0.1, 0};
      const std::string leaf_name = "leaf-" + std::to_string(leaf);
      lab.add_sensor(leaf_name,
                     std::make_unique<sensor::SimulatedProbe>(
                         sensor::SimulatedDevice{teds, model, leaf + 1}));
      (void)composite->add_component(leaf_name);
      ++leaves;
    } else {
      const std::string child = name + "." + std::to_string(i);
      leaves += build_tree(lab, child, depth - 1, fanout, leaf_counter, flow);
      (void)composite->add_component(child);
    }
  }
  return leaves;
}

}  // namespace

int main() {
  std::puts("=== CLM-7: nested composite aggregation trees ===\n");
  std::vector<std::vector<std::string>> rows;
  for (std::size_t depth : {1u, 2u, 3u, 4u}) {
    for (std::size_t fanout : {2u, 4u, 8u}) {
      if (std::pow(static_cast<double>(fanout),
                   static_cast<double>(depth)) > 600) {
        continue;
      }
      double latencies[2];
      double value = 0;
      std::size_t leaves = 0;
      for (sorcer::Flow flow :
           {sorcer::Flow::kParallel, sorcer::Flow::kSequence}) {
        core::DeploymentConfig config;
        config.sampling.sample_period = 0;  // on-demand reads only
        core::Deployment lab(config);
        std::size_t counter = 0;
        leaves = build_tree(lab, "root", depth, fanout, counter, flow);

        auto task = sorcer::Task::make(
            "read", sorcer::Signature{core::kSensorDataAccessorType,
                                      core::op::kGetValue, "root"});
        (void)sorcer::exert(task, lab.accessor());
        if (task->status() != sorcer::ExertStatus::kDone) {
          std::printf("FAILED: %s\n", task->error().to_string().c_str());
          return 1;
        }
        value = task->context().get_double(core::path::kValue).value_or(-1);
        latencies[flow == sorcer::Flow::kParallel ? 0 : 1] =
            static_cast<double>(task->latency()) / util::kMillisecond;
      }
      // Oracle: average of averages over equal-size subtrees = global mean
      // of leaf bases 10..10+leaves-1.
      const double oracle =
          10.0 + static_cast<double>(leaves - 1) / 2.0;
      rows.push_back({std::to_string(depth), std::to_string(fanout),
                      std::to_string(leaves),
                      util::format("%.3f", value),
                      std::fabs(value - oracle) < 1e-9 ? "exact" : "WRONG",
                      util::format("%.1f ms", latencies[0]),
                      util::format("%.1f ms", latencies[1])});
    }
  }
  std::puts(util::render_table({"depth", "fanout", "leaves", "root value",
                                "vs oracle", "parallel read", "sequential read"},
                               rows)
                .c_str());
  std::puts("Expected shape: root value exactly the leaf mean at every shape; "
            "parallel read cost grows with depth, sequential with leaf count.");
  return 0;
}
