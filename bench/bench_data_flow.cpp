// Experiment CLM-10 (§II.2, §II.4, §VII): data-flow reversal — many sensor
// producers, few consumers. A data-collection client either polls every
// sensor directly (the paper's travelling "data collection specialist",
// §II.2) or reads one composite service whose federation does the fan-out
// (S2S transfer "from node to node without any user intervention", §VII).
//
// Measures messages and wire bytes at the client's collection point and the
// modeled collection latency, sweeping the sensor population. Expected
// shape: direct polling costs Θ(N) messages and bytes at the client and
// Θ(N) sequential latency; the composite costs O(1) at the client with
// latency dominated by one parallel fan-out level.

#include <cstdio>

#include "util/strings.h"
#include "core/deployment.h"

using namespace sensorcer;

int main() {
  std::puts("=== CLM-10: data-flow reversal — direct polling vs composite ===\n");
  std::vector<std::vector<std::string>> rows;
  for (std::size_t sensors : {10u, 50u, 100u, 500u, 1000u}) {
    core::DeploymentConfig config;
    config.sampling.sample_period = 0;
    core::Deployment lab(config);

    std::vector<std::shared_ptr<core::ElementarySensorProvider>> fleet;
    for (std::size_t i = 0; i < sensors; ++i) {
      auto esp = lab.add_temperature_sensor("field-" + std::to_string(i),
                                            15.0 + 0.01 * static_cast<double>(i));
      esp->attach_network(lab.network());
      fleet.push_back(std::move(esp));
    }
    auto csp = lab.manager().create_composite("Farm");
    csp->attach_network(lab.network());
    for (std::size_t i = 0; i < sensors; ++i) {
      (void)csp->add_component("field-" + std::to_string(i));
    }

    // Direct polling: the client sends one getValue task per sensor.
    lab.network().reset_stats();
    util::SimDuration direct_latency = 0;
    for (std::size_t i = 0; i < sensors; ++i) {
      auto task = sorcer::Task::make(
          "t", sorcer::Signature{core::kSensorDataAccessorType,
                                 core::op::kGetValue,
                                 "field-" + std::to_string(i)});
      (void)sorcer::exert(task, lab.accessor());
      direct_latency += task->latency();
    }
    const auto direct = lab.network().totals();

    // Composite read: one task to the CSP; the federation fans out.
    lab.network().reset_stats();
    auto read = sorcer::Task::make(
        "t", sorcer::Signature{core::kSensorDataAccessorType,
                               core::op::kGetValue, "Farm"});
    (void)sorcer::exert(read, lab.accessor());
    if (read->status() != sorcer::ExertStatus::kDone) {
      std::printf("composite read failed: %s\n",
                  read->error().to_string().c_str());
      return 1;
    }
    const auto composite = lab.network().totals();

    // Client-side cost of the composite path is the single request/response
    // with the CSP; the rest is S2S traffic inside the federation.
    rows.push_back({
        std::to_string(sensors),
        std::to_string(direct.messages_sent),
        util::format("%.1f KB", static_cast<double>(
                                    direct.wire_bytes_sent()) / 1024.0),
        util::format_duration(direct_latency),
        std::to_string(composite.messages_sent),
        util::format("%.1f KB",
                     static_cast<double>(composite.wire_bytes_sent()) /
                         1024.0),
        util::format_duration(read->latency()),
    });
  }
  std::puts(util::render_table({"sensors", "poll msgs", "poll bytes",
                                "poll latency", "fed msgs", "fed bytes",
                                "fed latency"},
                               rows)
                .c_str());
  std::puts("Note: 'fed msgs/bytes' count the whole federation's S2S "
            "traffic; the client itself exchanges exactly one request and "
            "one response. Expected shape: polling latency Θ(N) vs "
            "near-flat federated latency (parallel fan-out); the client's "
            "collection point is relieved of the data-flow reversal.");
  return 0;
}
