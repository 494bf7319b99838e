// Flow placement bench (ISSUE 6 tentpole): wire bytes of an edge-fused
// filter/window pipeline vs shipping every raw reading to a central relay,
// sweeping the stage reduction (emission fraction) and the sensor count.
//
// Each configuration runs the same flow three times on a fresh kWire
// deployment — no flow (background baseline: leases, discovery, historian
// feeders), forced-central, forced-edge — and attributes the byte delta
// over the baseline to the flow. A count-`K` mean window emits exactly one
// reading per K inputs, so the sweep points are deterministic despite the
// sensors' noisy signals. The acceptance bound is a ≥5x wire-byte cut for
// the edge placement at 10% reduction (K=10).
//
// `bench_flow smoke` runs a seconds-scale subset (CI under ASan).

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "flow/placement.h"
#include "flow/spec.h"
#include "obs/metrics.h"
#include "util/strings.h"

using namespace sensorcer;

namespace {

std::uint64_t wire_bytes(core::Deployment& lab) {
  const auto totals = lab.network().totals();
  return totals.payload_bytes_sent + totals.header_bytes_sent;
}

flow::FlowSpec spec_for(std::size_t sensors, std::size_t window_count) {
  flow::FlowSpec spec;
  spec.name = "sweep";
  for (std::size_t i = 0; i < sensors; ++i) {
    spec.sensors.push_back("Flow-S" + std::to_string(i));
  }
  if (window_count > 1) {
    spec.window.kind = flow::WindowKind::kCount;
    spec.window.count = window_count;
    spec.window.aggregate = flow::Aggregate::kMean;
  }
  return spec;
}

/// Wire bytes sent over `span` of virtual time by a deployment hosting
/// `sensors` temperature sensors — with the flow placed as requested, or
/// with no flow at all (the background baseline).
std::uint64_t measure(std::size_t sensors, std::size_t window_count,
                      std::optional<flow::Placement> placement,
                      util::SimDuration span) {
  core::DeploymentConfig config;
  // Emission latency is not under test: let the sink batch a half-minute of
  // emissions per appendBatch (applies to both placements alike) so the
  // comparison measures steady-state bytes, not per-call envelope overhead.
  config.flow.sink.flush_period = 30 * util::kSecond;
  core::Deployment lab(config);
  for (std::size_t i = 0; i < sensors; ++i) {
    lab.add_temperature_sensor("Flow-S" + std::to_string(i), 20.0);
  }
  if (placement) {
    flow::FlowSpec spec = spec_for(sensors, window_count);
    spec.placement = *placement;
    const auto status = lab.facade().create_flow(spec);
    if (!status.is_ok()) {
      std::printf("FAIL: create_flow: %s\n", status.message().c_str());
      std::exit(1);
    }
  }
  const std::uint64_t before = wire_bytes(lab);
  lab.pump(span);
  return wire_bytes(lab) - before;
}

void bench_placement_sweep(bool smoke) {
  const util::SimDuration span = (smoke ? 60 : 300) * util::kSecond;
  const std::vector<std::size_t> sensor_counts =
      smoke ? std::vector<std::size_t>{4} : std::vector<std::size_t>{4, 16};
  const std::vector<std::size_t> windows =
      smoke ? std::vector<std::size_t>{1, 10}
            : std::vector<std::size_t>{1, 2, 10, 100};

  std::puts("Flow wire bytes over the span, central relay vs edge-fused");
  std::puts("stages, net of the no-flow baseline (leases, discovery,");
  std::puts("historian feeders). reduction = emissions per input reading:");
  for (const std::size_t sensors : sensor_counts) {
    const std::uint64_t baseline = measure(sensors, 1, std::nullopt, span);
    std::printf("\n%zu sensors, %s span, baseline %llu B:\n", sensors,
                util::format_duration(span).c_str(),
                static_cast<unsigned long long>(baseline));
    std::vector<std::vector<std::string>> rows;
    double cut_at_tenth = 0.0;
    for (const std::size_t window : windows) {
      const std::uint64_t central =
          measure(sensors, window, flow::Placement::kForceCentral, span) -
          baseline;
      const std::uint64_t edge =
          measure(sensors, window, flow::Placement::kForceEdge, span) -
          baseline;
      const double cut = edge > 0 ? static_cast<double>(central) /
                                        static_cast<double>(edge)
                                  : 0.0;
      rows.push_back({util::format("%.2f", 1.0 / static_cast<double>(window)),
                      std::to_string(central), std::to_string(edge),
                      util::format("%.1fx", cut)});
      if (window == 10) cut_at_tenth = cut;
    }
    std::puts(util::render_table(
                  {"reduction", "central flow B", "edge flow B", "edge cut"},
                  rows)
                  .c_str());
    if (cut_at_tenth < 5.0) {
      std::printf("FAIL: edge cut %.1fx < 5x at 10%% reduction\n",
                  cut_at_tenth);
      std::exit(1);
    }
  }
  std::puts("Expected shape: central cost is flat in the reduction (every raw");
  std::puts("reading crosses the fabric) while edge cost tracks it linearly,");
  std::puts("so the cut grows as the stages discard more — crossing 5x well");
  std::puts("before 10% reduction.");
}

void bench_cost_model(bool smoke) {
  std::puts("\nPlacement cost model: kAuto decision across the same sweep");
  std::puts("(2 backbone nodes at 0.1 util, 1 edge-labeled node):");
  const std::vector<flow::NodeLoad> fleet = {{"cn-a", 0.1, false},
                                             {"cn-b", 0.3, false},
                                             {"cn-edge", 0.0, true}};
  const std::vector<std::size_t> windows =
      smoke ? std::vector<std::size_t>{1, 10}
            : std::vector<std::size_t>{1, 2, 10, 100};
  std::vector<std::vector<std::string>> rows;
  for (const std::size_t window : windows) {
    flow::FlowSpec spec = spec_for(8, window);
    const auto plan = flow::plan_placement(spec, util::kSecond, fleet);
    rows.push_back({util::format("%.2f", plan.stage_reduction),
                    util::format("%.1f", plan.edge_cost),
                    util::format("%.1f", plan.central_cost),
                    plan.edge ? "edge" : "central"});
  }
  std::puts(util::render_table(
                {"reduction", "edge cost", "central cost", "decision"}, rows)
                .c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  std::printf(
      "=== flow: edge-placed stages vs ship-everything-raw wire cost%s ===\n\n",
      smoke ? " (smoke)" : "");
  bench_placement_sweep(smoke);
  bench_cost_model(smoke);
  return 0;
}
