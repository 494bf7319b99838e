// Experiment CHAOS-1 (§IV.C, §VII): seeded fault-injection sweeps against a
// provisioned deployment. Replays a scripted chaos schedule — node kills and
// flaps, management-plane partitions, loss bursts, lease storms, Jobber
// kills — on the virtual-time scheduler and audits the invariants
// (convergence, at-most-once exertions, reading conservation,
// renewed-or-lapsed leases) at quiesce.
//
//   bench_chaos            full sweep: seeds x fleet sizes -> table
//   bench_chaos smoke      one deterministic 100-provider run; exit 1 on
//                          any violated invariant (the CI gate)
//
// Wall-clock per cell is reported alongside the virtual-time results so the
// simulation cost of the chaos harness itself is tracked over time.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/orchestrator.h"
#include "core/deployment.h"
#include "util/strings.h"

using namespace sensorcer;

namespace {

struct CellResult {
  chaos::InvariantReport report;
  std::size_t events = 0;
  double wall_ms = 0;
};

CellResult run_cell(std::uint64_t seed, std::size_t providers,
                    std::size_t cybernodes, util::SimDuration duration) {
  core::DeploymentConfig dconfig;
  dconfig.cybernodes = cybernodes;
  dconfig.seed = seed;
  core::Deployment lab(dconfig);

  chaos::ChaosConfig config;
  config.seed = seed;
  config.providers = providers;
  config.schedule.duration = duration;
  chaos::ChaosOrchestrator orchestrator(lab, config);

  const auto t0 = std::chrono::steady_clock::now();
  CellResult cell;
  cell.report = orchestrator.run();
  cell.events = orchestrator.events().size();
  cell.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  return cell;
}

int run_smoke() {
  std::puts("=== CHAOS-1 smoke: seeded 100-provider run, invariant gate ===");
  const auto cell = run_cell(/*seed=*/7, /*providers=*/100,
                             /*cybernodes=*/12, 60 * util::kSecond);
  std::puts(cell.report.render().c_str());
  std::printf("events applied: %llu / %zu   wall: %.0f ms\n",
              static_cast<unsigned long long>(cell.report.events_applied),
              cell.events, cell.wall_ms);
  if (!cell.report.ok()) {
    std::puts("SMOKE FAILED: invariant violated");
    return 1;
  }
  std::puts("SMOKE OK");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "smoke") == 0) return run_smoke();
  if (argc > 1 && std::strcmp(argv[1], "probe") == 0) {
    // bench_chaos probe [providers] [duration_s] [nodes] [seed] — one cell,
    // for sizing experiments.
    const std::size_t providers =
        argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 25;
    const util::SimDuration duration =
        (argc > 3 ? std::atoi(argv[3]) : 30) * util::kSecond;
    const std::size_t nodes =
        argc > 4 ? static_cast<std::size_t>(std::atoi(argv[4])) : 8;
    const std::uint64_t seed =
        argc > 5 ? static_cast<std::uint64_t>(std::atoll(argv[5])) : 7;
    core::DeploymentConfig dconfig;
    dconfig.cybernodes = nodes;
    dconfig.seed = seed;
    core::Deployment lab(dconfig);
    chaos::ChaosConfig config;
    config.seed = seed;
    config.providers = providers;
    config.schedule.duration = duration;
    chaos::ChaosOrchestrator orchestrator(lab, config);
    if (!orchestrator.setup().is_ok()) return 2;
    std::puts(orchestrator.render_events().c_str());
    std::fflush(stdout);
    const auto t0 = std::chrono::steady_clock::now();
    const auto report = orchestrator.run();
    std::puts(report.render().c_str());
    std::printf("wall: %.0f ms\n",
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
    return report.ok() ? 0 : 1;
  }

  std::puts("=== CHAOS-1: fault-schedule sweep — convergence & invariants ===\n");
  std::vector<std::vector<std::string>> rows;
  bool all_ok = true;
  for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
    for (std::size_t providers : {25u, 50u, 100u}) {
      const auto cell =
          run_cell(seed, providers, /*cybernodes=*/12, 60 * util::kSecond);
      all_ok = all_ok && cell.report.ok();
      rows.push_back(
          {std::to_string(seed), std::to_string(providers),
           std::to_string(cell.events),
           std::to_string(cell.report.exertions_issued),
           std::to_string(cell.report.readings_expected),
           std::to_string(cell.report.reprovisions),
           std::to_string(cell.report.cascades),
           std::to_string(cell.report.degraded),
           cell.report.ok() ? (cell.report.converged ? "converged" : "?")
                            : "VIOLATED",
           util::format("%.0f ms", cell.wall_ms)});
    }
  }
  std::puts(util::render_table({"seed", "providers", "events", "exertions",
                                "readings", "reprovisions", "cascades",
                                "degraded", "outcome", "wall"},
                               rows)
                .c_str());
  std::puts(all_ok
                ? "All sweeps converged with invariants intact: every planned "
                  "instance re-placed or explicitly degraded, no "
                  "double-executed exertion, no lost or duplicated reading, "
                  "no lease outliving its holder."
                : "INVARIANT VIOLATIONS — see table");
  return all_ok ? 0 : 1;
}
