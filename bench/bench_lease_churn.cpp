// Experiment CLM-3 (§IV.B): "This mechanism of leasing keeps the sensor
// network healthy and robust ... the existing services that are disabled are
// automatically disposed from the sensor network."
//
// Simulates a churning population of sensor services: services join, live
// for a random time, then either leave cleanly or crash (stop renewing).
// Every service hands its lease to the real LeaseRenewalManager, which
// renews through per-(shard, window) renewAll batches. Sweeps the lease
// duration and reports, per setting: how long crashed services lingered as
// stale registry entries (detection latency), and the renewal traffic paid
// for freshness against its bound of one message per shard per due window.
// Expected shape: stale time ~ lease duration (bounded by lease + sweep),
// renewal message rate ~ 1/duration, and the registry converges to exactly
// the still-alive population.
//
// `bench_lease_churn smoke` runs only the harshest setting (300 services,
// 1s leases) and exits nonzero unless the renewAll messages stay within
// shards x due windows and the registry converges — CI's renewal-traffic
// regression gate.

#include <cstdio>
#include <cstring>
#include <limits>

#include "obs/metrics.h"
#include "registry/lease_renewal.h"
#include "registry/lookup.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace sensorcer;
using registry::LookupService;

namespace {

class NullProxy : public registry::ServiceProxy {};

registry::ServiceItem make_item(const std::string& name) {
  registry::ServiceItem item;
  item.id = util::new_uuid();
  item.proxy = std::make_shared<NullProxy>();
  item.types = {"Servicer", "SensorDataAccessor"};
  item.attributes.set(registry::attr::kName, name);
  return item;
}

struct ChurnResult {
  double stale_mean = 0.0;  // crash -> disposed (seconds)
  double stale_max = 0.0;
  std::uint64_t renewal_msgs = 0;   // renewAll wire messages
  std::uint64_t renewal_bound = 0;  // shards x due windows in the run
  std::size_t final_population = 0;
  std::size_t expected_population = 0;
};

ChurnResult run_churn(util::SimDuration lease) {
  util::Scheduler sched;
  auto lus = std::make_shared<LookupService>("lus", sched);
  // The renewal window tracks the half-life: every renewal falling due
  // within half a lease rides the same per-shard renewAll message.
  const util::SimDuration window = lease / 2;
  registry::LeaseRenewalManager lrm(sched, registry::LeaseBatchConfig{window});
  util::Rng rng(static_cast<std::uint64_t>(lease) * 7919 + 1);

  ChurnResult result;
  // Stale-time distribution straight into an obs histogram (sum/mean/max are
  // exact; bounds in seconds).
  obs::Registry run_metrics;
  obs::Histogram& stale = run_metrics.histogram(
      "lease.stale_seconds", {0.5, 1, 2, 5, 10, 20, 40, 80, 160});
  struct Crashed {
    registry::ServiceId id;
    util::SimTime crashed_at;
  };
  std::vector<Crashed> crashed;

  // Watch disposals to time stale entries.
  lus->notify(
      registry::ServiceTemplate{},
      static_cast<unsigned>(registry::Transition::kMatchToNoMatch),
      [&](const registry::ServiceEvent& ev) {
        for (auto it = crashed.begin(); it != crashed.end(); ++it) {
          if (it->id == ev.item.id) {
            stale.observe(static_cast<double>(ev.timestamp - it->crashed_at) /
                          util::kSecond);
            crashed.erase(it);
            return;
          }
        }
      },
      3600 * util::kSecond);

  constexpr int kServices = 300;
  std::size_t alive_forever = 0;
  for (int i = 0; i < kServices; ++i) {
    auto reg =
        lus->register_service(make_item("s" + std::to_string(i)), lease);
    lrm.manage(reg.lease, lus, lease);

    // Fate: 60% crash at a random time, 20% leave cleanly, 20% live on.
    const double fate = rng.next_double();
    const auto lifetime = static_cast<util::SimDuration>(
        rng.between(1, 60)) * util::kSecond;
    const auto lease_id = reg.lease.id;
    if (fate < 0.6) {
      // Crash: renewals stop (release), the stale entry lingers until the
      // lease runs out. Mark for stale-time measurement.
      sched.schedule_at(sched.now() + lifetime,
                        [&crashed, &lrm, &sched, lease_id,
                         id = reg.service_id] {
                          lrm.release(lease_id);
                          crashed.push_back({id, sched.now()});
                        });
    } else if (fate < 0.8) {
      // Clean leave: cancel at the LUS immediately at end of life.
      sched.schedule_at(sched.now() + lifetime,
                        [&lrm, lease_id] { lrm.cancel(lease_id); });
    } else {
      ++alive_forever;
    }
    sched.run_for(100 * util::kMillisecond);  // staggered joins
  }

  sched.run_for(120 * util::kSecond);  // all lifetimes + leases settle
  result.stale_mean = stale.mean();
  result.stale_max = stale.max();
  result.renewal_msgs = lrm.batches_sent();
  result.renewal_bound =
      lus->shard_count() * static_cast<std::uint64_t>(sched.now() / window);
  result.final_population = lus->service_count();
  result.expected_population = alive_forever;
  return result;
}

int run_sweep() {
  std::puts("=== CLM-3: leasing keeps the network healthy (§IV.B) ===\n");
  std::puts("300 services; 60% crash, 20% leave cleanly, 20% stay; "
            "virtual-time simulation.");
  std::puts("Renewals via LeaseRenewalManager: one renewAll per (shard, "
            "half-life window); bound = shards x due windows in the run.\n");
  std::vector<std::vector<std::string>> rows;
  for (util::SimDuration lease :
       {1 * util::kSecond, 2 * util::kSecond, 5 * util::kSecond,
        10 * util::kSecond, 30 * util::kSecond}) {
    const ChurnResult churn = run_churn(lease);
    rows.push_back({
        util::format_duration(lease),
        util::format("%.2fs", churn.stale_mean),
        util::format("%.2fs", churn.stale_max),
        std::to_string(churn.renewal_msgs),
        std::to_string(churn.renewal_bound),
        util::format("%zu / %zu", churn.final_population,
                     churn.expected_population),
    });
  }
  std::puts(util::render_table({"lease", "mean stale", "max stale",
                                "renewAll msgs", "bound",
                                "final pop (got/want)"},
                               rows)
                .c_str());
  std::puts("Expected shape: stale window grows with lease duration; renewal "
            "traffic shrinks with it and stays within one message per shard "
            "per due window; the registry always converges to exactly the "
            "still-alive population (self-healing).");
  return 0;
}

int run_smoke() {
  // CI gate at CLM-3's harshest point: 300 services renewing 1s leases.
  const ChurnResult churn = run_churn(1 * util::kSecond);
  std::printf("smoke: 300 services, 1s leases: %llu renewAll msgs "
              "(bound %llu = shards x due windows)\n",
              static_cast<unsigned long long>(churn.renewal_msgs),
              static_cast<unsigned long long>(churn.renewal_bound));
  std::printf("smoke: convergence %zu/%zu\n", churn.final_population,
              churn.expected_population);
  bool ok = true;
  if (churn.renewal_msgs > churn.renewal_bound) {
    std::puts("FAIL: renewal must send at most one renewAll per shard per "
              "due window");
    ok = false;
  }
  if (churn.final_population != churn.expected_population) {
    std::puts("FAIL: the registry must converge to the still-alive "
              "population");
    ok = false;
  }
  std::puts(ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "smoke") == 0) return run_smoke();
  return run_sweep();
}
