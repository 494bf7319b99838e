// Tests for the Deployment bootstrapping object and configuration variants,
// plus a randomized scheduler property check against a reference model.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <map>

#include "core/deployment.h"
#include "util/rng.h"

namespace sensorcer::core {
namespace {

using util::kSecond;

TEST(DeploymentConfigTest, DefaultBootsTheFullStack) {
  Deployment lab;
  EXPECT_EQ(lab.lookups().size(), 1u);
  EXPECT_EQ(lab.cybernodes().size(), 2u);
  EXPECT_NE(lab.pool(), nullptr);
  // Rendezvous peers, monitor and facade are registered.
  for (const char* type :
       {"Jobber", "Spacer", "ProvisionMonitor", kFacadeType}) {
    EXPECT_TRUE(lab.accessor()
                    .find_item(registry::ServiceTemplate::by_type(type))
                    .is_ok())
        << type;
  }
}

TEST(DeploymentConfigTest, NoThreadsMeansNoPool) {
  DeploymentConfig config;
  config.worker_threads = 0;
  Deployment lab(config);
  EXPECT_EQ(lab.pool(), nullptr);
  // Everything still works inline.
  lab.add_temperature_sensor("S");
  EXPECT_TRUE(lab.facade().get_value("S").is_ok());
}

TEST(DeploymentConfigTest, NestedCompositeTreeReadsUnderTheDefaultPool) {
  // Root -> 4 composites -> 4 composites each -> 4 sensors each. Every pool
  // worker collecting a middle composite fans out again on the same pool;
  // with all workers waiting on queued children the read used to hang.
  Deployment lab;  // in-process, 4 workers
  auto root = lab.manager().create_composite("Root");
  for (int i = 0; i < 4; ++i) {
    const std::string mid = "M" + std::to_string(i);
    lab.manager().create_composite(mid);
    for (int j = 0; j < 4; ++j) {
      const std::string leaf = mid + "-L" + std::to_string(j);
      lab.manager().create_composite(leaf);
      std::vector<std::string> sensors;
      for (int k = 0; k < 4; ++k) {
        sensors.push_back(leaf + "-S" + std::to_string(k));
        lab.add_temperature_sensor(sensors.back(), 20.0 + k);
      }
      ASSERT_TRUE(lab.manager().compose(leaf, sensors).is_ok());
      ASSERT_TRUE(lab.manager().compose(mid, {leaf}).is_ok());
    }
    ASSERT_TRUE(lab.manager().compose("Root", {mid}).is_ok());
  }

  auto read = std::async(std::launch::async,
                         [&lab] { return lab.facade().get_value("Root"); });
  if (read.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    ADD_FAILURE() << "a 3-level composite read did not return in 30 s";
    // Deadlocked workers can never be joined; end the binary here.
    std::_Exit(1);
  }
  const auto value = read.get();
  ASSERT_TRUE(value.is_ok()) << value.status().message();
  EXPECT_GT(value.value(), 15.0);
  EXPECT_LT(value.value(), 30.0);
}

TEST(DeploymentConfigTest, NoRendezvousPeers) {
  DeploymentConfig config;
  config.with_jobber = false;
  config.with_spacer = false;
  Deployment lab(config);
  EXPECT_FALSE(lab.accessor()
                   .find_item(registry::ServiceTemplate::by_type("Jobber"))
                   .is_ok());
  EXPECT_FALSE(lab.accessor()
                   .find_item(registry::ServiceTemplate::by_type("Spacer"))
                   .is_ok());
}

TEST(DeploymentConfigTest, ZeroCybernodesMakesProvisioningFail) {
  DeploymentConfig config;
  config.cybernodes = 0;
  Deployment lab(config);
  EXPECT_EQ(lab.facade().create_service("X").code(),
            util::ErrorCode::kCapacity);
}

TEST(DeploymentConfigTest, MultipleLookupServicesAllAdvertised) {
  DeploymentConfig config;
  config.lookup_services = 3;
  Deployment lab(config);
  EXPECT_EQ(lab.lookups().size(), 3u);
  EXPECT_EQ(lab.accessor().lookups().size(), 3u);
}

TEST(DeploymentConfigTest, PumpAdvancesVirtualTime) {
  Deployment lab;
  const util::SimTime t0 = lab.now();
  lab.pump(5 * kSecond);
  EXPECT_EQ(lab.now(), t0 + 5 * kSecond);
}

TEST(DeploymentConfigTest, SeedControlsSensorStreams) {
  const auto run = [](std::uint64_t seed) {
    DeploymentConfig config;
    config.seed = seed;
    Deployment lab(config);
    lab.add_temperature_sensor("S");
    return lab.facade().get_value("S").value_or(-1);
  };
  // Deployment seeds feed the network; sensor seeds come from the
  // deployment's own counter — identical configs give identical values.
  EXPECT_DOUBLE_EQ(run(1), run(1));
}

TEST(DeploymentConfigTest, NetworkLatencyApplied) {
  DeploymentConfig config;
  config.network_latency = 5 * util::kMillisecond;
  Deployment lab(config);
  EXPECT_EQ(lab.network().latency(), 5 * util::kMillisecond);
}

// --- scheduler fuzz: random timers vs a reference model ---------------------------

class SchedulerFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzzTest, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  util::Scheduler sched;

  // Reference model keyed by timer id: (token, scheduled time). Ids are
  // removed on successful cancel, so what remains must fire exactly once,
  // at or after its scheduled time.
  std::map<util::TimerId, std::pair<int, util::SimTime>> expected;
  std::vector<std::pair<int, util::SimTime>> fired;  // (token, fire time)
  std::vector<util::TimerId> cancellable;

  int token = 0;
  for (int op = 0; op < 500; ++op) {
    const double dice = rng.next_double();
    if (dice < 0.6) {
      const auto when =
          sched.now() + static_cast<util::SimDuration>(rng.between(0, 1000));
      const int t = token++;
      const auto id = sched.schedule_at(when, [&fired, &sched, t] {
        fired.emplace_back(t, sched.now());
      });
      expected.emplace(id, std::pair{t, when});
      cancellable.push_back(id);
    } else if (dice < 0.75 && !cancellable.empty()) {
      const auto idx = rng.below(cancellable.size());
      const util::TimerId id = cancellable[idx];
      if (sched.cancel(id)) expected.erase(id);
      cancellable.erase(cancellable.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      sched.run_for(static_cast<util::SimDuration>(rng.between(0, 300)));
    }
  }
  sched.run_for(10'000);

  // Exactly the surviving reference events fired, once each, never before
  // their scheduled time, and globally in non-decreasing fire-time order.
  ASSERT_EQ(fired.size(), expected.size());
  std::map<int, util::SimTime> fired_at;
  for (const auto& [t, at] : fired) {
    EXPECT_TRUE(fired_at.emplace(t, at).second) << "token fired twice: " << t;
  }
  for (const auto& [id, entry] : expected) {
    const auto& [t, when] = entry;
    auto it = fired_at.find(t);
    ASSERT_NE(it, fired_at.end()) << "token never fired: " << t;
    EXPECT_GE(it->second, when);
  }
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].second, fired[i].second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace sensorcer::core
