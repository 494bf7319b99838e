// Tests for the optimized CSP read path: the freshness-window collection
// cache (TTL semantics, quality/timestamp stamping, invalidation on
// composition and expression changes), single-flight coalescing of
// concurrent readers, the direct scatter-gather fan-out and its latency
// model, and slot re-binding after component removal.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "obs/metrics.h"
#include "sorcer/jobber.h"

namespace sensorcer::core {
namespace {

using util::kMillisecond;
using util::kSecond;

std::uint64_t cache_hits() {
  return obs::metrics().counter("csp.cache_hits").value();
}
std::uint64_t cache_misses() {
  return obs::metrics().counter("csp.cache_misses").value();
}
std::uint64_t coalesced() {
  return obs::metrics().counter("csp.coalesced").value();
}

/// A deployment whose composites cache collections for 10 virtual seconds.
class ReadPathTest : public ::testing::Test {
 protected:
  ReadPathTest() : lab(config_with_freshness()) {
    lab.add_temperature_sensor("Neem-Sensor", 21.0);
    lab.add_temperature_sensor("Jade-Sensor", 22.0);
    lab.add_temperature_sensor("Diamond-Sensor", 23.0);
    lab.pump(kSecond);
  }

  static DeploymentConfig config_with_freshness() {
    DeploymentConfig config;
    config.collection.freshness = 10 * kSecond;
    return config;
  }

  std::shared_ptr<CompositeSensorProvider> composite_of_two() {
    auto csp = lab.manager().create_composite("C");
    EXPECT_TRUE(csp->add_component("Neem-Sensor").is_ok());
    EXPECT_TRUE(csp->add_component("Jade-Sensor").is_ok());
    return csp;
  }

  Deployment lab;
};

// --- freshness-window cache ------------------------------------------------------

TEST_F(ReadPathTest, FreshReadIsServedFromCache) {
  auto csp = composite_of_two();
  const auto misses0 = cache_misses();
  const auto hits0 = cache_hits();

  auto first = csp->get_value();
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(cache_misses(), misses0 + 1);

  // Virtual time has not moved: well inside the window, and the cached
  // component values make the read bit-for-bit reproducible.
  auto second = csp->get_value();
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(cache_hits(), hits0 + 1);
  EXPECT_EQ(cache_misses(), misses0 + 1);
  EXPECT_DOUBLE_EQ(second.value(), first.value());
  EXPECT_EQ(csp->last_collection_latency(), 0);  // no fan-out charged
}

TEST_F(ReadPathTest, CachedReadingKeepsCollectionTimestampAndQuality) {
  auto csp = composite_of_two();
  auto first = csp->get_reading();
  ASSERT_TRUE(first.is_ok());

  lab.pump(kSecond);  // move now() forward, but stay inside the window
  auto second = csp->get_reading();
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().timestamp, first.value().timestamp)
      << "cache-served reading must carry the collection time, not now()";
  EXPECT_LT(second.value().timestamp, lab.scheduler().now());
  EXPECT_EQ(second.value().quality, sensor::Quality::kGood);
  EXPECT_GT(second.value().sequence, first.value().sequence);
}

TEST_F(ReadPathTest, CacheExpiresAfterFreshnessWindow) {
  auto csp = composite_of_two();
  ASSERT_TRUE(csp->get_value().is_ok());
  const auto misses0 = cache_misses();

  lab.pump(11 * kSecond);  // past the 10 s window
  auto reading = csp->get_reading();
  ASSERT_TRUE(reading.is_ok());
  EXPECT_EQ(cache_misses(), misses0 + 1);
  EXPECT_EQ(reading.value().timestamp, lab.scheduler().now());
}

TEST_F(ReadPathTest, AddComponentInvalidatesCache) {
  auto csp = composite_of_two();
  ASSERT_TRUE(csp->get_value().is_ok());
  const auto misses0 = cache_misses();
  ASSERT_TRUE(csp->add_component("Diamond-Sensor").is_ok());
  ASSERT_TRUE(csp->get_value().is_ok());
  EXPECT_EQ(cache_misses(), misses0 + 1);
}

TEST_F(ReadPathTest, RemoveComponentInvalidatesCache) {
  auto csp = composite_of_two();
  ASSERT_TRUE(csp->get_value().is_ok());
  const auto misses0 = cache_misses();
  ASSERT_TRUE(csp->remove_component("Jade-Sensor").is_ok());
  ASSERT_TRUE(csp->get_value().is_ok());
  EXPECT_EQ(cache_misses(), misses0 + 1);
}

TEST_F(ReadPathTest, SetExpressionInvalidatesCache) {
  auto csp = composite_of_two();
  ASSERT_TRUE(csp->get_value().is_ok());
  const auto misses0 = cache_misses();
  ASSERT_TRUE(csp->set_expression("a - b").is_ok());
  auto value = csp->get_value();
  ASSERT_TRUE(value.is_ok());
  EXPECT_EQ(cache_misses(), misses0 + 1);
  // And the new expression governs the read immediately.
  EXPECT_LT(value.value(), 10.0);
}

TEST_F(ReadPathTest, ZeroFreshnessDisablesCache) {
  DeploymentConfig config;  // collection.freshness defaults to 0
  Deployment bare(config);
  bare.add_temperature_sensor("S1", 20.0);
  bare.pump(kSecond);
  auto csp = bare.manager().create_composite("C");
  ASSERT_TRUE(csp->add_component("S1").is_ok());
  const auto hits0 = cache_hits();
  const auto misses0 = cache_misses();
  ASSERT_TRUE(csp->get_value().is_ok());
  ASSERT_TRUE(csp->get_value().is_ok());
  EXPECT_EQ(cache_hits(), hits0);
  EXPECT_EQ(cache_misses(), misses0 + 2);
}

// --- single-flight coalescing ----------------------------------------------------

TEST_F(ReadPathTest, ConcurrentReadersCoalesceOntoOneFlight) {
  // freshness = 0 so every read wants a real collection; any reader that
  // arrives while another's fan-out is in flight must share it. Readers are
  // plain OS threads; whichever one owns the flight pumps the fabric.
  DeploymentConfig config;
  Deployment bare(config);
  bare.add_temperature_sensor("S1", 20.0);
  bare.add_temperature_sensor("S2", 24.0);
  bare.pump(kSecond);
  auto csp = bare.manager().create_composite("C");
  ASSERT_TRUE(csp->add_component("S1").is_ok());
  ASSERT_TRUE(csp->add_component("S2").is_ok());

  const auto misses0 = cache_misses();
  const auto coalesced0 = coalesced();
  constexpr int kReaders = 8;
  constexpr int kRounds = 20;
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (!csp->get_value().is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  // Every read either flew (cache miss) or coalesced — nothing else.
  EXPECT_EQ((cache_misses() - misses0) + (coalesced() - coalesced0),
            static_cast<std::uint64_t>(kReaders * kRounds));
}

// --- direct fallback latency model -----------------------------------------------

TEST_F(ReadPathTest, ParallelDirectFanoutUsesSlowestChildModel) {
  // No rendezvous peer: composites scatter-gather their components directly.
  // The round-trips overlap on the fabric, so the batch costs the slowest
  // child plus one batch-dispatch overhead — four identical children cost
  // exactly what one does.
  DeploymentConfig config;
  config.with_jobber = false;
  config.with_spacer = false;
  Deployment lab(config);
  for (int i = 0; i < 4; ++i) {
    lab.add_temperature_sensor("S" + std::to_string(i), 20.0 + i);
  }
  lab.pump(kSecond);
  auto one = lab.manager().create_composite("One");
  ASSERT_TRUE(one->add_component("S0").is_ok());
  auto four = lab.manager().create_composite("Four");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(four->add_component("S" + std::to_string(i)).is_ok());
  }

  ASSERT_TRUE(one->get_value().is_ok());
  ASSERT_TRUE(four->get_value().is_ok());
  EXPECT_GT(one->last_collection_latency(), sorcer::Jobber::kDispatchOverhead);
  EXPECT_EQ(four->last_collection_latency(), one->last_collection_latency());
}

TEST_F(ReadPathTest, DirectFanoutThatRoutesNoComponentCostsNothing) {
  // No rendezvous peer, and every component has left the registry: the
  // batch reaches no provider, so the read fails and the collection is
  // charged nothing.
  DeploymentConfig config;
  config.with_jobber = false;
  config.with_spacer = false;
  Deployment lab(config);
  lab.add_temperature_sensor("S0", 20.0);
  lab.add_temperature_sensor("S1", 21.0);
  lab.pump(kSecond);
  auto csp = lab.manager().create_composite("C");
  ASSERT_TRUE(csp->add_component("S0").is_ok());
  ASSERT_TRUE(csp->add_component("S1").is_ok());
  ASSERT_TRUE(csp->get_value().is_ok());
  EXPECT_GT(csp->last_collection_latency(), 0);

  ASSERT_TRUE(lab.manager().remove_service("S0").is_ok());
  ASSERT_TRUE(lab.manager().remove_service("S1").is_ok());
  auto read = csp->get_value();
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.status().code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(csp->last_collection_latency(), 0);
}

// --- re-binding after composition changes ----------------------------------------

TEST_F(ReadPathTest, RemoveComponentRebindsSurvivingVariables) {
  // Three components bound to a, b, c with well-separated values. After
  // removing b's service, variable c must track its component's *shifted*
  // position in the collected values — not the stale index.
  Deployment wide{DeploymentConfig{}};
  wide.add_temperature_sensor("Low", 10.0);
  wide.add_temperature_sensor("Mid", 25.0);
  wide.add_temperature_sensor("High", 40.0);
  wide.pump(kSecond);
  auto csp = wide.manager().create_composite("C");
  ASSERT_TRUE(csp->add_component("Low").is_ok());    // a
  ASSERT_TRUE(csp->add_component("Mid").is_ok());    // b
  ASSERT_TRUE(csp->add_component("High").is_ok());   // c
  ASSERT_TRUE(csp->set_expression("c").is_ok());

  auto before = csp->get_value();
  ASSERT_TRUE(before.is_ok());
  EXPECT_GT(before.value(), 30.0);

  ASSERT_TRUE(csp->remove_component("Mid").is_ok());
  EXPECT_EQ(csp->expression(), "c");  // survives: it never referenced b
  auto after = csp->get_value();
  ASSERT_TRUE(after.is_ok());
  EXPECT_GT(after.value(), 30.0) << "c must still read the 'High' sensor";
}

}  // namespace
}  // namespace sensorcer::core
