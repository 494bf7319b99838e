// Tests for the optimized CSP read path: the freshness-window collection
// cache (TTL semantics, quality/timestamp stamping, invalidation on
// composition and expression changes), single-flight coalescing of
// concurrent readers, the direct scatter-gather fan-out and its latency
// model, slot re-binding after component removal, and the collection job
// each CSP renews and reuses across reads (never while anything else still
// holds it, never across a composition change).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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
std::uint64_t jobs_built() {
  return obs::metrics().counter("csp.jobs_built").value();
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

TEST_F(ReadPathTest, ComponentAddedDuringAFlightJoinsTheNextCachedRead) {
  lab.add_temperature_sensor("Hot-Sensor", 70.0);
  lab.pump(kSecond);
  auto csp = composite_of_two();

  // A timer inside the first read's flight composes a third sensor. The
  // values that flight brings back are for two components, so they must
  // neither answer that read nor fill the cache.
  lab.scheduler().schedule_after(lab.network().latency(), [&] {
    EXPECT_TRUE(csp->add_component("Hot-Sensor").is_ok());
  });
  auto first = csp->get_value();
  ASSERT_TRUE(first.is_ok());
  EXPECT_GT(first.value(), 30.0) << "answered over the two-sensor flight";

  const auto hits0 = cache_hits();
  auto next = csp->get_value();  // inside the 10 s window
  ASSERT_TRUE(next.is_ok());
  EXPECT_EQ(cache_hits(), hits0 + 1);
  EXPECT_GT(next.value(), 30.0) << "cache held the two-sensor collection";
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

// --- the reused collection job ----------------------------------------------------

/// Two well-separated sensors behind one composite, freshness 0, so every
/// read collects: the mean reads ~25, Low alone ~10, High alone ~40.
class CollectionJobTest : public ::testing::Test {
 protected:
  explicit CollectionJobTest(bool strict = true) : lab(config(strict)) {
    lab.add_temperature_sensor("Low", 10.0);
    high = lab.add_temperature_sensor("High", 40.0);
    lab.pump(kSecond);
    csp = lab.manager().create_composite("C");
    EXPECT_TRUE(csp->add_component("Low").is_ok());
    EXPECT_TRUE(csp->add_component("High").is_ok());
  }

  static DeploymentConfig config(bool strict) {
    DeploymentConfig config;
    config.collection.strict = strict;
    return config;
  }

  /// Take `provider` off the fabric the way the chaos harness kills it: it
  /// stops, and its registration lingers until the lease lapses.
  void kill(sorcer::ServiceProvider& provider) {
    provider.crash();
    lab.network().detach(provider.network_address());
  }

  Deployment lab;
  std::shared_ptr<ElementarySensorProvider> high;
  std::shared_ptr<CompositeSensorProvider> csp;
};

class LenientCollectionJobTest : public CollectionJobTest {
 protected:
  LenientCollectionJobTest() : CollectionJobTest(/*strict=*/false) {}
};

TEST_F(CollectionJobTest, WarmReadsReuseOneJob) {
  ASSERT_TRUE(csp->get_value().is_ok());
  const auto built = jobs_built();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(csp->get_value().is_ok());
  EXPECT_EQ(jobs_built(), built);
}

TEST_F(CollectionJobTest, ChildLostBeforeTheNextReadFailsTheStrictRead) {
  auto first = csp->get_value();
  ASSERT_TRUE(first.is_ok());
  EXPECT_GT(first.value(), 18.0);

  // High answered the first read; its renewed task must not report that
  // answer again.
  kill(*high);
  auto second = csp->get_value();
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.status().code(), util::ErrorCode::kUnavailable);
}

TEST_F(LenientCollectionJobTest, ChildLostBeforeTheNextReadLeavesTheAverage) {
  auto first = csp->get_value();
  ASSERT_TRUE(first.is_ok());
  EXPECT_GT(first.value(), 18.0);

  kill(*high);
  auto second = csp->get_value();
  ASSERT_TRUE(second.is_ok());
  EXPECT_LT(second.value(), 18.0) << "High's stale value survived";

  // With the rendezvous peer gone too, the job reaches no child at all:
  // every task is still as renew() left it, so nothing from an earlier
  // read may be served.
  kill(*lab.jobber());
  auto third = csp->get_value();
  ASSERT_FALSE(third.is_ok());
  EXPECT_EQ(third.status().code(), util::ErrorCode::kUnavailable);
}

TEST_F(CollectionJobTest, JobStillParkedOnTheFabricIsNotReused) {
  ASSERT_TRUE(csp->get_value().is_ok());  // the job is idle now
  const auto built = jobs_built();
  const auto coordinated = lab.jobber()->jobs_coordinated();

  // The deadline passes while the request to the Jobber is still parked on
  // the fabric: the one-way hop alone outlasts it.
  lab.invoker().set_call_timeout(lab.network().latency() / 2);
  auto timed_out = csp->get_value();
  ASSERT_FALSE(timed_out.is_ok());
  EXPECT_EQ(jobs_built(), built);
  EXPECT_EQ(lab.jobber()->jobs_coordinated(), coordinated);

  // The next read follows at once. The parked request still holds the
  // timed-out job, and the Jobber runs it late, during this read — so
  // this read must run on a fresh job the late run cannot write into.
  lab.invoker().set_call_timeout(sorcer::InvokeConfig{}.call_timeout);
  auto second = csp->get_value();
  EXPECT_EQ(lab.jobber()->jobs_coordinated(), coordinated + 2);
  EXPECT_EQ(jobs_built(), built + 1);
  ASSERT_TRUE(second.is_ok());
  EXPECT_GT(second.value(), 17.0);
  EXPECT_LT(second.value(), 33.0);

  // Nothing holds the fresh job once its read lands: it is reused.
  auto third = csp->get_value();
  ASSERT_TRUE(third.is_ok());
  EXPECT_EQ(jobs_built(), built + 1);
}

TEST_F(CollectionJobTest, CompositionChangeBetweenReadsRebuildsTheJob) {
  lab.add_temperature_sensor("Mid", 25.0);
  ASSERT_TRUE(csp->get_value().is_ok());
  const auto built = jobs_built();

  ASSERT_TRUE(csp->remove_component("High").is_ok());
  auto low_only = csp->get_value();
  ASSERT_TRUE(low_only.is_ok());
  EXPECT_EQ(jobs_built(), built + 1);
  EXPECT_LT(low_only.value(), 18.0);

  ASSERT_TRUE(csp->add_component("High").is_ok());
  auto both = csp->get_value();
  ASSERT_TRUE(both.is_ok());
  EXPECT_EQ(jobs_built(), built + 2);
  EXPECT_GT(both.value(), 18.0);
}

TEST_F(CollectionJobTest, CompositionChangeDuringAReadRebuildsTheJob) {
  lab.add_temperature_sensor("Hot", 70.0);
  lab.pump(kSecond);
  ASSERT_TRUE(csp->get_value().is_ok());
  const auto built = jobs_built();

  // A timer that fires inside the flight's pump composes a third sensor.
  // The flight lands with the two-task job, which must not be put back.
  lab.scheduler().schedule_after(lab.network().latency(), [this] {
    EXPECT_TRUE(csp->add_component("Hot").is_ok());
  });
  ASSERT_TRUE(csp->get_value().is_ok());
  ASSERT_EQ(csp->component_count(), 3u);
  auto with_hot = csp->get_value();
  ASSERT_TRUE(with_hot.is_ok());
  EXPECT_EQ(jobs_built(), built + 1);
  EXPECT_GT(with_hot.value(), 32.5) << "read on the two-task job";

  // And the same for a removal in flight.
  lab.scheduler().schedule_after(lab.network().latency(), [this] {
    EXPECT_TRUE(csp->remove_component("Hot").is_ok());
  });
  ASSERT_TRUE(csp->get_value().is_ok());
  ASSERT_EQ(csp->component_count(), 2u);
  auto without_hot = csp->get_value();
  ASSERT_TRUE(without_hot.is_ok());
  EXPECT_EQ(jobs_built(), built + 2);
  EXPECT_LT(without_hot.value(), 32.5) << "read on the three-task job";
}

TEST_F(CollectionJobTest, DeadComponentRemovedDuringAReadIsNotReported) {
  auto dead = lab.add_temperature_sensor("Dead", 70.0);
  lab.pump(kSecond);
  ASSERT_TRUE(csp->add_component("Dead").is_ok());
  ASSERT_TRUE(csp->get_value().is_ok());
  kill(*dead);

  // The strict read's flight finds Dead unreachable, but a timer inside
  // that flight removes it: the read answers over the two live components
  // instead of reporting a component that is no longer composed.
  lab.scheduler().schedule_after(lab.network().latency(), [this] {
    EXPECT_TRUE(csp->remove_component("Dead").is_ok());
  });
  auto value = csp->get_value();
  ASSERT_TRUE(value.is_ok()) << value.status().message();
  ASSERT_EQ(csp->component_count(), 2u);
  EXPECT_GT(value.value(), 18.0);
  EXPECT_LT(value.value(), 33.0);
}

TEST(CollectionJobDiamondTest, SharedCompositeCollectsReentrantlyOnItsOwnJob) {
  // Shared sits under both Left and Right, so the first read of Root
  // reaches Shared twice on one stack: the second arrives while the first
  // collection is in the air and must fan out on a job of its own.
  Deployment lab{DeploymentConfig{}};
  lab.add_temperature_sensor("S1", 10.0);
  lab.add_temperature_sensor("S2", 20.0);
  lab.add_temperature_sensor("S3", 70.0);
  lab.pump(kSecond);
  auto shared = lab.manager().create_composite("Shared");
  ASSERT_TRUE(shared->add_component("S1").is_ok());
  ASSERT_TRUE(shared->add_component("S2").is_ok());   // ~15
  auto left = lab.manager().create_composite("Left");
  ASSERT_TRUE(left->add_component("Shared").is_ok());
  ASSERT_TRUE(left->add_component("S3").is_ok());     // ~42.5
  auto right = lab.manager().create_composite("Right");
  ASSERT_TRUE(right->add_component("Shared").is_ok());
  ASSERT_TRUE(right->add_component("S1").is_ok());    // ~12.5
  auto root = lab.manager().create_composite("Root");
  ASSERT_TRUE(root->add_component("Left").is_ok());
  ASSERT_TRUE(root->add_component("Right").is_ok());  // ~27.5

  const auto built = jobs_built();
  auto value = root->get_value();
  ASSERT_TRUE(value.is_ok()) << value.status().message();
  // Root, Left, Right and Shared's flight, plus Shared's re-entrant read.
  EXPECT_EQ(jobs_built(), built + 5);
  EXPECT_GT(value.value(), 21.0);
  EXPECT_LT(value.value(), 34.0);

  // Warm: every flight reuses its job (the re-entrant read is served from
  // the flight's predecessor).
  auto again = root->get_value();
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(jobs_built(), built + 5);
  EXPECT_GT(again.value(), 21.0);
  EXPECT_LT(again.value(), 34.0);
}

TEST_F(CollectionJobTest, RenewedJobSpansParentUnderTheirOwnRead) {
  obs::span_collector().clear();
  ASSERT_TRUE(lab.facade().get_value("C").is_ok());
  ASSERT_TRUE(lab.facade().get_value("C").is_ok());

  // Each read's "exert:C.collect" span belongs to that read's façade trace,
  // not to the trace of the read that last used the job.
  std::vector<std::uint64_t> facade_traces;
  std::vector<std::uint64_t> collect_traces;
  for (const auto& span : obs::span_collector().snapshot()) {
    if (span.name == "facade.getValue:C") facade_traces.push_back(span.trace_id);
    if (span.name == "exert:C.collect") collect_traces.push_back(span.trace_id);
  }
  ASSERT_EQ(facade_traces.size(), 2u);
  ASSERT_EQ(collect_traces.size(), 2u);
  EXPECT_NE(facade_traces[0], facade_traces[1]);
  EXPECT_EQ(collect_traces, facade_traces);
}

}  // namespace
}  // namespace sensorcer::core
