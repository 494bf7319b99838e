// Tests for the invocation pipeline (sorcer/invoke): wire-backed
// request/response dispatch, deadlines under loss and partitions, retry
// with exclusion (service substitution over the fabric), killed providers,
// liveness pings, and endpoint lifecycle.

#include <gtest/gtest.h>

#include <string_view>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "hist/append_batch.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "sorcer/codec.h"
#include "sorcer/exert.h"
#include "sorcer/invoke.h"

namespace sensorcer::core {
namespace {

using util::kMillisecond;
using util::kSecond;

DeploymentConfig quiet_config() {
  DeploymentConfig config;
  config.sampling.sample_period = 0;  // keep the fabric quiet for assertions
  return config;
}

sorcer::ExertionPtr read_task(const std::string& provider_name) {
  return sorcer::Task::make(
      "read:" + provider_name,
      sorcer::Signature{kSensorDataAccessorType, op::kGetValue,
                        provider_name});
}

std::uint64_t counter(const std::string& name) {
  return obs::metrics().counter(name).value();
}

// --- wire transport ----------------------------------------------------------

TEST(WireInvokeTest, TaskCrossesTheFabricAsRequestAndResponse) {
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Neem-Sensor", 21.5);
  lab.network().reset_stats();
  const auto wire_before = counter("invoke.wire_calls");

  auto task = read_task("Neem-Sensor");
  ASSERT_TRUE(sorcer::exert(task, lab.accessor()).is_ok());
  ASSERT_EQ(task->status(), sorcer::ExertStatus::kDone);
  EXPECT_TRUE(task->context().get_double(path::kValue).is_ok());
  EXPECT_EQ(counter("invoke.wire_calls") - wire_before, 1u);

  // The requestor endpoint sent a request and received a response; both
  // directions carried modeled payload bytes plus protocol headers.
  const auto& stats = lab.network().stats_for(lab.invoker().address());
  EXPECT_GE(stats.messages_sent, 1u);
  EXPECT_GE(stats.messages_received, 1u);
  EXPECT_GT(stats.payload_bytes_sent, 0u);
  EXPECT_GT(stats.header_bytes_sent, 0u);

  // The round trip costs at least two one-way fabric latencies.
  EXPECT_GE(task->latency(), 2 * lab.network().latency());
}

TEST(WireInvokeTest, JobberChildDispatchesAlsoCrossTheFabric) {
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Jade-Sensor", 22.4);
  lab.add_temperature_sensor("Coral-Sensor", 23.1);
  lab.network().reset_stats();

  auto job = sorcer::Job::make(
      "j", {sorcer::Flow::kParallel, sorcer::Access::kPush, true});
  job->add(read_task("Jade-Sensor"));
  job->add(read_task("Coral-Sensor"));
  ASSERT_TRUE(sorcer::exert(job, lab.accessor()).is_ok());
  ASSERT_EQ(job->status(), sorcer::ExertStatus::kDone);

  // One request to the Jobber plus one per child (the Jobber dispatches
  // children through the same deployment accessor): >= 3 requests out of
  // the requestor endpoint and >= 3 responses back.
  const auto& stats = lab.network().stats_for(lab.invoker().address());
  EXPECT_GE(stats.messages_sent, 3u);
  EXPECT_GE(stats.messages_received, 3u);

  // The Jobber's own endpoint saw its request and sent its response.
  ASSERT_TRUE(lab.accessor()
                  .find_servicer(sorcer::Signature{sorcer::type::kJobber,
                                                   "", ""})
                  .is_ok());
}

TEST(WireInvokeTest, FacadeReadRunsOverTheWire) {
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Diamond-Sensor", 20.8);
  lab.network().reset_stats();

  auto value = lab.facade().get_value("Diamond-Sensor");
  ASSERT_TRUE(value.is_ok());
  EXPECT_GT(lab.network().stats_for(lab.invoker().address()).messages_sent,
            0u);

  EXPECT_EQ(lab.facade().get_value("No-Such-Sensor").status().code(),
            util::ErrorCode::kNotFound);
}

// --- failure semantics -------------------------------------------------------

TEST(WireInvokeTest, TotalLossExpiresTheDeadlineWithTimeout) {
  DeploymentConfig config = quiet_config();
  config.invoke.call_timeout = 50 * kMillisecond;
  Deployment lab(config);
  lab.add_temperature_sensor("Lonely-Sensor");
  lab.network().set_loss_rate(1.0);
  const auto timeouts_before = counter("invoke.timeouts");

  const util::SimTime t0 = lab.now();
  auto task = read_task("Lonely-Sensor");  // pinned name: no substitution
  (void)sorcer::exert(task, lab.accessor());
  EXPECT_EQ(task->status(), sorcer::ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kTimeout);
  EXPECT_GE(counter("invoke.timeouts") - timeouts_before, 1u);
  // The requestor really waited out the deadline in virtual time.
  EXPECT_GE(lab.now() - t0, config.invoke.call_timeout);

  // Healing the link makes the next call succeed.
  lab.network().set_loss_rate(0.0);
  auto retry = read_task("Lonely-Sensor");
  (void)sorcer::exert(retry, lab.accessor());
  EXPECT_EQ(retry->status(), sorcer::ExertStatus::kDone);
}

TEST(WireInvokeTest, IdleWindowsFastForwardToTheDeadline) {
  DeploymentConfig config = quiet_config();
  config.invoke.call_timeout = 50 * kMillisecond;
  Deployment lab(config);
  lab.add_temperature_sensor("Quiet-Sensor");
  lab.network().set_loss_rate(1.0);
  const auto idle_before = counter("invoke.idle_waits");

  const util::SimTime t0 = lab.now();
  auto task = read_task("Quiet-Sensor");  // pinned name: no substitution
  (void)sorcer::exert(task, lab.accessor());
  EXPECT_EQ(task->status(), sorcer::ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kTimeout);

  // The request was lost, so the fabric had no event that could complete
  // the call: the pump jumped straight to the deadline instead of stepping
  // through unrelated far-future timers — and landed exactly on it.
  EXPECT_GE(counter("invoke.idle_waits") - idle_before, 1u);
  EXPECT_EQ(lab.now() - t0, config.invoke.call_timeout);
}

TEST(WireInvokeTest, PartitionTimesOutThenSubstitutesAnotherProvider) {
  DeploymentConfig config = quiet_config();
  config.invoke.call_timeout = 20 * kMillisecond;
  Deployment lab(config);
  auto esp_a = lab.add_temperature_sensor("Sensor-A", 20.0);
  auto esp_b = lab.add_temperature_sensor("Sensor-B", 30.0);

  // An unpinned signature may bind to either sensor; learn which one the
  // accessor resolves first, then partition the requestor away from it.
  const sorcer::Signature sig{kSensorDataAccessorType, op::kGetValue, ""};
  auto first = lab.accessor().resolve(sig);
  ASSERT_TRUE(first.is_ok());
  const auto victim = first.value().servicer;
  auto* victim_provider =
      dynamic_cast<sorcer::ServiceProvider*>(victim.get());
  ASSERT_NE(victim_provider, nullptr);
  lab.network().partition(lab.invoker().address(),
                          victim_provider->network_address());

  const auto timeouts_before = counter("invoke.timeouts");
  const auto subs_before = counter("sorcer.substitutions");
  const util::SimTime t0 = lab.now();
  auto task = sorcer::Task::make("read:any", sig);
  ASSERT_TRUE(sorcer::exert(task, lab.accessor()).is_ok());
  EXPECT_EQ(task->status(), sorcer::ExertStatus::kDone);
  EXPECT_TRUE(task->context().get_double(path::kValue).is_ok());

  // First attempt hit the deadline; exert retried with the victim excluded
  // and bound the surviving provider. The timed-out attempt is visible on
  // the virtual clock (task latency is reset by the substitution retry).
  EXPECT_GE(counter("invoke.timeouts") - timeouts_before, 1u);
  EXPECT_GE(counter("sorcer.substitutions") - subs_before, 1u);
  EXPECT_GE(lab.now() - t0, config.invoke.call_timeout);
}

TEST(WireInvokeTest, LateResponsesAreDroppedNotMisdelivered) {
  DeploymentConfig config = quiet_config();
  // Shorter than the round trip: one-way latency alone eats the budget.
  config.network_latency = 5 * kMillisecond;
  config.invoke.call_timeout = 6 * kMillisecond;
  Deployment lab(config);
  lab.add_temperature_sensor("Slow-Sensor");
  const auto late_before = counter("invoke.late_responses");

  auto task = read_task("Slow-Sensor");
  (void)sorcer::exert(task, lab.accessor());
  EXPECT_EQ(task->status(), sorcer::ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kTimeout);

  // Let the straggler response land: it must be counted and discarded.
  lab.pump(100 * kMillisecond);
  EXPECT_GE(counter("invoke.late_responses") - late_before, 1u);
}

// --- scatter-gather ----------------------------------------------------------

TEST(ScatterGatherTest, ParallelPushOverlapsRoundTripsOnTheFabric) {
  Deployment lab(quiet_config());
  for (int i = 0; i < 8; ++i) {
    lab.add_temperature_sensor("SG-" + std::to_string(i), 20.0 + i);
  }

  const auto run = [&lab](sorcer::Flow flow) {
    auto job = sorcer::Job::make("sg", {flow, sorcer::Access::kPush, true});
    for (int i = 0; i < 8; ++i) {
      job->add(read_task("SG-" + std::to_string(i)));
    }
    const util::SimTime t0 = lab.now();
    (void)sorcer::exert(job, lab.accessor());
    EXPECT_EQ(job->status(), sorcer::ExertStatus::kDone);
    return lab.now() - t0;
  };

  const util::SimDuration sequential = run(sorcer::Flow::kSequence);
  const auto saved_before = counter("invoke.overlap_saved_ns");
  const util::SimDuration scattered = run(sorcer::Flow::kParallel);

  // Eight equal children scattered as one batch cost ~the slowest child's
  // round-trip plus dispatch overhead, not eight round-trips.
  EXPECT_GT(scattered, 0);
  EXPECT_GE(sequential, 4 * scattered);
  // The fabric concurrency is accounted: serialized RTT sum minus the
  // actual batch window.
  EXPECT_GT(counter("invoke.overlap_saved_ns") - saved_before, 0u);
  // Every scattered call was gathered; nothing is left outstanding.
  EXPECT_EQ(obs::metrics().gauge("invoke.outstanding").value(), 0.0);
}

TEST(ScatterGatherTest, NestedDispatchPumpsTheSchedulerRecursively) {
  // Regression: a provider whose dispatch invokes downstream providers
  // mid-call (the CSP's fan-out runs inside its own wire dispatch event)
  // pumps the scheduler from a nested frame on the same stack. The guard
  // must accept this — it is the event loop recursing in time order — and
  // the nested batch must still gather correctly.
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Leaf-A", 10.0);
  lab.add_temperature_sensor("Leaf-B", 30.0);
  auto csp = lab.facade().create_local_service("Nested-Composite");
  ASSERT_NE(csp, nullptr);
  ASSERT_TRUE(
      lab.facade()
          .compose_service("Nested-Composite", {"Leaf-A", "Leaf-B"})
          .is_ok());

  auto value = lab.facade().get_value("Nested-Composite");
  ASSERT_TRUE(value.is_ok());
  // Average of the two leaves, modulo probe noise.
  EXPECT_GT(value.value(), 5.0);
  EXPECT_LT(value.value(), 35.0);
  EXPECT_EQ(obs::metrics().gauge("invoke.outstanding").value(), 0.0);
}

TEST(ScatterGatherTest, SlowChildSubstitutesWhileSiblingsComplete) {
  DeploymentConfig config = quiet_config();
  config.invoke.call_timeout = 20 * kMillisecond;
  Deployment lab(config);
  for (const char* name : {"Mix-A", "Mix-B", "Mix-C"}) {
    lab.add_temperature_sensor(name, 20.0);
  }

  // Learn which provider the unpinned signature binds first, partition the
  // requestor away from it, and pin the two sibling reads to the survivors.
  const sorcer::Signature sig{kSensorDataAccessorType, op::kGetValue, ""};
  auto first = lab.accessor().resolve(sig);
  ASSERT_TRUE(first.is_ok());
  auto* victim =
      dynamic_cast<sorcer::ServiceProvider*>(first.value().servicer.get());
  ASSERT_NE(victim, nullptr);
  lab.network().partition(lab.invoker().address(),
                          victim->network_address());
  std::vector<std::string> survivors;
  for (const char* name : {"Mix-A", "Mix-B", "Mix-C"}) {
    if (name != victim->provider_name()) survivors.push_back(name);
  }
  ASSERT_EQ(survivors.size(), 2u);

  const auto timeouts_before = counter("invoke.timeouts");
  const auto subs_before = counter("sorcer.substitutions");
  const util::SimTime t0 = lab.now();
  std::vector<sorcer::ExertionPtr> batch = {
      read_task(survivors[0]), read_task(survivors[1]),
      sorcer::Task::make("read:any", sig)};  // unpinned: may substitute
  (void)sorcer::exert_all(batch, lab.accessor());

  // The partitioned call hit its deadline and was re-issued with the victim
  // excluded while its siblings completed; every exertion still succeeds.
  for (const auto& task : batch) {
    EXPECT_EQ(task->status(), sorcer::ExertStatus::kDone) << task->name();
  }
  EXPECT_GE(counter("invoke.timeouts") - timeouts_before, 1u);
  EXPECT_GE(counter("sorcer.substitutions") - subs_before, 1u);
  // The slow child's deadline is visible on the virtual clock, and only
  // once: the siblings' windows overlapped it instead of queuing behind it.
  EXPECT_GE(lab.now() - t0, config.invoke.call_timeout);
  EXPECT_LT(lab.now() - t0, 2 * config.invoke.call_timeout);
}

TEST(ScatterGatherTest, EachTimedOutCallDropsItsOwnLateResponse) {
  DeploymentConfig config = quiet_config();
  // Shorter than the round trip: every call times out, every response is a
  // straggler.
  config.network_latency = 5 * kMillisecond;
  config.invoke.call_timeout = 6 * kMillisecond;
  Deployment lab(config);
  for (const char* name : {"Late-A", "Late-B", "Late-C"}) {
    lab.add_temperature_sensor(name, 20.0);
  }
  const auto timeouts_before = counter("invoke.timeouts");
  const auto late_before = counter("invoke.late_responses");

  std::vector<sorcer::ExertionPtr> batch = {
      read_task("Late-A"), read_task("Late-B"), read_task("Late-C")};
  const util::SimTime t0 = lab.now();
  (void)sorcer::exert_all(batch, lab.accessor());
  for (const auto& task : batch) {
    EXPECT_EQ(task->status(), sorcer::ExertStatus::kFailed);
    EXPECT_EQ(std::static_pointer_cast<sorcer::Task>(task)->error().code(),
              util::ErrorCode::kTimeout);
  }
  EXPECT_EQ(counter("invoke.timeouts") - timeouts_before, 3u);
  // The timed-out calls overlapped too: the batch waited one shared
  // deadline window, not three in sequence.
  EXPECT_LT(lab.now() - t0, 2 * config.invoke.call_timeout);

  // Let the stragglers land: each is dropped and counted per call.
  lab.pump(100 * kMillisecond);
  EXPECT_EQ(counter("invoke.late_responses") - late_before, 3u);
  EXPECT_EQ(obs::metrics().gauge("invoke.outstanding").value(), 0.0);
}

TEST(ScatterGatherTest, FacadeMultiReadGathersOneBatch) {
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Page-A", 20.0);
  lab.add_temperature_sensor("Page-B", 21.0);
  lab.add_temperature_sensor("Page-C", 22.0);

  auto values = lab.facade().get_values({"Page-A", "Page-B", "Page-C",
                                         "Page-Missing"});
  ASSERT_EQ(values.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(values[static_cast<std::size_t>(i)].is_ok());
  }
  EXPECT_EQ(values[3].status().code(), util::ErrorCode::kNotFound);
}

// --- killed providers -------------------------------------------------------

TEST(KilledProviderTest, KilledJobberServesNothing) {
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Kill-Sensor");
  sorcer::Jobber* jobber = lab.jobber();
  ASSERT_NE(jobber, nullptr);
  // Kill it the way the chaos harness does: the process stops, its endpoint
  // leaves the fabric, but its registration lingers until the lease lapses.
  jobber->crash();
  lab.network().detach(jobber->network_address());
  const auto coordinated = jobber->jobs_coordinated();

  auto job = sorcer::Job::make(
      "j", {sorcer::Flow::kParallel, sorcer::Access::kPush, true});
  job->add(read_task("Kill-Sensor"));
  job->add(read_task("Kill-Sensor"));
  ASSERT_TRUE(sorcer::exert(job, lab.accessor()).is_ok());
  EXPECT_EQ(job->status(), sorcer::ExertStatus::kFailed);
  EXPECT_EQ(job->error().code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(jobber->jobs_coordinated(), coordinated);
}

// --- pings -------------------------------------------------------------------

TEST(PingTest, ReachableProviderPongsWithinDeadline) {
  Deployment lab(quiet_config());
  ASSERT_FALSE(lab.cybernodes().empty());
  const auto target = lab.cybernodes()[0]->network_address();
  EXPECT_TRUE(lab.invoker().ping(target, 10 * kMillisecond).is_ok());
}

TEST(PingTest, PartitionedProviderTimesOut) {
  Deployment lab(quiet_config());
  ASSERT_FALSE(lab.cybernodes().empty());
  const auto target = lab.cybernodes()[0]->network_address();
  lab.network().partition(lab.invoker().address(), target);
  EXPECT_EQ(lab.invoker().ping(target, 10 * kMillisecond).code(),
            util::ErrorCode::kTimeout);
}

TEST(PingTest, DetachedAddressFailsFast) {
  Deployment lab(quiet_config());
  EXPECT_EQ(lab.invoker().ping(util::new_uuid(), 10 * kMillisecond).code(),
            util::ErrorCode::kNotFound);
}

// --- endpoint lifecycle ------------------------------------------------------

TEST(EndpointTest, ProviderDetachesItsEndpointOnDestruction) {
  util::Scheduler sched;
  simnet::Network net(sched);
  simnet::Address addr;
  {
    auto tasker = std::make_shared<sorcer::Tasker>("Transient");
    tasker->attach_network(net);
    addr = tasker->network_address();
    EXPECT_TRUE(net.is_attached(addr));
  }
  EXPECT_FALSE(net.is_attached(addr));
}

TEST(EndpointTest, ReattachKeepsTheAddressStable) {
  util::Scheduler sched;
  simnet::Network net(sched);
  auto tasker = std::make_shared<sorcer::Tasker>("Sticky");
  tasker->attach_network(net);
  const auto addr = tasker->network_address();
  tasker->attach_network(net);  // idempotent re-attach
  EXPECT_EQ(tasker->network_address(), addr);
  EXPECT_TRUE(net.is_attached(addr));
}

// --- flat binary codec -------------------------------------------------------

/// A context exercising every ContextValue alternative plus awkward paths:
/// empty-string values, deep nesting, unicode path bytes.
sorcer::ServiceContext codec_sample_context() {
  sorcer::ServiceContext ctx("sample-ctx");
  ctx.put("", std::monostate{});  // empty path, empty value
  ctx.put("a/deeply/nested/sensor/path/value", 21.5,
          sorcer::PathDirection::kIn);
  ctx.put("count", std::int64_t{-12345678901}, sorcer::PathDirection::kOut);
  ctx.put("flags/ok", true);
  ctx.put("name", std::string("Neem \xc3\xa5\xc3\xa4\xc3\xb6"));
  ctx.put("empty-string", std::string(""));
  ctx.put("s\xc3\xa9ries/unicode-path", std::vector<double>{1.5, -2.25, 1e300});
  ctx.put("series/empty", std::vector<double>{});
  return ctx;
}

void expect_context_eq(const sorcer::ServiceContext& a,
                       const sorcer::ServiceContext& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.paths(), b.paths());
  for (const std::string& path : a.paths()) {
    const sorcer::ContextValue* va = a.find(path);
    const sorcer::ContextValue* vb = b.find(path);
    ASSERT_NE(va, nullptr) << path;
    ASSERT_NE(vb, nullptr) << path;
    EXPECT_TRUE(*va == *vb) << "value mismatch at '" << path << "'";
  }
  for (auto d : {sorcer::PathDirection::kIn, sorcer::PathDirection::kOut,
                 sorcer::PathDirection::kInOut}) {
    EXPECT_EQ(a.paths_with(d), b.paths_with(d));
  }
}

TEST(CodecTest, FlatRoundTripPreservesEveryAlternative) {
  const sorcer::ServiceContext original = codec_sample_context();
  sorcer::PathInternTable encode_side;
  sorcer::PathInternTable decode_side;
  sorcer::WireBuffer buf;
  sorcer::encode_context(original, encode_side, buf);

  sorcer::ServiceContext decoded;
  ASSERT_TRUE(
      sorcer::decode_context(buf.data(), buf.size(), decode_side, decoded)
          .is_ok());
  expect_context_eq(original, decoded);
}

TEST(CodecTest, AppendBatchReplyOmitsTheReadingsTheRequestorHolds) {
  // An appendBatch chunk of 64 readings: the request carries the columns,
  // the historian answers with two counters.
  std::vector<sensor::Reading> readings;
  for (int i = 0; i < 64; ++i) {
    readings.push_back({static_cast<util::SimTime>(i) * kSecond, 20.0 + i,
                        sensor::Quality::kGood, 0});
  }
  const std::vector<hist::SeriesSlice> slices{{"Reply-Sensor", readings}};
  std::vector<std::size_t> first_chunk;
  auto chunk =
      hist::make_append_batches(slices, 256, "t", first_chunk).front();
  sorcer::ServiceContext& ctx = chunk->context();
  const sorcer::ServiceContext request = ctx;  // the requestor's copy
  ctx.put(path::kHistAccepted, std::int64_t{64}, sorcer::PathDirection::kOut);
  ctx.put(path::kHistDuplicates, std::int64_t{0}, sorcer::PathDirection::kOut);

  sorcer::PathInternTable enc, dec;
  sorcer::WireBuffer reply;
  sorcer::encode_context(ctx, enc, reply, sorcer::Leg::kReply);
  EXPECT_LT(reply.size(), 64u) << "the reply must not echo 64 readings";
  sorcer::WireBuffer echo;
  sorcer::PathInternTable enc_all;
  sorcer::encode_context(ctx, enc_all, echo);
  EXPECT_GT(echo.size(), 64u * 16u);

  // Merging the reply into the requestor's copy adds the outputs and keeps
  // every input the reply left out.
  sorcer::ServiceContext requestor = request;
  ASSERT_TRUE(sorcer::decode_context(reply.data(), reply.size(), dec,
                                     requestor, sorcer::Leg::kReply)
                  .is_ok());
  EXPECT_EQ(requestor.get_double(path::kHistAccepted).value(), 64.0);
  EXPECT_EQ(requestor.get_series(path::kHistTimestamps).value(),
            request.get_series(path::kHistTimestamps).value());
  EXPECT_EQ(requestor.get_series(path::kHistValues).value(),
            request.get_series(path::kHistValues).value());
  EXPECT_EQ(requestor.get_string(path::kHistSensor).value(), "Reply-Sensor");
  EXPECT_EQ(requestor.size(), request.size() + 2);
}

TEST(WireInvokeTest, ProviderOutputsArriveThroughOutputOnlyReplies) {
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Echo-Sensor", 21.0);
  ASSERT_NE(lab.historian(), nullptr);
  std::vector<sensor::Reading> readings;
  for (int i = 1; i <= 64; ++i) {
    readings.push_back({static_cast<util::SimTime>(i) * kSecond, 20.0,
                        sensor::Quality::kGood, 0});
  }
  const std::vector<hist::SeriesSlice> slices{{"Echo-Series", readings}};
  std::vector<std::size_t> first_chunk;
  auto chunk =
      hist::make_append_batches(slices, 256, "t", first_chunk).front();

  lab.network().reset_stats();
  ASSERT_TRUE(sorcer::exert(chunk, lab.accessor()).is_ok());
  ASSERT_EQ(chunk->status(), sorcer::ExertStatus::kDone);
  // The historian's outputs reached the requestor; its inputs are intact.
  EXPECT_EQ(chunk->context().get_double(path::kHistAccepted).value(), 64.0);
  EXPECT_EQ(chunk->context().get_double(path::kHistDuplicates).value(), 0.0);
  EXPECT_EQ(chunk->context().get_series(path::kHistTimestamps).value().size(),
            64u);
  // The request carried the readings; the reply only the two counters.
  const auto request_bytes =
      lab.network().stats_for(lab.invoker().address()).payload_bytes_sent;
  const auto reply_bytes =
      lab.network()
          .stats_for(lab.historian()->network_address())
          .payload_bytes_sent;
  EXPECT_GT(request_bytes, 64u * 16u);
  EXPECT_LT(reply_bytes, 64u);

  // Read outputs (kInOut by default) still come back too.
  auto read = read_task("Echo-Sensor");
  ASSERT_TRUE(sorcer::exert(read, lab.accessor()).is_ok());
  EXPECT_TRUE(read->context().get_double(path::kValue).is_ok());
}

TEST(CodecTest, EmptyContextRoundTrips) {
  sorcer::ServiceContext original;
  sorcer::PathInternTable table_enc, table_dec;
  sorcer::WireBuffer buf;
  sorcer::encode_context(original, table_enc, buf);
  sorcer::ServiceContext decoded;
  decoded.put("stale", 1.0);  // must be trimmed by the in-place reload
  ASSERT_TRUE(
      sorcer::decode_context(buf.data(), buf.size(), table_dec, decoded)
          .is_ok());
  EXPECT_EQ(decoded.size(), 0u);
  EXPECT_EQ(decoded.name(), "");
}

TEST(CodecTest, LegacyRoundTripMatchesFlat) {
  const sorcer::ServiceContext original = codec_sample_context();
  sorcer::WireBuffer legacy_buf;
  sorcer::encode_context_legacy(original, legacy_buf);
  sorcer::ServiceContext via_legacy;
  ASSERT_TRUE(sorcer::decode_context_legacy(legacy_buf.data(),
                                            legacy_buf.size(), via_legacy)
                  .is_ok());
  expect_context_eq(original, via_legacy);

  sorcer::PathInternTable table_enc, table_dec;
  sorcer::WireBuffer flat_buf;
  sorcer::encode_context(original, table_enc, flat_buf);
  sorcer::ServiceContext via_flat;
  ASSERT_TRUE(sorcer::decode_context(flat_buf.data(), flat_buf.size(),
                                     table_dec, via_flat)
                  .is_ok());
  expect_context_eq(via_legacy, via_flat);
}

TEST(CodecTest, InternWarmingShrinksTheSecondEncoding) {
  const sorcer::ServiceContext ctx = codec_sample_context();
  sorcer::PathInternTable encode_side;
  sorcer::PathInternTable decode_side;
  const auto hits_before = counter("invoke.intern_hits");

  sorcer::WireBuffer cold, warm;
  sorcer::encode_context(ctx, encode_side, cold);    // defines every path
  sorcer::encode_context(ctx, encode_side, warm);    // all ids, no literals
  EXPECT_LT(warm.size(), cold.size());
  EXPECT_GE(counter("invoke.intern_hits") - hits_before, ctx.size());

  // Both encodings decode identically through one decoder table: the cold
  // pass teaches it the ids the warm pass relies on.
  sorcer::ServiceContext from_cold, from_warm;
  ASSERT_TRUE(sorcer::decode_context(cold.data(), cold.size(), decode_side,
                                     from_cold)
                  .is_ok());
  ASSERT_TRUE(sorcer::decode_context(warm.data(), warm.size(), decode_side,
                                     from_warm)
                  .is_ok());
  expect_context_eq(from_cold, from_warm);
}

TEST(CodecTest, UnknownInternIdIsRejected) {
  const sorcer::ServiceContext ctx = codec_sample_context();
  sorcer::PathInternTable warm_encoder;
  sorcer::WireBuffer cold, warm;
  sorcer::encode_context(ctx, warm_encoder, cold);
  sorcer::encode_context(ctx, warm_encoder, warm);

  // A decoder that never saw the defining (cold) encoding cannot resolve
  // the warm one's bare ids.
  sorcer::PathInternTable fresh_decoder;
  sorcer::ServiceContext decoded;
  EXPECT_EQ(sorcer::decode_context(warm.data(), warm.size(), fresh_decoder,
                                   decoded)
                .code(),
            util::ErrorCode::kCodecDesync);
}

TEST(CodecTest, EncoderResetRecoversALostDefinitionStream) {
  const sorcer::ServiceContext ctx = codec_sample_context();
  sorcer::PathInternTable encoder;
  sorcer::WireBuffer cold, warm, recovered;
  sorcer::encode_context(ctx, encoder, cold);  // defines every path — "lost"
  sorcer::encode_context(ctx, encoder, warm);  // bare ids only

  sorcer::PathInternTable decoder;  // never saw `cold`
  sorcer::ServiceContext decoded;
  ASSERT_EQ(
      sorcer::decode_context(warm.data(), warm.size(), decoder, decoded)
          .code(),
      util::ErrorCode::kCodecDesync);

  // The loss-recovery path: the encoder resets its stream, the next
  // encoding re-defines every path inline under a higher epoch, and the
  // stranded decoder adopts it.
  encoder.reset();
  sorcer::encode_context(ctx, encoder, recovered);
  ASSERT_TRUE(sorcer::decode_context(recovered.data(), recovered.size(),
                                     decoder, decoded)
                  .is_ok());
  EXPECT_EQ(decoded.size(), ctx.size());

  // A stale pre-reset encoding arriving late must be rejected, not decoded
  // against the new stream's mappings.
  EXPECT_EQ(
      sorcer::decode_context(warm.data(), warm.size(), decoder, decoded)
          .code(),
      util::ErrorCode::kCodecDesync);
}

TEST(CodecTest, TruncatedEncodingIsRejectedNotCrashed) {
  const sorcer::ServiceContext ctx = codec_sample_context();
  sorcer::PathInternTable table;
  sorcer::WireBuffer buf;
  sorcer::encode_context(ctx, table, buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    sorcer::PathInternTable fresh;
    sorcer::ServiceContext decoded;
    (void)sorcer::decode_context(buf.data(), cut, fresh, decoded);
    // Any outcome but a crash/UB is fine; most cuts must report truncation.
  }
  SUCCEED();
}

TEST(CodecTest, DecodeReusesSeriesCapacityInPlace) {
  sorcer::ServiceContext src("frames");
  src.put("flow/values", std::vector<double>(256, 1.0));
  sorcer::PathInternTable enc, dec;
  sorcer::WireBuffer buf;
  sorcer::encode_context(src, enc, buf);

  sorcer::ServiceContext target;
  ASSERT_TRUE(
      sorcer::decode_context(buf.data(), buf.size(), dec, target).is_ok());
  const std::vector<double>* first = target.peek_series("flow/values");
  ASSERT_NE(first, nullptr);
  const double* backing = first->data();

  // Decoding the same shape again must land in the same heap storage.
  ASSERT_TRUE(
      sorcer::decode_context(buf.data(), buf.size(), dec, target).is_ok());
  const std::vector<double>* second = target.peek_series("flow/values");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->data(), backing);
}

TEST(CodecTest, WirePathWarmsInternTablesAcrossCalls) {
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Warm-Sensor", 21.0);

  auto first = read_task("Warm-Sensor");
  ASSERT_TRUE(sorcer::exert(first, lab.accessor()).is_ok());
  lab.network().reset_stats();
  auto second = read_task("Warm-Sensor");
  ASSERT_TRUE(sorcer::exert(second, lab.accessor()).is_ok());
  const auto warm_sent =
      lab.network().stats_for(lab.invoker().address()).payload_bytes_sent;

  lab.network().reset_stats();
  auto third = read_task("Warm-Sensor");
  ASSERT_TRUE(sorcer::exert(third, lab.accessor()).is_ok());
  const auto steady_sent =
      lab.network().stats_for(lab.invoker().address()).payload_bytes_sent;

  // Steady-state calls ship interned ids only — no larger than the warmed
  // second call, and strictly smaller than the same context in the legacy
  // string envelope.
  sorcer::WireBuffer legacy;
  sorcer::encode_context_legacy(first->context(), legacy);
  EXPECT_LE(steady_sent, warm_sent);
  EXPECT_LT(steady_sent, legacy.size() + sorcer::wire::kRequestEnvelopeBytes);
}

TEST(CodecTest, BufferPoolRecyclesAcrossRoundTrips) {
  sorcer::BufferPool pool;
  const auto reuse_before = counter("invoke.pool_reuse");
  const auto cold_before = counter("invoke.pool_acquires");
  sorcer::WireBuffer buf = pool.acquire();
  buf.assign(128, 0xab);
  pool.release(std::move(buf));
  EXPECT_EQ(pool.retained(), 1u);
  sorcer::WireBuffer recycled = pool.acquire();
  EXPECT_TRUE(recycled.empty());  // cleared on reuse
  EXPECT_GE(recycled.capacity(), 128u);
  EXPECT_EQ(pool.retained(), 0u);
  // One cold acquisition, one recycled: each is counted exactly once.
  EXPECT_EQ(counter("invoke.pool_acquires") - cold_before, 1u);
  EXPECT_EQ(counter("invoke.pool_reuse") - reuse_before, 1u);
  // A buffer with no capacity is not worth keeping.
  pool.release(sorcer::WireBuffer{});
  EXPECT_EQ(pool.retained(), 0u);
}

TEST(CodecTest, BufferPoolSurvivesConcurrentRecycling) {
  // TSan-exercised: buffers move between threads while the pool recycles
  // underneath them.
  sorcer::BufferPool pool;
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&pool, t] {
      for (int i = 0; i < 500; ++i) {
        sorcer::WireBuffer buf = pool.acquire();
        buf.push_back(static_cast<std::uint8_t>(t));
        buf.insert(buf.end(), 32, static_cast<std::uint8_t>(i));
        pool.release(std::move(buf));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_GE(pool.retained(), 1u);
  EXPECT_LE(pool.retained(), 4u);  // at most one buffer per worker in flight
}

TEST(CodecTest, BufferReuseReadingsCountEachAcquisitionOnce) {
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Reuse-Sensor", 21.0);
  obs::metrics().reset();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sorcer::exert(read_task("Reuse-Sensor"), lab.accessor()).is_ok());
  }
  const auto cold = counter("invoke.pool_acquires");
  const auto reuse = counter("invoke.pool_reuse");
  // Each call acquires twice: the invoker's request buffer and the
  // provider's response buffer. A buffer circulates — the provider
  // recycles the request buffer and draws it back out for its response,
  // which the invoker recycles for its next request — so after the first
  // cold acquisition every acquisition is a reuse, counted once.
  EXPECT_EQ(cold, 1u);
  EXPECT_EQ(reuse, 9u);
  // perfbench's sorcer.buffer_reuse_ratio reads reuse / (reuse + acquires)
  // and the health row reuse / (reuse + cold): both 90% here.
  EXPECT_DOUBLE_EQ(static_cast<double>(reuse) /
                       static_cast<double>(reuse + cold),
                   0.9);
  const std::string health =
      obs::render_federation_health(obs::metrics().snapshot());
  EXPECT_NE(health.find("90.0% (9/10)"), std::string::npos) << health;
}

TEST(CodecTest, DeferredResponseOutlivesItsProvider) {
  // A response held back for the provider's modeled service time waits in
  // the fabric with its payload buffer by value, so the provider — and the
  // pool that buffer came from — can die during the delay: the requestor
  // still decodes the reply and recycles the buffer into its own pool.
  util::Scheduler sched;
  simnet::Network net(sched);
  sorcer::RemoteInvoker invoker(net);
  auto tasker = std::make_shared<sorcer::Tasker>("Mortal");
  tasker->add_operation(
      "square",
      [](sorcer::ServiceContext& ctx) {
        const double x = ctx.get_double("arg/x").value_or(0);
        ctx.put("result/value", x * x, sorcer::PathDirection::kOut);
        return util::Status::ok();
      },
      10 * kMillisecond);
  tasker->attach_network(net);
  auto task = sorcer::Task::make(
      "square", sorcer::Signature{sorcer::type::kTasker, "square", "Mortal"});
  task->context().put("arg/x", 3.0, sorcer::PathDirection::kIn);

  sorcer::PendingCall call = invoker.begin_invoke(tasker, task, nullptr);
  ASSERT_FALSE(call.completed());
  // Deliver the request: the op runs and its response is parked for the
  // rest of the 10 ms service time.
  sched.run_for(kMillisecond);
  ASSERT_EQ(tasker->invocation_count(), 1u);
  const simnet::Address addr = tasker->network_address();
  tasker.reset();  // the provider dies inside the delay
  ASSERT_FALSE(net.is_attached(addr));

  sorcer::PendingCall* calls[] = {&call};
  invoker.pump_until_all(calls);
  ASSERT_TRUE(call.completed());
  ASSERT_TRUE(call.result().is_ok());
  EXPECT_EQ(task->status(), sorcer::ExertStatus::kDone);
  EXPECT_DOUBLE_EQ(task->context().get_double("result/value").value_or(-1),
                   9.0);
  EXPECT_GE(sched.now(), 10 * kMillisecond);
  EXPECT_EQ(invoker.codec_state().buffers.retained(), 1u);
}

TEST(CodecTest, ContextArenaStoresStableViews) {
  sorcer::ContextArena arena(64);  // tiny blocks to force growth
  std::vector<std::string_view> views;
  std::vector<std::string> sources;
  sources.reserve(100);
  for (int i = 0; i < 100; ++i) {
    sources.push_back("sensor/path/number/" + std::to_string(i));
    views.push_back(arena.store(sources.back()));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(views[i], sources[i]);
  EXPECT_GT(arena.bytes_allocated(), 0u);
}

TEST(CodecTest, ContextArenaRecyclesContextShells) {
  sorcer::ContextArena arena;
  sorcer::ServiceContext ctx = arena.acquire();
  ctx.put("a", std::vector<double>(64, 0.0));
  arena.release(std::move(ctx));
  EXPECT_EQ(arena.retained_contexts(), 1u);
  sorcer::ServiceContext again = arena.acquire();
  EXPECT_EQ(again.size(), 0u);  // logically cleared
  EXPECT_EQ(arena.retained_contexts(), 0u);
}

}  // namespace
}  // namespace sensorcer::core
