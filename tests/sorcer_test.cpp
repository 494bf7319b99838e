// Unit tests for the SORCER substrate: service contexts, providers and task
// execution, the service accessor, exert() routing, Jobber flows, the
// exertion space and the Spacer's pull strategy. Every federation runs on a
// simulated fabric: providers are attached to a simnet::Network and every
// dispatch crosses it through a RemoteInvoker.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "simnet/network.h"
#include "sorcer/codec.h"
#include "sorcer/exert.h"
#include "sorcer/invoke.h"
#include "sorcer/jobber.h"
#include "sorcer/spacer.h"

namespace sensorcer::sorcer {
namespace {

using registry::LookupService;
using util::kMillisecond;
using util::kSecond;

// --- ServiceContext ----------------------------------------------------------------

TEST(Context, PutGetTyped) {
  ServiceContext ctx("test");
  ctx.put("sensor/value", 21.5);
  ctx.put("sensor/name", std::string("Neem"));
  ctx.put("sensor/count", std::int64_t{3});
  ctx.put("sensor/ok", true);
  ctx.put("sensor/series", std::vector<double>{1, 2, 3});

  EXPECT_DOUBLE_EQ(ctx.get_double("sensor/value").value(), 21.5);
  EXPECT_EQ(ctx.get_string("sensor/name").value(), "Neem");
  EXPECT_DOUBLE_EQ(ctx.get_double("sensor/count").value(), 3.0);  // int→double
  EXPECT_EQ(ctx.get_series("sensor/series").value().size(), 3u);
}

TEST(Context, MissingPathIsNotFound) {
  ServiceContext ctx;
  EXPECT_EQ(ctx.get("nope").status().code(), util::ErrorCode::kNotFound);
}

TEST(Context, TypeMismatchIsInvalidArgument) {
  ServiceContext ctx;
  ctx.put("s", std::string("text"));
  EXPECT_EQ(ctx.get_double("s").status().code(),
            util::ErrorCode::kInvalidArgument);
  ctx.put("d", 1.0);
  EXPECT_EQ(ctx.get_string("d").status().code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(ctx.get_series("d").status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(Context, RemoveAndHas) {
  ServiceContext ctx;
  ctx.put("a", 1.0);
  EXPECT_TRUE(ctx.has("a"));
  EXPECT_TRUE(ctx.remove("a"));
  EXPECT_FALSE(ctx.has("a"));
  EXPECT_FALSE(ctx.remove("a"));
}

TEST(Context, PathsSortedAndDirectional) {
  ServiceContext ctx;
  ctx.put("b/out", 1.0, PathDirection::kOut);
  ctx.put("a/in", 2.0, PathDirection::kIn);
  ctx.put("c/io", 3.0);
  EXPECT_EQ(ctx.paths(), (std::vector<std::string>{"a/in", "b/out", "c/io"}));
  EXPECT_EQ(ctx.paths_with(PathDirection::kIn),
            (std::vector<std::string>{"a/in"}));
  EXPECT_EQ(ctx.paths_with(PathDirection::kOut),
            (std::vector<std::string>{"b/out"}));
}

TEST(Context, MergeOtherWins) {
  ServiceContext a, b;
  a.put("x", 1.0);
  a.put("y", 2.0);
  b.put("y", 20.0);
  b.put("z", 30.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.get_double("x").value(), 1.0);
  EXPECT_DOUBLE_EQ(a.get_double("y").value(), 20.0);
  EXPECT_DOUBLE_EQ(a.get_double("z").value(), 30.0);
}

TEST(Context, FindAndPeekAccessors) {
  ServiceContext ctx;
  ctx.put("s", std::string("text"));
  ctx.put("v", std::vector<double>{1, 2, 3});
  ctx.put("d", 4.5);

  const ContextValue* found = ctx.find("d");
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(std::get<double>(*found), 4.5);
  EXPECT_EQ(ctx.find("missing"), nullptr);

  auto sv = ctx.peek_string("s");
  ASSERT_TRUE(sv.has_value());
  EXPECT_EQ(*sv, "text");
  EXPECT_FALSE(ctx.peek_string("d").has_value());  // wrong type
  EXPECT_FALSE(ctx.peek_string("missing").has_value());

  const std::vector<double>* series = ctx.peek_series("v");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->size(), 3u);
  EXPECT_EQ(ctx.peek_series("s"), nullptr);  // wrong type
  EXPECT_EQ(ctx.peek_series("missing"), nullptr);
}

TEST(Context, ReloadReusesStorageAndStaysSorted) {
  ServiceContext ctx("orig");
  ctx.put("a", 1.0);
  ctx.put("b", std::string("keep-my-capacity"));
  ctx.put("c", 3.0);

  ctx.reload_begin("reloaded");
  ctx.reload_slot("a", PathDirection::kIn) = 10.0;
  ctx.reload_slot("b", PathDirection::kOut) = std::string("new");
  ctx.reload_end();

  EXPECT_EQ(ctx.name(), "reloaded");
  EXPECT_EQ(ctx.size(), 2u);
  EXPECT_FALSE(ctx.has("c"));  // trimmed by reload_end
  EXPECT_DOUBLE_EQ(ctx.get_double("a").value(), 10.0);
  EXPECT_EQ(ctx.get_string("b").value(), "new");
  EXPECT_EQ(ctx.paths_with(PathDirection::kOut),
            (std::vector<std::string>{"b"}));
}

TEST(Context, ClearDropsEntriesAndRefillsInOrder) {
  ServiceContext ctx("named");
  ctx.put("sensor/value", 1.0, PathDirection::kOut);
  ctx.put("sensor/timestamp", std::int64_t{5}, PathDirection::kOut);
  ctx.put("sensor/quality", std::string("GOOD"), PathDirection::kOut);
  ctx.clear();
  EXPECT_EQ(ctx.size(), 0u);
  EXPECT_FALSE(ctx.has("sensor/value"));
  EXPECT_EQ(ctx.name(), "named");

  // Refill in another order, with other types: every reused entry holds
  // exactly what was put, and the paths stay sorted.
  ctx.put("sensor/quality", 2.0);
  ctx.put("sensor/unit", std::string("C"), PathDirection::kIn);
  ctx.put("sensor/value", std::string("text"));
  EXPECT_EQ(ctx.paths(), (std::vector<std::string>{
                             "sensor/quality", "sensor/unit", "sensor/value"}));
  EXPECT_DOUBLE_EQ(ctx.get_double("sensor/quality").value(), 2.0);
  EXPECT_EQ(ctx.get_string("sensor/value").value(), "text");
  EXPECT_EQ(ctx.paths_with(PathDirection::kIn),
            (std::vector<std::string>{"sensor/unit"}));
}

TEST(Context, RemovedEntryStorageServesTheNextInsert) {
  ServiceContext ctx;
  ctx.put("a", 1.0);
  ctx.put("b", std::vector<double>{1, 2, 3});
  ctx.put("c", 3.0);
  ASSERT_TRUE(ctx.remove("b"));
  ctx.put("bb", std::int64_t{7});
  EXPECT_EQ(ctx.paths(), (std::vector<std::string>{"a", "bb", "c"}));
  EXPECT_DOUBLE_EQ(ctx.get_double("bb").value(), 7.0);
  EXPECT_FALSE(ctx.get_series("bb").is_ok());
}

TEST(Context, ReloadThatShrinksThenGrowsLeavesNoStaleEntry) {
  ServiceContext ctx;
  ctx.reload_begin("");
  ctx.reload_slot("a", PathDirection::kIn) = 1.0;
  ctx.reload_slot("b", PathDirection::kIn) = std::string("bee");
  ctx.reload_slot("c", PathDirection::kIn) = 3.0;
  ctx.reload_end();

  ctx.reload_begin("");
  ctx.reload_slot("a", PathDirection::kIn) = 10.0;
  ctx.reload_end();
  EXPECT_EQ(ctx.paths(), (std::vector<std::string>{"a"}));

  ctx.reload_begin("");
  ctx.reload_slot("a", PathDirection::kOut) = 11.0;
  ctx.reload_slot("d", PathDirection::kOut) = 4.0;
  ctx.reload_end();
  ctx.merge_slot("e", PathDirection::kOut) = 5.0;
  EXPECT_EQ(ctx.paths(), (std::vector<std::string>{"a", "d", "e"}));
  EXPECT_DOUBLE_EQ(ctx.get_double("d").value(), 4.0);
  EXPECT_DOUBLE_EQ(ctx.get_double("e").value(), 5.0);
}

TEST(Context, CopyCarriesOnlyLiveEntries) {
  ServiceContext ctx("orig");
  ctx.put("a", 1.0);
  ctx.put("b", 2.0);
  ctx.put("c", 3.0);
  ASSERT_TRUE(ctx.remove("b"));
  ServiceContext copy = ctx;
  EXPECT_EQ(copy.name(), "orig");
  EXPECT_EQ(copy.paths(), (std::vector<std::string>{"a", "c"}));
  ServiceContext assigned;
  assigned.put("z", 0.0);
  assigned = ctx;
  EXPECT_EQ(assigned.paths(), (std::vector<std::string>{"a", "c"}));
  copy.put("b", 4.0);
  EXPECT_DOUBLE_EQ(copy.get_double("b").value(), 4.0);
  EXPECT_FALSE(ctx.has("b"));
}

TEST(Context, ToStringListsPaths) {
  ServiceContext ctx("c");
  ctx.put("sensor/value", 21.5);
  const std::string s = ctx.to_string();
  EXPECT_NE(s.find("sensor/value = 21.5"), std::string::npos);
}

// --- fixture: a small federation --------------------------------------------------

class FederationTest : public ::testing::Test {
 protected:
  FederationTest() {
    lus = std::make_shared<LookupService>("lus", sched);
    accessor.add_lookup(lus);
    accessor.set_invoker(&invoker);

    adder = std::make_shared<Tasker>("Adder");
    adder->add_operation(
        "add",
        [](ServiceContext& ctx) -> util::Status {
          auto a = ctx.get_double("arg/a");
          auto b = ctx.get_double("arg/b");
          if (!a.is_ok() || !b.is_ok()) {
            return {util::ErrorCode::kInvalidArgument, "missing args"};
          }
          ctx.put("result/sum", a.value() + b.value());
          return util::Status::ok();
        },
        5 * kMillisecond);
    adder->attach_network(net);
    (void)adder->join(lus, lrm, 60 * kSecond);

    failer = std::make_shared<Tasker>("Failer");
    failer->add_operation("boom", [](ServiceContext&) -> util::Status {
      return {util::ErrorCode::kInternal, "kaboom"};
    });
    failer->attach_network(net);
    (void)failer->join(lus, lrm, 60 * kSecond);
  }

  /// One request/response round trip on the fabric.
  util::SimDuration round_trip() const { return 2 * net.latency(); }

  std::shared_ptr<Task> add_task(double a, double b,
                                 const std::string& provider = "") {
    auto task = Task::make("t", Signature{type::kTasker, "add", provider});
    task->context().put("arg/a", a);
    task->context().put("arg/b", b);
    return task;
  }

  util::Scheduler sched;
  // Declared before everything attached to it: endpoints detach on
  // destruction, so the fabric must outlive them.
  simnet::Network net{sched};
  RemoteInvoker invoker{net};
  registry::LeaseRenewalManager lrm{sched};
  std::shared_ptr<LookupService> lus;
  ServiceAccessor accessor;
  std::shared_ptr<Tasker> adder;
  std::shared_ptr<Tasker> failer;
};

// --- provider / task execution ------------------------------------------------------

TEST_F(FederationTest, TaskExecutesAndFillsContext) {
  auto task = add_task(2, 3);
  auto result = exert(task, accessor);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(task->status(), ExertStatus::kDone);
  EXPECT_DOUBLE_EQ(task->context().get_double("result/sum").value(), 5.0);
  EXPECT_EQ(task->trace(), (std::vector<std::string>{"Adder"}));
  EXPECT_EQ(task->latency(), 5 * kMillisecond + round_trip());
  EXPECT_EQ(adder->invocation_count(), 1u);
}

TEST_F(FederationTest, RenewedTaskIsLikeAFreshOne) {
  auto task = add_task(2, 3);
  ASSERT_TRUE(exert(task, accessor).is_ok());
  ASSERT_EQ(task->status(), ExertStatus::kDone);
  task->set_trace_context({1, 2});

  // Warm two intern tables to the same state, then encode the renewed
  // task into one and a fresh task into the other.
  PathInternTable renewed_table;
  PathInternTable fresh_table;
  WireBuffer warm;
  encode_context(task->context(), renewed_table, warm);
  encode_context(task->context(), fresh_table, warm);

  task->renew();
  EXPECT_EQ(task->status(), ExertStatus::kInitial);
  EXPECT_TRUE(task->error().is_ok());
  EXPECT_EQ(task->latency(), 0);
  EXPECT_TRUE(task->trace().empty());
  EXPECT_FALSE(task->trace_context().valid());
  EXPECT_EQ(task->context().size(), 0u);

  auto fresh = Task::make("t", Signature{type::kTasker, "add", ""});
  WireBuffer renewed_bytes;
  WireBuffer fresh_bytes;
  encode_context(task->context(), renewed_table, renewed_bytes);
  encode_context(fresh->context(), fresh_table, fresh_bytes);
  EXPECT_EQ(renewed_bytes, fresh_bytes);

  // And it runs again exactly like a fresh one.
  task->context().put("arg/a", 4.0);
  task->context().put("arg/b", 5.0);
  ASSERT_TRUE(exert(task, accessor).is_ok());
  EXPECT_DOUBLE_EQ(task->context().get_double("result/sum").value(), 9.0);
  EXPECT_EQ(task->trace(), (std::vector<std::string>{"Adder"}));
  EXPECT_EQ(task->latency(), 5 * kMillisecond + round_trip());
}

TEST_F(FederationTest, UnknownSelectorFailsTask) {
  auto task = Task::make("t", Signature{type::kTasker, "subtract", "Adder"});
  (void)exert(task, accessor);
  EXPECT_EQ(task->status(), ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kNotFound);
}

TEST_F(FederationTest, WrongTypeRejected) {
  auto task = Task::make("t", Signature{"Cybernode", "add", "Adder"});
  (void)exert(task, accessor);
  EXPECT_EQ(task->status(), ExertStatus::kFailed);
}

TEST_F(FederationTest, NoProviderForSignature) {
  auto task = Task::make("t", Signature{"Nonexistent", "op", ""});
  (void)exert(task, accessor);
  EXPECT_EQ(task->status(), ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kNotFound);
}

TEST_F(FederationTest, ProviderPinRespected) {
  auto task = add_task(1, 1, "Adder");
  (void)exert(task, accessor);
  EXPECT_EQ(task->status(), ExertStatus::kDone);
  auto pinned_wrong = add_task(1, 1, "Failer");
  (void)exert(pinned_wrong, accessor);
  EXPECT_EQ(pinned_wrong->status(), ExertStatus::kFailed);
}

TEST_F(FederationTest, OperationErrorPropagates) {
  auto task = Task::make("t", Signature{type::kTasker, "boom", "Failer"});
  (void)exert(task, accessor);
  EXPECT_EQ(task->status(), ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kInternal);
  EXPECT_EQ(task->error().message(), "kaboom");
}

TEST_F(FederationTest, ExertNullIsError) {
  EXPECT_FALSE(exert(nullptr, accessor).is_ok());
}

TEST_F(FederationTest, DetachedProviderIsUnavailable) {
  // A provider with no live endpoint on the fabric serves nothing, even
  // while its registration lingers in the lookup service.
  net.detach(adder->network_address());
  auto task = add_task(2, 3, "Adder");
  ASSERT_TRUE(exert(task, accessor).is_ok());
  EXPECT_EQ(task->status(), ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(adder->invocation_count(), 0u);
}

TEST_F(FederationTest, AccessorWithoutInvokerCannotDispatch) {
  // Every dispatch entry point refuses an accessor with no invoker wired.
  ServiceAccessor bare;
  bare.add_lookup(lus);
  const auto precondition = util::ErrorCode::kFailedPrecondition;

  auto task = add_task(1, 1);
  auto exerted = exert(task, bare);
  EXPECT_EQ(exerted.status().code(), precondition);
  EXPECT_EQ(task->error().code(), precondition);

  auto batched = add_task(1, 1);
  exert_all({batched}, bare);
  EXPECT_EQ(batched->error().code(), precondition);

  EXPECT_EQ(adder->invocation_count(), 0u);
}

TEST_F(FederationTest, ServiceItemExportsTypesAndName) {
  auto item = adder->service_item();
  EXPECT_TRUE(item.implements(type::kTasker));
  EXPECT_TRUE(item.implements(type::kServicer));
  EXPECT_EQ(item.attributes.get_string(registry::attr::kName), "Adder");
  EXPECT_GT(item.wire_bytes(), 64u);
}

// --- accessor ----------------------------------------------------------------------

TEST_F(FederationTest, AccessorCachesResolutions) {
  // Cache effectiveness is tracked on the process-wide obs registry
  // (accessor.cache_hits / accessor.cache_misses), so measure deltas.
  const auto hits0 = obs::metrics().counter("accessor.cache_hits").value();
  const auto misses0 =
      obs::metrics().counter("accessor.cache_misses").value();
  for (int i = 0; i < 5; ++i) (void)exert(add_task(1, 2), accessor);
  EXPECT_EQ(obs::metrics().counter("accessor.cache_misses").value() - misses0,
            1u);
  EXPECT_EQ(obs::metrics().counter("accessor.cache_hits").value() - hits0,
            4u);
}

TEST_F(FederationTest, CacheInvalidatedWhenProviderLeaves) {
  (void)exert(add_task(1, 2), accessor);
  adder->leave();
  auto task = add_task(1, 2);
  (void)exert(task, accessor);
  EXPECT_EQ(task->status(), ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kNotFound);
}

TEST_F(FederationTest, FindAllDeduplicatesAcrossLookups) {
  auto lus2 = std::make_shared<LookupService>("lus2", sched);
  accessor.add_lookup(lus2);
  (void)adder->join(lus2, lrm, 60 * kSecond);  // now registered in both
  auto items =
      accessor.find_all(registry::ServiceTemplate::by_type(type::kTasker));
  EXPECT_EQ(items.size(), 2u);  // Adder counted once, Failer once
}

TEST_F(FederationTest, CrashLeavesStaleEntryUntilLeaseExpiry) {
  // crash() stops renewal but does not deregister; the provider stays
  // discoverable until its lease lapses (per the Jini model).
  auto short_lived = std::make_shared<Tasker>("ShortLived");
  short_lived->add_operation("noop", [](ServiceContext&) {
    return util::Status::ok();
  });
  (void)short_lived->join(lus, lrm, 2 * kSecond);
  short_lived->crash();
  EXPECT_TRUE(
      accessor.find_servicer(Signature{type::kTasker, "noop", "ShortLived"})
          .is_ok());
  sched.run_for(3 * kSecond);
  EXPECT_FALSE(
      accessor.find_servicer(Signature{type::kTasker, "noop", "ShortLived"})
          .is_ok());
}

// --- Jobber ------------------------------------------------------------------------

class JobberTest : public FederationTest {
 protected:
  JobberTest() {
    jobber = std::make_shared<Jobber>("Jobber", accessor);
    jobber->attach_network(net);
    (void)jobber->join(lus, lrm, 60 * kSecond);
  }
  std::shared_ptr<Jobber> jobber;
};

TEST_F(JobberTest, SequenceJobRunsAllChildren) {
  auto job = Job::make("j", {Flow::kSequence, Access::kPush, true});
  job->add(add_task(1, 2));
  job->add(add_task(3, 4));
  (void)exert(job, accessor);
  EXPECT_EQ(job->status(), ExertStatus::kDone);
  EXPECT_DOUBLE_EQ(
      job->children()[0]->context().get_double("result/sum").value(), 3);
  EXPECT_DOUBLE_EQ(
      job->children()[1]->context().get_double("result/sum").value(), 7);
  EXPECT_EQ(jobber->jobs_coordinated(), 1u);
}

TEST_F(JobberTest, JobContextCollectsChildOutputs) {
  auto job = Job::make("j", {});
  auto t = add_task(2, 2);
  job->add(t);
  (void)exert(job, accessor);
  EXPECT_DOUBLE_EQ(job->context().get_double("t/result/sum").value(), 4.0);
}

TEST_F(JobberTest, RenewedJobRenewsItsChildrenAndRunsAgain) {
  auto job = Job::make("j", {Flow::kParallel, Access::kPush, false});
  job->add(Task::make("x", Signature{type::kTasker, "add", ""}));
  job->add(Task::make("y", Signature{type::kTasker, "add", ""}));
  const auto run = [&](double a) {
    for (const auto& child : job->children()) {
      child->context().put("arg/a", a);
      child->context().put("arg/b", 1.0);
    }
    ASSERT_TRUE(exert(job, accessor).is_ok());
    ASSERT_EQ(job->status(), ExertStatus::kDone);
  };
  run(1.0);
  const util::SimDuration first_latency = job->latency();

  job->renew();
  EXPECT_EQ(job->status(), ExertStatus::kInitial);
  EXPECT_EQ(job->latency(), 0);
  EXPECT_EQ(job->context().size(), 0u);
  EXPECT_TRUE(job->trace().empty());
  for (const auto& child : job->children()) {
    EXPECT_EQ(child->status(), ExertStatus::kInitial);
    EXPECT_EQ(child->context().size(), 0u);
    EXPECT_EQ(child->latency(), 0);
    EXPECT_FALSE(child->trace_context().valid());
  }

  run(2.0);
  EXPECT_EQ(job->latency(), first_latency);  // not accumulated
  EXPECT_DOUBLE_EQ(job->context().get_double("x/result/sum").value(), 3.0);
  EXPECT_DOUBLE_EQ(job->context().get_double("y/result/sum").value(), 3.0);
  EXPECT_EQ(job->trace(), (std::vector<std::string>{"Jobber"}));
}

TEST_F(JobberTest, SequenceLatencyIsSumParallelIsMax) {
  auto seq = Job::make("seq", {Flow::kSequence, Access::kPush, true});
  auto par = Job::make("par", {Flow::kParallel, Access::kPush, true});
  for (int i = 0; i < 4; ++i) {
    seq->add(add_task(i, i));
    par->add(add_task(i, i));
  }
  (void)exert(seq, accessor);
  (void)exert(par, accessor);
  // Four 5ms tasks: sequence ≈ 20ms + overheads, parallel ≈ 5ms + overheads.
  EXPECT_GE(seq->latency(), 20 * kMillisecond);
  EXPECT_LT(par->latency(), 10 * kMillisecond);
  EXPECT_GT(par->latency(), 5 * kMillisecond);
}

TEST_F(JobberTest, FailFastStopsSequence) {
  auto job = Job::make("j", {Flow::kSequence, Access::kPush, true});
  job->add(Task::make("bad", Signature{type::kTasker, "boom", "Failer"}));
  auto never = add_task(1, 1);
  job->add(never);
  (void)exert(job, accessor);
  EXPECT_EQ(job->status(), ExertStatus::kFailed);
  EXPECT_EQ(never->status(), ExertStatus::kInitial);
}

TEST_F(JobberTest, LenientSequenceRunsEverythingAndSucceeds) {
  auto job = Job::make("j", {Flow::kSequence, Access::kPush, false});
  job->add(Task::make("bad", Signature{type::kTasker, "boom", "Failer"}));
  auto ok = add_task(1, 1);
  job->add(ok);
  (void)exert(job, accessor);
  EXPECT_EQ(job->status(), ExertStatus::kDone);
  EXPECT_EQ(ok->status(), ExertStatus::kDone);
}

TEST_F(JobberTest, LenientJobWithAllFailuresFails) {
  auto job = Job::make("j", {Flow::kSequence, Access::kPush, false});
  job->add(Task::make("bad", Signature{type::kTasker, "boom", "Failer"}));
  (void)exert(job, accessor);
  EXPECT_EQ(job->status(), ExertStatus::kFailed);
}

TEST_F(JobberTest, LenientParallelJobWithAllFailuresFails) {
  // Parallel flow reaches the same verdict as sequence flow.
  auto job = Job::make("j", {Flow::kParallel, Access::kPush, false});
  job->add(Task::make("bad", Signature{type::kTasker, "boom", "Failer"}));
  job->add(Task::make("worse", Signature{type::kTasker, "boom", "Failer"}));
  (void)exert(job, accessor);
  EXPECT_EQ(job->status(), ExertStatus::kFailed);
  EXPECT_EQ(job->error().code(), util::ErrorCode::kAborted);
}

TEST_F(JobberTest, ParallelFailFastFailsJob) {
  auto job = Job::make("j", {Flow::kParallel, Access::kPush, true});
  job->add(add_task(1, 1));
  job->add(Task::make("bad", Signature{type::kTasker, "boom", "Failer"}));
  (void)exert(job, accessor);
  EXPECT_EQ(job->status(), ExertStatus::kFailed);
}

TEST_F(JobberTest, NestedJobsFederateRecursively) {
  auto inner = Job::make("inner", {Flow::kParallel, Access::kPush, true});
  inner->add(add_task(1, 2));
  inner->add(add_task(3, 4));
  auto outer = Job::make("outer", {Flow::kSequence, Access::kPush, true});
  outer->add(inner);
  outer->add(add_task(5, 6));
  (void)exert(outer, accessor);
  EXPECT_EQ(outer->status(), ExertStatus::kDone);
  EXPECT_EQ(inner->status(), ExertStatus::kDone);
  EXPECT_DOUBLE_EQ(
      outer->context().get_double("inner/t/result/sum").value_or(-1), 7.0);
}

TEST_F(JobberTest, EmptyJobSucceedsTrivially) {
  auto job = Job::make("empty", {});
  (void)exert(job, accessor);
  EXPECT_EQ(job->status(), ExertStatus::kDone);
}

TEST_F(JobberTest, SixteenChildParallelJobOverlapsOnTheFabric) {
  auto job = Job::make("j", {Flow::kParallel, Access::kPush, true});
  std::vector<std::shared_ptr<Task>> tasks;
  for (int i = 0; i < 16; ++i) {
    auto t = add_task(i, 2 * i);
    tasks.push_back(t);
    job->add(t);
  }
  (void)exert(job, accessor);
  EXPECT_EQ(job->status(), ExertStatus::kDone);
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(tasks[i]->context().get_double("result/sum").value(),
                     3.0 * i);
  }
  EXPECT_EQ(adder->invocation_count(), 16u);
  // All sixteen round trips overlap: the job costs one child (service time
  // plus its round trip), one batch-dispatch overhead and the job's own
  // round trip to the Jobber.
  EXPECT_EQ(job->latency(), 5 * kMillisecond + round_trip() +
                                Jobber::kDispatchOverhead + round_trip());
}

// --- ExertSpace -----------------------------------------------------------------------

TEST(ExertSpaceTest, WriteTakeCompleteConservation) {
  ExertSpace space;
  auto t1 = Task::make("t1", {});
  auto t2 = Task::make("t2", {});
  const auto id1 = space.write(t1);
  space.write(t2);
  EXPECT_EQ(space.pending(), 2u);

  auto env = space.take();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->id, id1);  // FIFO
  EXPECT_EQ(space.pending(), 1u);
  EXPECT_EQ(space.in_flight(), 1u);

  space.complete(env->id);
  EXPECT_EQ(space.in_flight(), 0u);
  EXPECT_EQ(space.total_written(), 2u);
  EXPECT_EQ(space.total_completed(), 1u);
}

TEST(ExertSpaceTest, RequeueReturnsTakenTask) {
  ExertSpace space;
  space.write(Task::make("t", {}));
  auto env = space.take();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(space.pending(), 0u);
  space.requeue(env->id);
  EXPECT_EQ(space.pending(), 1u);
  EXPECT_EQ(space.in_flight(), 0u);
}

TEST(ExertSpaceTest, TakeOnEmptyIsNullopt) {
  ExertSpace space;
  EXPECT_FALSE(space.take().has_value());
}

TEST(ExertSpaceTest, ConcurrentTakesAreExclusive) {
  ExertSpace space;
  constexpr int kTasks = 500;
  for (int i = 0; i < kTasks; ++i) space.write(Task::make("t", {}));
  std::atomic<int> taken{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&] {
      while (auto env = space.take()) {
        taken.fetch_add(1);
        space.complete(env->id);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(taken.load(), kTasks);
  EXPECT_EQ(space.total_completed(), static_cast<std::uint64_t>(kTasks));
}

// --- Spacer -----------------------------------------------------------------------------

class SpacerTest : public FederationTest {
 protected:
  SpacerTest() {
    spacer = std::make_shared<Spacer>("Spacer", accessor, space, 4);
    spacer->attach_network(net);
    (void)spacer->join(lus, lrm, 60 * kSecond);
  }
  ExertSpace space;
  std::shared_ptr<Spacer> spacer;
};

TEST_F(SpacerTest, PullJobRoutesToSpacer) {
  auto job = Job::make("j", {Flow::kParallel, Access::kPull, true});
  job->add(add_task(10, 20));
  (void)exert(job, accessor);
  EXPECT_EQ(job->status(), ExertStatus::kDone);
  EXPECT_EQ(job->trace().back(), "Spacer");
  EXPECT_DOUBLE_EQ(
      job->children()[0]->context().get_double("result/sum").value(), 30.0);
  EXPECT_EQ(space.total_written(), 1u);
  EXPECT_EQ(space.total_completed(), 1u);
}

TEST_F(SpacerTest, LenientPullJobWithAllFailuresFails) {
  // The Spacer reaches the same verdict as the Jobber.
  auto job = Job::make("j", {Flow::kParallel, Access::kPull, false});
  job->add(Task::make("bad", Signature{type::kTasker, "boom", "Failer"}));
  job->add(Task::make("worse", Signature{type::kTasker, "boom", "Failer"}));
  (void)exert(job, accessor);
  EXPECT_EQ(job->status(), ExertStatus::kFailed);
  EXPECT_EQ(job->error().code(), util::ErrorCode::kAborted);
}

TEST_F(SpacerTest, MakespanBetweenMaxAndSum) {
  auto job = Job::make("j", {Flow::kParallel, Access::kPull, true});
  for (int i = 0; i < 8; ++i) job->add(add_task(i, i));
  (void)exert(job, accessor);
  // 8 tasks x 5ms over 4 workers: makespan ≈ 2 tasks per worker ≈ 10ms+.
  EXPECT_GE(job->latency(), 10 * kMillisecond);
  EXPECT_LT(job->latency(), 8 * 6 * kMillisecond);
}

TEST_F(SpacerTest, SingleWorkerDegradesToSequential) {
  auto solo = std::make_shared<Spacer>("Solo", accessor, space, 1);
  auto job = Job::make("j", {Flow::kParallel, Access::kPull, true});
  for (int i = 0; i < 4; ++i) job->add(add_task(i, i));
  (void)solo->service(job, nullptr);
  EXPECT_GE(job->latency(), 4 * 5 * kMillisecond);
}

TEST_F(SpacerTest, LoneTaskThroughSpaceWorks) {
  auto task = add_task(7, 8);
  (void)spacer->service(task, nullptr);
  EXPECT_EQ(task->status(), ExertStatus::kDone);
  EXPECT_DOUBLE_EQ(task->context().get_double("result/sum").value(), 15.0);
}

TEST_F(SpacerTest, PullWithoutSpacerFails) {
  spacer->leave();
  auto job = Job::make("j", {Flow::kParallel, Access::kPull, true});
  job->add(add_task(1, 1));
  (void)exert(job, accessor);
  EXPECT_EQ(job->status(), ExertStatus::kFailed);
  EXPECT_EQ(job->error().code(), util::ErrorCode::kNotFound);
}

// --- parameterized: pull makespan model scales with worker count -----------------------

class WorkerScalingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkerScalingTest, MakespanMatchesGreedyModel) {
  const std::size_t workers = GetParam();
  util::Scheduler sched;
  simnet::Network net(sched);
  RemoteInvoker invoker(net);
  auto lus = std::make_shared<LookupService>("lus", sched);
  registry::LeaseRenewalManager lrm(sched);
  ServiceAccessor accessor;
  accessor.add_lookup(lus);
  accessor.set_invoker(&invoker);

  auto tasker = std::make_shared<Tasker>("T");
  tasker->add_operation(
      "noop", [](ServiceContext&) { return util::Status::ok(); },
      10 * kMillisecond);
  tasker->attach_network(net);
  (void)tasker->join(lus, lrm, 60 * kSecond);

  ExertSpace space;
  Spacer spacer("S", accessor, space, workers);
  auto job = Job::make("j", {Flow::kParallel, Access::kPull, true});
  constexpr std::size_t kTasks = 16;
  for (std::size_t i = 0; i < kTasks; ++i) {
    job->add(Task::make("t", Signature{type::kTasker, "noop", ""}));
  }
  (void)spacer.service(job, nullptr);
  EXPECT_EQ(job->status(), ExertStatus::kDone);

  // Each task pays its service time, its round trip on the fabric and two
  // space operations.
  const auto per_task =
      10 * kMillisecond + 2 * net.latency() + 2 * Spacer::kSpaceOpCost;
  const auto expected =
      static_cast<util::SimDuration>((kTasks + workers - 1) / workers) *
      per_task;
  EXPECT_EQ(job->latency(), expected);
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerScalingTest,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace sensorcer::sorcer

// --- service substitution (§V.A) ----------------------------------------------------

namespace sensorcer::sorcer {
namespace {

/// The two dispatch entry points, which run the same state machine.
enum class Entry { kExert, kExertAll };

void PrintTo(Entry entry, std::ostream* os) {
  *os << (entry == Entry::kExert ? "exert" : "exert_all");
}

/// Every case runs once through exert() and once through a one-element
/// exert_all(); both must give the same status, error code, latency and
/// substitution count.
class SubstitutionTest : public ::testing::TestWithParam<Entry> {
 protected:
  SubstitutionTest() {
    lus = std::make_shared<registry::LookupService>("lus", sched);
    accessor.add_lookup(lus);
    accessor.set_invoker(&invoker);
    // Two equivalent providers; "Alpha" sorts first so it is tried first.
    flaky = make_peer("Alpha", /*available=*/false);
    steady = make_peer("Bravo", /*available=*/true);
  }

  std::shared_ptr<Tasker> make_peer(const std::string& name, bool available) {
    auto peer = std::make_shared<Tasker>(name);
    peer->add_operation(
        "measure",
        [available, name](ServiceContext& ctx) -> util::Status {
          if (!available) {
            return {util::ErrorCode::kUnavailable, name + " is offline"};
          }
          ctx.put("served/by", name);
          return util::Status::ok();
        },
        util::kMillisecond);
    peer->attach_network(net);
    (void)peer->join(lus, lrm, 3600 * util::kSecond);
    return peer;
  }

  /// Submit `exertion` through the entry point under test; returns how many
  /// substitutions the dispatch made.
  std::uint64_t submit(const ExertionPtr& exertion) {
    obs::Counter& substitutions =
        obs::metrics().counter("sorcer.substitutions");
    const std::uint64_t before = substitutions.value();
    if (GetParam() == Entry::kExert) {
      (void)exert(exertion, accessor);
    } else {
      exert_all({exertion}, accessor);
    }
    return substitutions.value() - before;
  }

  /// One attempt at a "measure" provider: its service time plus the round
  /// trip on the fabric.
  util::SimDuration attempt() const {
    return util::kMillisecond + 2 * net.latency();
  }

  util::Scheduler sched;
  simnet::Network net{sched};
  RemoteInvoker invoker{net};
  registry::LeaseRenewalManager lrm{sched};
  std::shared_ptr<registry::LookupService> lus;
  ServiceAccessor accessor;
  std::shared_ptr<Tasker> flaky;
  std::shared_ptr<Tasker> steady;
};

TEST_P(SubstitutionTest, UnavailableProviderIsSubstituted) {
  auto task = Task::make("t", Signature{type::kTasker, "measure", ""});
  EXPECT_EQ(submit(task), 1u);
  EXPECT_EQ(task->status(), ExertStatus::kDone);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kOk);
  EXPECT_EQ(task->latency(), 2 * attempt());
  EXPECT_EQ(task->context().get_string("served/by").value_or(""), "Bravo");
  // Both attempts are audited in the trace.
  EXPECT_EQ(task->trace(), (std::vector<std::string>{"Alpha", "Bravo"}));
  EXPECT_EQ(flaky->invocation_count(), 1u);
  EXPECT_EQ(steady->invocation_count(), 1u);
}

TEST_P(SubstitutionTest, PinnedProviderIsNotSubstituted) {
  auto task = Task::make("t", Signature{type::kTasker, "measure", "Alpha"});
  EXPECT_EQ(submit(task), 0u);
  EXPECT_EQ(task->status(), ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(task->latency(), attempt());
  EXPECT_EQ(steady->invocation_count(), 0u);
}

TEST_P(SubstitutionTest, NonUnavailabilityErrorsAreNotRetried) {
  auto broken = std::make_shared<Tasker>("AAA-Broken");
  broken->add_operation("measure", [](ServiceContext&) -> util::Status {
    return {util::ErrorCode::kInternal, "bug"};
  });
  broken->attach_network(net);
  (void)broken->join(lus, lrm, 3600 * util::kSecond);
  auto task = Task::make("t", Signature{type::kTasker, "measure", ""});
  EXPECT_EQ(submit(task), 0u);  // no substitution attempted
  EXPECT_EQ(task->status(), ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kInternal);
  EXPECT_EQ(task->latency(), attempt());
  EXPECT_EQ(steady->invocation_count(), 0u);
}

TEST_P(SubstitutionTest, AllEquivalentsDownFailsWithLastError) {
  steady->leave();
  auto task = Task::make("t", Signature{type::kTasker, "measure", ""});
  // Alpha answered UNAVAILABLE and there was nobody left to try: the
  // substitute's resolution fails.
  EXPECT_EQ(submit(task), 1u);
  EXPECT_EQ(task->status(), ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kNotFound);
  EXPECT_EQ(task->latency(), attempt());
}

TEST_P(SubstitutionTest, SubstitutionWorksInsideJobs) {
  auto jobber = std::make_shared<Jobber>("Jobber", accessor);
  jobber->attach_network(net);
  (void)jobber->join(lus, lrm, 3600 * util::kSecond);
  auto job = Job::make("j", {Flow::kParallel, Access::kPush, true});
  auto t1 = Task::make("t1", Signature{type::kTasker, "measure", ""});
  job->add(t1);
  EXPECT_EQ(submit(job), 1u);
  EXPECT_EQ(job->status(), ExertStatus::kDone);
  EXPECT_EQ(job->error().code(), util::ErrorCode::kOk);
  // The job's own round trip, its substituted child and one batch-dispatch
  // overhead.
  EXPECT_EQ(job->latency(), 2 * net.latency() + 2 * attempt() +
                                Jobber::kDispatchOverhead);
  EXPECT_EQ(t1->context().get_string("served/by").value_or(""), "Bravo");
}

TEST_P(SubstitutionTest, TaskAddressedToJobberTypeExecutesOnJobber) {
  auto jobber = std::make_shared<Jobber>("Jobber", accessor);
  jobber->attach_network(net);
  (void)jobber->join(lus, lrm, 3600 * util::kSecond);
  // No operations are installed on the jobber, so this must terminate with
  // NOT_FOUND rather than looping through the federation.
  auto task = Task::make("t", Signature{type::kJobber, "bogus", ""});
  EXPECT_EQ(submit(task), 0u);
  EXPECT_EQ(task->status(), ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kNotFound);
  EXPECT_EQ(task->latency(), 2 * net.latency());
}

INSTANTIATE_TEST_SUITE_P(Entries, SubstitutionTest,
                         ::testing::Values(Entry::kExert, Entry::kExertAll));

}  // namespace
}  // namespace sensorcer::sorcer
