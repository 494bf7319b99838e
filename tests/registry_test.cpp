// Unit tests for the Jini substrate: entries, templates, the lookup service
// with leases and events, discovery, lease renewal, the event mailbox and
// the 2PC transaction manager.

#include <gtest/gtest.h>

#include "registry/discovery.h"
#include "registry/event_mailbox.h"
#include "registry/lease_renewal.h"
#include "registry/lookup.h"
#include "registry/transaction.h"

namespace sensorcer::registry {
namespace {

using util::kMillisecond;
using util::kSecond;

class DummyProxy : public ServiceProxy {};

ServiceItem make_item(const std::string& name,
                      std::vector<std::string> types = {"Servicer"}) {
  ServiceItem item;
  item.id = util::new_uuid();
  item.proxy = std::make_shared<DummyProxy>();
  item.types = std::move(types);
  item.attributes.set(attr::kName, name);
  return item;
}

// --- Entry ------------------------------------------------------------------------

TEST(Entry, EmptyTemplateMatchesEverything) {
  Entry tmpl;
  Entry item{{"name", std::string("x")}, {"floor", std::int64_t{3}}};
  EXPECT_TRUE(tmpl.matches(item));
  EXPECT_TRUE(tmpl.matches(Entry{}));
}

TEST(Entry, MatchRequiresEqualValues) {
  Entry tmpl{{"name", std::string("Neem-Sensor")}};
  Entry match{{"name", std::string("Neem-Sensor")}, {"floor", std::int64_t{3}}};
  Entry wrong{{"name", std::string("Jade-Sensor")}};
  Entry missing{{"floor", std::int64_t{3}}};
  EXPECT_TRUE(tmpl.matches(match));
  EXPECT_FALSE(tmpl.matches(wrong));
  EXPECT_FALSE(tmpl.matches(missing));
}

TEST(Entry, TypedValuesDoNotCrossMatch) {
  Entry tmpl{{"v", 3.0}};
  Entry as_int{{"v", std::int64_t{3}}};
  EXPECT_FALSE(tmpl.matches(as_int));
}

TEST(Entry, GetStringFallsBack) {
  Entry e{{"name", std::string("x")}, {"n", 1.5}};
  EXPECT_EQ(e.get_string("name"), "x");
  EXPECT_EQ(e.get_string("n", "fb"), "fb");
  EXPECT_EQ(e.get_string("missing", "fb"), "fb");
}

TEST(Entry, ValueToString) {
  EXPECT_EQ(entry_value_to_string(std::string("s")), "s");
  EXPECT_EQ(entry_value_to_string(2.5), "2.5");
  EXPECT_EQ(entry_value_to_string(std::int64_t{42}), "42");
  EXPECT_EQ(entry_value_to_string(true), "true");
}

// --- ServiceTemplate ---------------------------------------------------------------

TEST(ServiceTemplate, MatchById) {
  ServiceItem item = make_item("x");
  EXPECT_TRUE(ServiceTemplate::by_id(item.id).matches(item));
  EXPECT_FALSE(ServiceTemplate::by_id(util::new_uuid()).matches(item));
}

TEST(ServiceTemplate, MatchRequiresAllTypes) {
  ServiceItem item = make_item("x", {"Servicer", "SensorDataAccessor"});
  ServiceTemplate t;
  t.types = {"Servicer", "SensorDataAccessor"};
  EXPECT_TRUE(t.matches(item));
  t.types.push_back("Cybernode");
  EXPECT_FALSE(t.matches(item));
}

TEST(ServiceTemplate, ByNameCombinesTypeAndAttribute) {
  ServiceItem item = make_item("Neem-Sensor", {"SensorDataAccessor"});
  EXPECT_TRUE(ServiceTemplate::by_name("SensorDataAccessor", "Neem-Sensor")
                  .matches(item));
  EXPECT_FALSE(ServiceTemplate::by_name("SensorDataAccessor", "Jade-Sensor")
                   .matches(item));
}

// --- LookupService -----------------------------------------------------------------

class LookupTest : public ::testing::Test {
 protected:
  util::Scheduler sched;
  LookupService lus{"test-lus", sched};
};

TEST_F(LookupTest, RegisterThenLookup) {
  auto reg = lus.register_service(make_item("Neem-Sensor"), 10 * kSecond);
  EXPECT_FALSE(reg.service_id.is_nil());
  EXPECT_EQ(lus.service_count(), 1u);

  auto found = lus.lookup_one(ServiceTemplate::by_id(reg.service_id));
  ASSERT_TRUE(found.is_ok());
  EXPECT_EQ(found.value().attributes.get_string(attr::kName), "Neem-Sensor");
}

TEST_F(LookupTest, LookupMissReturnsNotFound) {
  EXPECT_EQ(lus.lookup_one(ServiceTemplate::by_type("Nope")).status().code(),
            util::ErrorCode::kNotFound);
}

TEST_F(LookupTest, LookupRespectsMaxMatches) {
  for (int i = 0; i < 10; ++i) {
    lus.register_service(make_item("s" + std::to_string(i)), 10 * kSecond);
  }
  EXPECT_EQ(lus.lookup(ServiceTemplate{}, 3).size(), 3u);
  EXPECT_EQ(lus.lookup(ServiceTemplate{}).size(), 10u);
}

TEST_F(LookupTest, LookupResultsSortedByName) {
  lus.register_service(make_item("zeta"), 10 * kSecond);
  lus.register_service(make_item("alpha"), 10 * kSecond);
  auto all = lus.all_services();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].attributes.get_string(attr::kName), "alpha");
}

TEST_F(LookupTest, LeaseExpiryDisposesService) {
  auto reg = lus.register_service(make_item("x"), 2 * kSecond);
  sched.run_for(1 * kSecond);
  EXPECT_TRUE(lus.contains(reg.service_id));
  sched.run_for(2 * kSecond);
  EXPECT_FALSE(lus.contains(reg.service_id));
  EXPECT_EQ(lus.expired_count(), 1u);
}

TEST_F(LookupTest, RenewExtendsLease) {
  auto reg = lus.register_service(make_item("x"), 2 * kSecond);
  sched.run_for(1500 * kMillisecond);
  ASSERT_TRUE(lus.renew_lease(reg.lease.id, 2 * kSecond).is_ok());
  sched.run_for(1500 * kMillisecond);
  EXPECT_TRUE(lus.contains(reg.service_id));  // would have expired without renew
  sched.run_for(1 * kSecond);
  EXPECT_FALSE(lus.contains(reg.service_id));
}

TEST_F(LookupTest, RenewUnknownLeaseFails) {
  EXPECT_EQ(lus.renew_lease(util::new_uuid(), kSecond).code(),
            util::ErrorCode::kNotFound);
}

TEST_F(LookupTest, CancelDisposesImmediately) {
  auto reg = lus.register_service(make_item("x"), 10 * kSecond);
  ASSERT_TRUE(lus.cancel_lease(reg.lease.id).is_ok());
  EXPECT_FALSE(lus.contains(reg.service_id));
  EXPECT_EQ(lus.cancel_lease(reg.lease.id).code(),
            util::ErrorCode::kNotFound);
  EXPECT_EQ(lus.expired_count(), 0u);  // cancellation is not expiry
}

TEST_F(LookupTest, ReregistrationReplacesItemAndLease) {
  ServiceItem item = make_item("x");
  auto reg1 = lus.register_service(item, 10 * kSecond);
  item.attributes.set("generation", std::int64_t{2});
  auto reg2 = lus.register_service(item, 10 * kSecond);
  EXPECT_EQ(reg1.service_id, reg2.service_id);
  EXPECT_EQ(lus.service_count(), 1u);
  // The first lease is gone.
  EXPECT_EQ(lus.renew_lease(reg1.lease.id, kSecond).code(),
            util::ErrorCode::kNotFound);
  EXPECT_TRUE(lus.renew_lease(reg2.lease.id, kSecond).is_ok());
}

TEST_F(LookupTest, ModifyAttributesVisibleToLookup) {
  auto reg = lus.register_service(make_item("x"), 10 * kSecond);
  Entry attrs;
  attrs.set(attr::kName, std::string("x"));
  attrs.set(attr::kLocation, std::string("CP TTU/310"));
  ASSERT_TRUE(lus.modify_attributes(reg.service_id, attrs).is_ok());
  auto found = lus.lookup_one(ServiceTemplate::by_id(reg.service_id));
  EXPECT_EQ(found.value().attributes.get_string(attr::kLocation),
            "CP TTU/310");
}

TEST_F(LookupTest, NotifyFiresOnJoin) {
  std::vector<ServiceEvent> events;
  lus.notify(ServiceTemplate::by_type("SensorDataAccessor"),
             static_cast<unsigned>(Transition::kNoMatchToMatch),
             [&](const ServiceEvent& e) { events.push_back(e); },
             10 * kSecond);
  lus.register_service(make_item("s", {"SensorDataAccessor"}), 10 * kSecond);
  lus.register_service(make_item("other", {"Cybernode"}), 10 * kSecond);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].transition, Transition::kNoMatchToMatch);
  EXPECT_EQ(events[0].item.attributes.get_string(attr::kName), "s");
  EXPECT_EQ(events[0].sequence, 1u);
}

TEST_F(LookupTest, NotifyFiresOnLeaveAndExpiry) {
  std::vector<Transition> transitions;
  lus.notify(ServiceTemplate{}, kAllTransitions,
             [&](const ServiceEvent& e) { transitions.push_back(e.transition); },
             60 * kSecond);
  auto reg1 = lus.register_service(make_item("a"), 2 * kSecond);
  auto reg2 = lus.register_service(make_item("b"), 30 * kSecond);
  ASSERT_TRUE(lus.cancel_lease(reg2.lease.id).is_ok());
  sched.run_for(3 * kSecond);  // reg1 expires
  EXPECT_EQ(transitions,
            (std::vector<Transition>{
                Transition::kNoMatchToMatch, Transition::kNoMatchToMatch,
                Transition::kMatchToNoMatch, Transition::kMatchToNoMatch}));
  (void)reg1;
}

TEST_F(LookupTest, NotifyMaskFilters) {
  int fired = 0;
  lus.notify(ServiceTemplate{},
             static_cast<unsigned>(Transition::kMatchToNoMatch),
             [&](const ServiceEvent&) { ++fired; }, 60 * kSecond);
  auto reg = lus.register_service(make_item("a"), 10 * kSecond);
  EXPECT_EQ(fired, 0);
  ASSERT_TRUE(lus.cancel_lease(reg.lease.id).is_ok());
  EXPECT_EQ(fired, 1);
}

TEST_F(LookupTest, CancelNotifyStopsEvents) {
  int fired = 0;
  auto reg = lus.notify(ServiceTemplate{}, kAllTransitions,
                        [&](const ServiceEvent&) { ++fired; }, 60 * kSecond);
  ASSERT_TRUE(lus.cancel_notify(reg.id).is_ok());
  lus.register_service(make_item("a"), 10 * kSecond);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(lus.cancel_notify(reg.id).code(), util::ErrorCode::kNotFound);
}

TEST_F(LookupTest, EventRegistrationLeaseExpires) {
  int fired = 0;
  lus.notify(ServiceTemplate{}, kAllTransitions,
             [&](const ServiceEvent&) { ++fired; }, 1 * kSecond);
  sched.run_for(2 * kSecond);
  lus.register_service(make_item("a"), 10 * kSecond);
  EXPECT_EQ(fired, 0);
}

TEST_F(LookupTest, AttributeChangeFiresMatchToMatch) {
  std::vector<Transition> transitions;
  lus.notify(ServiceTemplate{}, kAllTransitions,
             [&](const ServiceEvent& e) { transitions.push_back(e.transition); },
             60 * kSecond);
  auto reg = lus.register_service(make_item("a"), 10 * kSecond);
  Entry attrs;
  attrs.set(attr::kName, std::string("a"));
  ASSERT_TRUE(lus.modify_attributes(reg.service_id, attrs).is_ok());
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[1], Transition::kMatchToMatch);
}

// --- LeaseRenewalManager ---------------------------------------------------------------

class RenewalTest : public ::testing::Test {
 protected:
  util::Scheduler sched;
  std::shared_ptr<LookupService> lus =
      std::make_shared<LookupService>("lus", sched);
  LeaseRenewalManager lrm{sched};
};

TEST_F(RenewalTest, ManagedLeaseSurvivesIndefinitely) {
  auto reg = lus->register_service(make_item("x"), 2 * kSecond);
  lrm.manage(reg.lease, lus, 2 * kSecond);
  sched.run_for(60 * kSecond);
  EXPECT_TRUE(lus->contains(reg.service_id));
  EXPECT_EQ(lrm.failed_renewals(), 0u);
}

TEST_F(RenewalTest, ReleasedLeaseExpires) {
  auto reg = lus->register_service(make_item("x"), 2 * kSecond);
  lrm.manage(reg.lease, lus, 2 * kSecond);
  sched.run_for(10 * kSecond);
  lrm.release(reg.lease.id);
  sched.run_for(10 * kSecond);
  EXPECT_FALSE(lus->contains(reg.service_id));
  EXPECT_EQ(lus->expired_count(), 1u);
}

TEST_F(RenewalTest, CancelRemovesImmediately) {
  auto reg = lus->register_service(make_item("x"), 10 * kSecond);
  lrm.manage(reg.lease, lus, 10 * kSecond);
  lrm.cancel(reg.lease.id);
  EXPECT_FALSE(lus->contains(reg.service_id));
  EXPECT_EQ(lrm.managed_count(), 0u);
}

TEST_F(RenewalTest, DeadLusCountsAsFailure) {
  auto reg = lus->register_service(make_item("x"), 2 * kSecond);
  lrm.manage(reg.lease, lus, 2 * kSecond);
  lus.reset();  // the registry vanishes
  sched.run_for(10 * kSecond);
  EXPECT_EQ(lrm.failed_renewals(), 1u);
  EXPECT_EQ(lrm.managed_count(), 0u);
}

// --- DiscoveryManager --------------------------------------------------------------------

TEST(Discovery, ClientFindsAdvertisedLus) {
  util::Scheduler sched;
  simnet::Network net(sched);
  auto lus = std::make_shared<LookupService>("lus-A", sched, &net);
  DiscoveryManager server(net, sched);
  server.advertise(lus, 5 * kSecond);

  DiscoveryManager client(net, sched);
  std::vector<std::string> found;
  client.start_discovery(
      [&](const std::shared_ptr<LookupService>& l) { found.push_back(l->name()); });
  sched.run_for(50 * kMillisecond);  // request + response round trip
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], "lus-A");
}

TEST(Discovery, AnnouncementsReachLateListeners) {
  util::Scheduler sched;
  simnet::Network net(sched);
  auto lus = std::make_shared<LookupService>("lus-B", sched, &net);
  DiscoveryManager server(net, sched);
  server.advertise(lus, 1 * kSecond);

  DiscoveryManager client(net, sched);
  sched.run_for(1500 * kMillisecond);  // one announcement cycle passed
  int found = 0;
  client.start_discovery([&](const auto&) { ++found; });
  EXPECT_EQ(found, 1);  // already known from the announcement
}

TEST(Discovery, EachLusReportedOnce) {
  util::Scheduler sched;
  simnet::Network net(sched);
  auto lus = std::make_shared<LookupService>("lus-C", sched, &net);
  DiscoveryManager server(net, sched);
  server.advertise(lus, 1 * kSecond);
  DiscoveryManager client(net, sched);
  int found = 0;
  client.start_discovery([&](const auto&) { ++found; });
  sched.run_for(10 * kSecond);  // many announcements later
  EXPECT_EQ(found, 1);
  EXPECT_EQ(client.discovered().size(), 1u);
}

TEST(Discovery, PartitionedClientDiscoversNothing) {
  util::Scheduler sched;
  simnet::Network net(sched);
  auto lus = std::make_shared<LookupService>("lus-D", sched, &net);
  DiscoveryManager server(net, sched);
  server.advertise(lus, 1 * kSecond);
  DiscoveryManager client(net, sched);
  net.partition(server.client_address(), client.client_address());
  int found = 0;
  client.start_discovery([&](const auto&) { ++found; });
  sched.run_for(5 * kSecond);
  EXPECT_EQ(found, 0);
  net.heal_all();
  sched.run_for(2 * kSecond);  // next announcement gets through
  EXPECT_EQ(found, 1);
}

// --- EventMailbox ---------------------------------------------------------------------------

TEST(EventMailbox, BuffersAndDrains) {
  util::Scheduler sched;
  LookupService lus("lus", sched);
  EventMailbox mailbox;
  auto box = mailbox.open();
  lus.notify(ServiceTemplate{}, kAllTransitions, box.listener, 60 * kSecond);

  lus.register_service(make_item("a"), 10 * kSecond);
  lus.register_service(make_item("b"), 10 * kSecond);
  EXPECT_EQ(mailbox.pending(box.id), 2u);

  auto events = mailbox.drain(box.id, 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].item.attributes.get_string(attr::kName), "a");
  EXPECT_EQ(mailbox.pending(box.id), 1u);
  EXPECT_EQ(mailbox.drain(box.id).size(), 1u);
  EXPECT_EQ(mailbox.pending(box.id), 0u);
}

TEST(EventMailbox, CapacityDiscardsOldest) {
  util::Scheduler sched;
  LookupService lus("lus", sched);
  EventMailbox mailbox(2);
  // discarded() is a process-wide obs counter; assert on the delta.
  const auto discarded_before = EventMailbox::discarded();
  auto box = mailbox.open();
  lus.notify(ServiceTemplate{}, kAllTransitions, box.listener, 60 * kSecond);
  for (int i = 0; i < 5; ++i) {
    lus.register_service(make_item("s" + std::to_string(i)), 10 * kSecond);
  }
  EXPECT_EQ(mailbox.pending(box.id), 2u);
  EXPECT_EQ(EventMailbox::discarded() - discarded_before, 3u);
  auto events = mailbox.drain(box.id);
  EXPECT_EQ(events[0].item.attributes.get_string(attr::kName), "s3");
}

TEST(EventMailbox, LeaseExpiryCollectsMailbox) {
  util::Scheduler sched;
  LookupService lus("lus", sched);
  EventMailbox mailbox(sched);
  auto box = mailbox.open(2 * kSecond);
  EXPECT_GT(box.lease.expiration, sched.now());
  lus.notify(ServiceTemplate{}, kAllTransitions, box.listener, 60 * kSecond);
  lus.register_service(make_item("a"), 60 * kSecond);
  EXPECT_EQ(mailbox.pending(box.id), 1u);
  EXPECT_EQ(mailbox.mailbox_count(), 1u);

  sched.run_for(3 * kSecond);  // lease lapses, sweep collects it
  EXPECT_EQ(mailbox.mailbox_count(), 0u);
  EXPECT_EQ(mailbox.expired_count(), 1u);
  EXPECT_TRUE(mailbox.drain(box.id).empty());
  // Events for a collected mailbox are dropped silently.
  lus.register_service(make_item("b"), 60 * kSecond);
  EXPECT_EQ(mailbox.pending(box.id), 0u);
}

TEST(EventMailbox, RenewKeepsMailboxAlive) {
  util::Scheduler sched;
  EventMailbox mailbox(sched);
  auto box = mailbox.open(2 * kSecond);
  for (int i = 0; i < 4; ++i) {
    sched.run_for(1 * kSecond);
    EXPECT_TRUE(mailbox.renew(box.id, 2 * kSecond).is_ok());
  }
  EXPECT_EQ(mailbox.mailbox_count(), 1u);
  sched.run_for(3 * kSecond);  // stop renewing: collected
  EXPECT_EQ(mailbox.mailbox_count(), 0u);
  EXPECT_FALSE(mailbox.renew(box.id, 2 * kSecond).is_ok());
}

TEST(EventMailbox, UnleasedMailboxNeverExpires) {
  util::Scheduler sched;
  EventMailbox mailbox(sched);
  auto box = mailbox.open();  // zero lease: non-expiring
  sched.run_for(3600 * kSecond);
  EXPECT_EQ(mailbox.mailbox_count(), 1u);
  EXPECT_EQ(mailbox.expired_count(), 0u);
  mailbox.close(box.id);
  EXPECT_EQ(mailbox.mailbox_count(), 0u);
}

TEST(LookupEvents, EventLeaseExpiresAndCanBeRenewed) {
  util::Scheduler sched;
  LookupService lus("lus", sched);
  int fired = 0;
  auto reg = lus.notify(
      ServiceTemplate{}, kAllTransitions,
      [&](const ServiceEvent&) { ++fired; }, 2 * kSecond);
  EXPECT_EQ(lus.event_registration_count(), 1u);

  // Renew through the unified lease API (what a LeaseRenewalManager does).
  sched.run_for(1 * kSecond);
  EXPECT_TRUE(lus.renew_lease(reg.lease.id, 5 * kSecond).is_ok());
  sched.run_for(3 * kSecond);  // would have lapsed without the renewal
  EXPECT_EQ(lus.event_registration_count(), 1u);
  lus.register_service(make_item("a"), 60 * kSecond);
  EXPECT_EQ(fired, 1);

  sched.run_for(6 * kSecond);  // renewed lease lapses now
  EXPECT_EQ(lus.event_registration_count(), 0u);
  EXPECT_EQ(lus.expired_event_count(), 1u);
  lus.register_service(make_item("b"), 60 * kSecond);
  EXPECT_EQ(fired, 1);  // no longer notified
  EXPECT_FALSE(lus.renew_lease(reg.lease.id, 5 * kSecond).is_ok());
}

TEST(LookupEvents, CancelEventLeaseDropsRegistration) {
  util::Scheduler sched;
  LookupService lus("lus", sched);
  int fired = 0;
  auto reg = lus.notify(
      ServiceTemplate{}, kAllTransitions,
      [&](const ServiceEvent&) { ++fired; }, 60 * kSecond);
  EXPECT_TRUE(lus.cancel_lease(reg.lease.id).is_ok());
  EXPECT_EQ(lus.event_registration_count(), 0u);
  lus.register_service(make_item("a"), 60 * kSecond);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(lus.expired_event_count(), 0u);  // cancelled, not expired
}

TEST(EventMailbox, ClosedMailboxDropsSilently) {
  util::Scheduler sched;
  LookupService lus("lus", sched);
  EventMailbox mailbox;
  auto box = mailbox.open();
  lus.notify(ServiceTemplate{}, kAllTransitions, box.listener, 60 * kSecond);
  mailbox.close(box.id);
  lus.register_service(make_item("a"), 10 * kSecond);
  EXPECT_EQ(mailbox.pending(box.id), 0u);
  EXPECT_TRUE(mailbox.drain(box.id).empty());
}

// --- TransactionManager ------------------------------------------------------------------------

class TxnTest : public ::testing::Test {
 protected:
  util::Scheduler sched;
  TransactionManager tm{sched};

  TxnParticipant participant(const std::string& name, bool vote_yes,
                             std::vector<std::string>& log) {
    return TxnParticipant{
        name,
        [name, vote_yes, &log]() -> util::Status {
          log.push_back("prepare:" + name);
          if (vote_yes) return util::Status::ok();
          return {util::ErrorCode::kFailedPrecondition, "veto"};
        },
        [name, &log] { log.push_back("commit:" + name); },
        [name, &log] { log.push_back("abort:" + name); }};
  }
};

TEST_F(TxnTest, CommitRunsTwoPhases) {
  std::vector<std::string> log;
  auto txn = tm.create(10 * kSecond);
  ASSERT_TRUE(tm.join(txn.id, participant("p1", true, log)).is_ok());
  ASSERT_TRUE(tm.join(txn.id, participant("p2", true, log)).is_ok());
  ASSERT_TRUE(tm.commit(txn.id).is_ok());
  EXPECT_EQ(log, (std::vector<std::string>{"prepare:p1", "prepare:p2",
                                           "commit:p1", "commit:p2"}));
  EXPECT_EQ(tm.state(txn.id), TxnState::kCommitted);
  EXPECT_EQ(tm.committed_count(), 1u);
}

TEST_F(TxnTest, VetoAbortsEveryone) {
  std::vector<std::string> log;
  auto txn = tm.create(10 * kSecond);
  ASSERT_TRUE(tm.join(txn.id, participant("p1", true, log)).is_ok());
  ASSERT_TRUE(tm.join(txn.id, participant("p2", false, log)).is_ok());
  auto result = tm.commit(txn.id);
  EXPECT_EQ(result.code(), util::ErrorCode::kAborted);
  EXPECT_EQ(log, (std::vector<std::string>{"prepare:p1", "prepare:p2",
                                           "abort:p1", "abort:p2"}));
  EXPECT_EQ(tm.state(txn.id), TxnState::kAborted);
}

TEST_F(TxnTest, TimeoutAutoAborts) {
  std::vector<std::string> log;
  auto txn = tm.create(1 * kSecond);
  ASSERT_TRUE(tm.join(txn.id, participant("p1", true, log)).is_ok());
  sched.run_for(2 * kSecond);
  EXPECT_EQ(tm.state(txn.id), TxnState::kAborted);
  EXPECT_EQ(log, (std::vector<std::string>{"abort:p1"}));
  EXPECT_EQ(tm.commit(txn.id).code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(TxnTest, JoinAfterSettleFails) {
  std::vector<std::string> log;
  auto txn = tm.create(10 * kSecond);
  ASSERT_TRUE(tm.commit(txn.id).is_ok());
  EXPECT_EQ(tm.join(txn.id, participant("late", true, log)).code(),
            util::ErrorCode::kFailedPrecondition);
}

TEST_F(TxnTest, ExplicitAbort) {
  std::vector<std::string> log;
  auto txn = tm.create(10 * kSecond);
  ASSERT_TRUE(tm.join(txn.id, participant("p1", true, log)).is_ok());
  ASSERT_TRUE(tm.abort(txn.id).is_ok());
  EXPECT_EQ(log, (std::vector<std::string>{"abort:p1"}));
  // Aborting again is fine; committing is not.
  EXPECT_TRUE(tm.abort(txn.id).is_ok());
  EXPECT_EQ(tm.commit(txn.id).code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(TxnTest, AbortAfterCommitRejected) {
  auto txn = tm.create(10 * kSecond);
  ASSERT_TRUE(tm.commit(txn.id).is_ok());
  EXPECT_EQ(tm.abort(txn.id).code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(TxnTest, UnknownTransaction) {
  EXPECT_EQ(tm.commit(util::new_uuid()).code(), util::ErrorCode::kNotFound);
  EXPECT_EQ(tm.abort(util::new_uuid()).code(), util::ErrorCode::kNotFound);
  std::vector<std::string> log;
  EXPECT_EQ(tm.join(util::new_uuid(), participant("p", true, log)).code(),
            util::ErrorCode::kNotFound);
}

TEST_F(TxnTest, ActiveCountTracksLifecycle) {
  auto t1 = tm.create(10 * kSecond);
  auto t2 = tm.create(10 * kSecond);
  EXPECT_EQ(tm.active_count(), 2u);
  ASSERT_TRUE(tm.commit(t1.id).is_ok());
  ASSERT_TRUE(tm.abort(t2.id).is_ok());
  EXPECT_EQ(tm.active_count(), 0u);
  EXPECT_EQ(tm.aborted_count(), 1u);
}

// --- parameterized: churn never leaves stale registrations ------------------------------

class ChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnTest, ExpiredServicesAreAlwaysDisposed) {
  util::Scheduler sched;
  LookupService lus("lus", sched);
  util::Rng rng(GetParam());
  LeaseRenewalManager lrm(sched);

  // Random joins with random lease durations; half are kept alive by the
  // renewal manager, half are abandoned (crash model).
  std::vector<ServiceId> kept, abandoned;
  for (int i = 0; i < 200; ++i) {
    const auto lease = static_cast<util::SimDuration>(
        rng.between(500, 5000) * kMillisecond);
    auto reg = lus.register_service(
        make_item("s" + std::to_string(i)), lease);
    // Spread registrations over time.
    sched.run_for(static_cast<util::SimDuration>(rng.between(0, 200)) *
                  kMillisecond);
    if (rng.chance(0.5)) {
      // (re-register so the lease is fresh relative to the advanced clock)
      kept.push_back(reg.service_id);
    } else {
      abandoned.push_back(reg.service_id);
    }
  }
  // After every lease has lapsed, only nothing-at-all may remain: we did not
  // renew anything, so the registry must be empty.
  sched.run_for(10 * kSecond);
  EXPECT_EQ(lus.service_count(), 0u);
  EXPECT_EQ(lus.expired_count(), 200u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace sensorcer::registry

namespace sensorcer::registry {
namespace {

TEST(LookupIndexes, ByTypeBucketsStayConsistentUnderChurn) {
  util::Scheduler sched;
  LookupService lus("lus", sched);
  // Register a mixed population; cancel half; expire the rest.
  std::vector<ServiceRegistration> regs;
  for (int i = 0; i < 50; ++i) {
    regs.push_back(lus.register_service(
        make_item("a" + std::to_string(i), {"TypeA"}), 2 * kSecond));
    regs.push_back(lus.register_service(
        make_item("b" + std::to_string(i), {"TypeB"}), 2 * kSecond));
  }
  EXPECT_EQ(lus.lookup(ServiceTemplate::by_type("TypeA")).size(), 50u);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(lus.cancel_lease(regs[2 * i].lease.id).is_ok());  // TypeA
  }
  EXPECT_EQ(lus.lookup(ServiceTemplate::by_type("TypeA")).size(), 0u);
  EXPECT_EQ(lus.lookup(ServiceTemplate::by_type("TypeB")).size(), 50u);
  sched.run_for(5 * kSecond);  // TypeB leases lapse
  EXPECT_EQ(lus.lookup(ServiceTemplate::by_type("TypeB")).size(), 0u);
  EXPECT_EQ(lus.service_count(), 0u);
}

TEST(LookupIndexes, RenamedServiceFoundUnderNewNameOnly) {
  util::Scheduler sched;
  LookupService lus("lus", sched);
  auto reg = lus.register_service(make_item("old-name"), 10 * kSecond);
  Entry attrs;
  attrs.set(attr::kName, std::string("new-name"));
  ASSERT_TRUE(lus.modify_attributes(reg.service_id, attrs).is_ok());
  EXPECT_FALSE(
      lus.lookup_one(ServiceTemplate::by_name("Servicer", "old-name"))
          .is_ok());
  EXPECT_TRUE(
      lus.lookup_one(ServiceTemplate::by_name("Servicer", "new-name"))
          .is_ok());
}

TEST(LookupIndexes, LookupOneIsDeterministicAcrossInstances) {
  // Same registrations in different insertion orders must yield the same
  // lookup_one winner (sorted by name).
  util::Scheduler sched;
  LookupService forward("f", sched);
  LookupService backward("b", sched);
  std::vector<std::string> names{"delta", "alpha", "echo", "bravo"};
  for (const auto& n : names) {
    forward.register_service(make_item(n, {"T"}), 10 * kSecond);
  }
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    backward.register_service(make_item(*it, {"T"}), 10 * kSecond);
  }
  auto f = forward.lookup_one(ServiceTemplate::by_type("T"));
  auto b = backward.lookup_one(ServiceTemplate::by_type("T"));
  ASSERT_TRUE(f.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(f.value().attributes.get_string(attr::kName), "alpha");
  EXPECT_EQ(b.value().attributes.get_string(attr::kName), "alpha");
}

TEST(LookupIndexes, TemplateWithUnindexedAttributeStillCorrect) {
  util::Scheduler sched;
  LookupService lus("lus", sched);
  ServiceItem item = make_item("s1", {"T"});
  item.attributes.set("floor", std::int64_t{3});
  lus.register_service(item, 10 * kSecond);

  ServiceTemplate tmpl = ServiceTemplate::by_type("T");
  tmpl.attributes.set("floor", std::int64_t{3});
  EXPECT_TRUE(lus.lookup_one(tmpl).is_ok());
  tmpl.attributes.set("floor", std::int64_t{4});
  EXPECT_FALSE(lus.lookup_one(tmpl).is_ok());
}

TEST(Discovery, WithdrawStopsAnnouncements) {
  util::Scheduler sched;
  simnet::Network net(sched);
  auto lus = std::make_shared<LookupService>("lus-W", sched, &net);
  DiscoveryManager server(net, sched);
  server.advertise(lus, 1 * kSecond);
  server.withdraw(lus);

  DiscoveryManager client(net, sched);
  int found = 0;
  client.start_discovery([&](const auto&) { ++found; });
  sched.run_for(5 * kSecond);
  // No periodic announcements; but the withdraw happened before any request
  // arrived, so the server also no longer answers for it... requests are
  // answered from `advertised_`, which withdraw() cleared.
  EXPECT_EQ(found, 0);
}

TEST(Discovery, DeadLusWithoutWithdrawIsPurged) {
  util::Scheduler sched;
  simnet::Network net(sched);
  auto lus = std::make_shared<LookupService>("lus-Z", sched, &net);
  DiscoveryManager server(net, sched);
  server.advertise(lus, 1 * kSecond);

  DiscoveryManager client(net, sched);
  int found = 0;
  client.start_discovery([&](const auto&) { ++found; });
  sched.run_for(2 * kSecond);
  ASSERT_EQ(found, 1);
  ASSERT_EQ(client.discovered().size(), 1u);

  // The LUS dies without withdraw() (crash, not clean shutdown). The server
  // must stop announcing it and clients must not keep a dead entry around.
  lus.reset();
  sched.run_for(5 * kSecond);
  EXPECT_EQ(client.discovered().size(), 0u);
  EXPECT_EQ(found, 1);  // never re-reported, dead or alive

  // A fresh client discovering after the death finds nothing: the server's
  // advertised_ list was purged, so requests go unanswered.
  DiscoveryManager late(net, sched);
  int late_found = 0;
  late.start_discovery([&](const auto&) { ++late_found; });
  sched.run_for(5 * kSecond);
  EXPECT_EQ(late_found, 0);
}

// --- RegistryFederation (PR 8): sharding, batched renewAll, expiry heap ------------

TEST(ConsistentRingTest, AddingShardMovesOnlyAFraction) {
  ConsistentRing before(4);
  ConsistentRing after(5);
  const int kIds = 2000;
  int moved = 0;
  for (int i = 0; i < kIds; ++i) {
    const util::Uuid id = util::new_uuid();
    if (before.shard_for(id) != after.shard_for(id)) ++moved;
  }
  // Consistent hashing re-homes ~1/5 of the keys; anything staying under
  // half the population proves placement is sticky (modulo hashing would
  // move ~4/5). It must move *something*, or the new shard is dead weight.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kIds / 2);
}

TEST(ConsistentRingTest, RemovalOnlyRehomesTheRemovedShardsKeys) {
  ConsistentRing before(5);
  ConsistentRing after(5);
  after.remove_shard(4);
  for (int i = 0; i < 2000; ++i) {
    const util::Uuid id = util::new_uuid();
    const std::uint32_t owner = before.shard_for(id);
    if (owner != 4) {
      EXPECT_EQ(after.shard_for(id), owner);  // survivors never move
    } else {
      EXPECT_NE(after.shard_for(id), 4u);
    }
  }
}

class FederationTest : public ::testing::Test {
 protected:
  util::Scheduler sched;
};

TEST_F(FederationTest, PlacementAndLeasesSurviveShardAddRemove) {
  RegistryFederation fed("fed", sched, nullptr, 100 * kMillisecond, 4);
  std::vector<ServiceRegistration> regs;
  for (int i = 0; i < 100; ++i) {
    regs.push_back(fed.register_service(
        make_item("svc-" + std::to_string(i)), 60 * kSecond));
  }
  ASSERT_EQ(fed.service_count(), 100u);

  auto sizes_sum = [&] {
    std::size_t total = 0;
    for (std::size_t s : fed.shard_sizes()) total += s;
    return total;
  };
  EXPECT_EQ(sizes_sum(), 100u);

  fed.add_shard();
  EXPECT_EQ(fed.shard_count(), 5u);
  EXPECT_EQ(sizes_sum(), 100u);
  for (const auto& reg : regs) {
    EXPECT_TRUE(fed.contains(reg.service_id));
    // Renewal still works after migration: the lease's shard hint was
    // rewritten when its registration moved to a new ring home.
    EXPECT_TRUE(fed.renew_lease(reg.lease.id, 60 * kSecond).is_ok());
  }

  fed.remove_shard();
  EXPECT_EQ(fed.shard_count(), 4u);
  EXPECT_EQ(sizes_sum(), 100u);
  for (const auto& reg : regs) {
    EXPECT_TRUE(fed.contains(reg.service_id));
    ASSERT_TRUE(fed.lookup_one(ServiceTemplate::by_id(reg.service_id)).is_ok());
  }
}

TEST_F(FederationTest, CrossShardLookupMatchesSingleShard) {
  RegistryFederation sharded("fed4", sched, nullptr, 100 * kMillisecond, 4);
  RegistryFederation single("fed1", sched, nullptr, 100 * kMillisecond, 1);

  // Identical population (same ids, names, types) in both registries.
  std::vector<ServiceItem> items;
  for (int i = 0; i < 60; ++i) {
    items.push_back(make_item(
        "svc-" + std::to_string(i),
        i % 3 == 0 ? std::vector<std::string>{"Servicer", "SensorDataAccessor"}
                   : std::vector<std::string>{"Servicer"}));
  }
  for (const auto& item : items) {
    sharded.register_service(item, 60 * kSecond);
    single.register_service(item, 60 * kSecond);
  }

  auto ids_of = [](const std::vector<ServiceItem>& found) {
    std::vector<util::Uuid> ids;
    for (const auto& it : found) ids.push_back(it.id);
    return ids;
  };

  const ServiceTemplate queries[] = {
      ServiceTemplate{},  // match-all: fans out to every shard
      ServiceTemplate::by_type("SensorDataAccessor"),
      ServiceTemplate::by_type("Servicer"),
      ServiceTemplate::by_name("Servicer", "svc-17"),
      ServiceTemplate::by_id(items[31].id),
      ServiceTemplate::by_type("NoSuchType"),
  };
  for (const auto& tmpl : queries) {
    EXPECT_EQ(ids_of(sharded.lookup(tmpl)), ids_of(single.lookup(tmpl)));
  }
  // max_matches truncation picks the same (name-sorted) prefix either way.
  EXPECT_EQ(ids_of(sharded.lookup(ServiceTemplate::by_type("Servicer"), 7)),
            ids_of(single.lookup(ServiceTemplate::by_type("Servicer"), 7)));
}

TEST_F(FederationTest, RenewBatchPartialDenial) {
  RegistryFederation fed("fed", sched, nullptr, 100 * kMillisecond, 1);
  auto a = fed.register_service(make_item("a"), 10 * kSecond);
  auto b = fed.register_service(make_item("b"), 10 * kSecond);

  std::vector<RenewItem> batch{{a.lease.id, 10 * kSecond},
                               {util::new_uuid(), 10 * kSecond},  // unknown
                               {b.lease.id, 10 * kSecond}};
  const RenewOutcome outcome = fed.renew_batch(a.lease.shard, batch);
  EXPECT_EQ(outcome.renewed, 2u);
  ASSERT_EQ(outcome.denied.size(), 1u);
  EXPECT_EQ(outcome.denied[0], batch[1].lease_id);
}

TEST_F(FederationTest, WireCodecRoundTripsAndRejectsTruncation) {
  std::vector<RenewItem> items;
  for (int i = 0; i < 9; ++i) {
    // Mixed extensions exercise the delta-zigzag column both ways.
    items.push_back({util::new_uuid(),
                     (i % 2 == 0 ? 30 : 5 + i) * kSecond});
  }
  std::vector<std::uint8_t> wire;
  wirefmt::encode_renew_request(items, wire);

  std::vector<RenewItem> decoded;
  ASSERT_TRUE(
      wirefmt::decode_renew_request(wire.data(), wire.size(), decoded).is_ok());
  ASSERT_EQ(decoded.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(decoded[i].lease_id, items[i].lease_id);
    EXPECT_EQ(decoded[i].extension, items[i].extension);
  }

  // Every strict prefix must be rejected, never mis-decoded or overread.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::vector<RenewItem> scratch;
    EXPECT_FALSE(
        wirefmt::decode_renew_request(wire.data(), cut, scratch).is_ok());
  }

  std::vector<util::Uuid> denied{items[0].lease_id, items[3].lease_id};
  std::vector<std::uint8_t> rsp;
  wirefmt::encode_renew_response(denied, rsp);
  std::vector<util::Uuid> denied_back;
  ASSERT_TRUE(
      wirefmt::decode_renew_response(rsp.data(), rsp.size(), denied_back)
          .is_ok());
  EXPECT_EQ(denied_back, denied);
  for (std::size_t cut = 0; cut < rsp.size(); ++cut) {
    std::vector<util::Uuid> scratch;
    EXPECT_FALSE(
        wirefmt::decode_renew_response(rsp.data(), cut, scratch).is_ok());
  }
}

TEST_F(FederationTest, ExpiryIndexReArmsRenewedLeases) {
  ExpiryIndex idx;
  const util::Uuid lease = util::new_uuid();
  idx.arm(10, lease);

  // At t=10 the lease has been renewed (true expiration now 20): drain must
  // re-arm instead of expiring it.
  int expired = 0;
  idx.drain(
      10, [](const util::Uuid&) { return util::SimTime{20}; },
      [&](const util::Uuid&) { ++expired; });
  EXPECT_EQ(expired, 0);

  // At t=20 the resolver says the lease is truly due: exactly one expiry.
  idx.drain(
      20, [](const util::Uuid&) { return util::SimTime{20}; },
      [&](const util::Uuid&) { ++expired; });
  EXPECT_EQ(expired, 1);

  // Entries for vanished leases resolve as kLeaseGone and drop silently.
  idx.arm(30, util::new_uuid());
  idx.drain(
      40, [](const util::Uuid&) { return kLeaseGone; },
      [&](const util::Uuid&) { ++expired; });
  EXPECT_EQ(expired, 1);
}

// --- Batched lease renewal (PR 8) ---------------------------------------------------

TEST(BatchedRenewal, DeniedLeaseLapsesBatchSurvives) {
  util::Scheduler sched;
  auto lus = std::make_shared<LookupService>("lus", sched);
  LeaseRenewalManager lrm{sched, LeaseBatchConfig{100 * kMillisecond}};

  auto a = lus->register_service(make_item("a"), 2 * kSecond);
  auto b = lus->register_service(make_item("b"), 2 * kSecond);
  auto c = lus->register_service(make_item("c"), 2 * kSecond);
  lrm.manage(a.lease, lus, 2 * kSecond);
  lrm.manage(b.lease, lus, 2 * kSecond);
  lrm.manage(c.lease, lus, 2 * kSecond);

  // Yank b's lease at the registry while the LRM still tries to renew it:
  // the next renewAll batch gets a partial denial.
  ASSERT_TRUE(lus->cancel_lease(b.lease.id).is_ok());
  sched.run_for(30 * kSecond);

  EXPECT_TRUE(lus->contains(a.service_id));
  EXPECT_FALSE(lus->contains(b.service_id));
  EXPECT_TRUE(lus->contains(c.service_id));
  EXPECT_EQ(lrm.failed_renewals(), 1u);
  EXPECT_EQ(lrm.managed_count(), 2u);
  EXPECT_GT(lrm.batches_sent(), 0u);
}

TEST(BatchedRenewal, StormSendsOneMessagePerShardPerWindow) {
  util::Scheduler sched;
  const std::size_t kShards = 4;
  auto lus = std::make_shared<LookupService>(
      "lus", sched, nullptr, 100 * kMillisecond, kShards);
  LeaseRenewalManager lrm{sched, LeaseBatchConfig{100 * kMillisecond}};

  // 10k leases granted at t=0 with the same duration: every renewal falls
  // due in the same window, so each round must collapse to one renewAll
  // message per shard — not 10k individual messages.
  const std::size_t kLeases = 10000;
  for (std::size_t i = 0; i < kLeases; ++i) {
    auto reg = lus->register_service(
        make_item("s" + std::to_string(i)), 2 * kSecond);
    lrm.manage(reg.lease, lus, 2 * kSecond);
  }
  ASSERT_EQ(lus->service_count(), kLeases);

  // First renewal round fires at the 1s half-life (window-aligned).
  sched.run_for(1050 * kMillisecond);
  EXPECT_EQ(lrm.batches_sent(), kShards);

  // Three more rounds at 2s, 3s, 4s: still exactly one message per shard
  // per window, and nothing lapses.
  sched.run_for(3 * kSecond);
  EXPECT_EQ(lrm.batches_sent(), 4 * kShards);
  EXPECT_EQ(lrm.failed_renewals(), 0u);
  EXPECT_EQ(lus->service_count(), kLeases);
  EXPECT_EQ(lus->expired_count(), 0u);
}

}  // namespace
}  // namespace sensorcer::registry
