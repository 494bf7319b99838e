// Unit tests for the Rio provisioning substrate: QoS matching, cybernodes,
// the provision monitor's placement, load balancing, failure detection and
// re-provisioning.

#include <gtest/gtest.h>

#include <algorithm>

#include "registry/lease_renewal.h"
#include "rio/monitor.h"
#include "simnet/network.h"
#include "sorcer/exert.h"
#include "sorcer/invoke.h"

namespace sensorcer::rio {
namespace {

using util::kSecond;

// --- QoS --------------------------------------------------------------------------

TEST(Qos, SatisfiesChecksComputeAndMemory) {
  QosCapability platform{4.0, 1024.0, "x86_64", {}};
  EXPECT_TRUE(
      satisfies(platform, 4.0, 1024.0, QosRequirement{1.0, 256.0, "", {}}));
  EXPECT_FALSE(
      satisfies(platform, 0.5, 1024.0, QosRequirement{1.0, 256.0, "", {}}));
  EXPECT_FALSE(
      satisfies(platform, 4.0, 128.0, QosRequirement{1.0, 256.0, "", {}}));
}

TEST(Qos, ArchMustMatchWhenSpecified) {
  QosCapability platform{4.0, 1024.0, "arm64", {}};
  QosRequirement req{1.0, 64.0, "x86_64", {}};
  EXPECT_FALSE(satisfies(platform, 4.0, 1024.0, req));
  req.arch = "arm64";
  EXPECT_TRUE(satisfies(platform, 4.0, 1024.0, req));
  req.arch.clear();  // any
  EXPECT_TRUE(satisfies(platform, 4.0, 1024.0, req));
}

TEST(Qos, AllLabelsRequired) {
  QosCapability platform{4.0, 1024.0, "x86_64", {"edge", "gpu"}};
  QosRequirement req{1.0, 64.0, "", {"edge"}};
  EXPECT_TRUE(satisfies(platform, 4.0, 1024.0, req));
  req.labels = {"edge", "gpu"};
  EXPECT_TRUE(satisfies(platform, 4.0, 1024.0, req));
  req.labels = {"edge", "tpu"};
  EXPECT_FALSE(satisfies(platform, 4.0, 1024.0, req));
}

TEST(Qos, ToStringMentionsFields) {
  QosCapability cap{2.0, 512.0, "x86_64", {"edge"}};
  EXPECT_NE(cap.to_string().find("edge"), std::string::npos);
  QosRequirement req{0.5, 64.0, "", {}};
  EXPECT_NE(req.to_string().find("0.50"), std::string::npos);
}

// --- Cybernode ---------------------------------------------------------------------

std::shared_ptr<sorcer::Tasker> make_service(const std::string& name) {
  auto svc = std::make_shared<sorcer::Tasker>(name);
  svc->add_operation("noop", [](sorcer::ServiceContext&) {
    return util::Status::ok();
  });
  return svc;
}

TEST(CybernodeTest, HostsUntilCapacity) {
  Cybernode node("n1", QosCapability{2.0, 1024.0, "x86_64", {}});
  QosRequirement one{1.0, 100.0, "", {}};
  EXPECT_TRUE(node.can_host(one));
  ASSERT_TRUE(node.host(make_service("a"), one).is_ok());
  ASSERT_TRUE(node.host(make_service("b"), one).is_ok());
  EXPECT_DOUBLE_EQ(node.utilization(), 1.0);
  EXPECT_EQ(node.host(make_service("c"), one).code(),
            util::ErrorCode::kCapacity);
  EXPECT_EQ(node.hosted_count(), 2u);
}

TEST(CybernodeTest, MemoryAlsoLimits) {
  Cybernode node("n1", QosCapability{100.0, 256.0, "x86_64", {}});
  ASSERT_TRUE(node.host(make_service("a"), {0.1, 200.0, "", {}}).is_ok());
  EXPECT_EQ(node.host(make_service("b"), {0.1, 100.0, "", {}}).code(),
            util::ErrorCode::kCapacity);
}

TEST(CybernodeTest, EvictFreesCapacity) {
  Cybernode node("n1", QosCapability{1.0, 100.0, "x86_64", {}});
  auto svc = make_service("a");
  ASSERT_TRUE(node.host(svc, {1.0, 50.0, "", {}}).is_ok());
  EXPECT_FALSE(node.can_host({1.0, 50.0, "", {}}));
  ASSERT_TRUE(node.evict(svc->service_id()).is_ok());
  EXPECT_TRUE(node.can_host({1.0, 50.0, "", {}}));
  EXPECT_EQ(node.evict(svc->service_id()).code(), util::ErrorCode::kNotFound);
}

TEST(CybernodeTest, FailCrashesHostedServices) {
  util::Scheduler sched;
  auto lus = std::make_shared<registry::LookupService>("lus", sched);
  registry::LeaseRenewalManager lrm(sched);

  Cybernode node("n1", QosCapability{4.0, 1024.0, "x86_64", {}});
  auto svc = make_service("a");
  ASSERT_TRUE(svc->join(lus, lrm, 2 * kSecond).is_ok());
  ASSERT_TRUE(node.host(svc, {1.0, 64.0, "", {}}).is_ok());

  node.fail();
  EXPECT_FALSE(node.is_alive());
  EXPECT_EQ(node.hosted_count(), 0u);
  // The crashed service lingers in the registry until its lease lapses.
  EXPECT_TRUE(lus->contains(svc->service_id()));
  sched.run_for(3 * kSecond);
  EXPECT_FALSE(lus->contains(svc->service_id()));
}

TEST(CybernodeTest, HostOnDeadNodeFails) {
  Cybernode node("n1", QosCapability{4.0, 1024.0, "x86_64", {}});
  node.fail();
  EXPECT_EQ(node.host(make_service("a"), {1.0, 64.0, "", {}}).code(),
            util::ErrorCode::kUnavailable);
  node.restart();
  EXPECT_TRUE(node.is_alive());
  EXPECT_TRUE(node.host(make_service("a"), {1.0, 64.0, "", {}}).is_ok());
}

// --- ProvisionMonitor ------------------------------------------------------------------

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() {
    lus = std::make_shared<registry::LookupService>("lus", sched);
    accessor.add_lookup(lus);
    accessor.set_invoker(&invoker);
    for (int i = 0; i < 3; ++i) {
      auto node = std::make_shared<Cybernode>(
          "node-" + std::to_string(i), QosCapability{2.0, 1024.0, "x86_64", {}});
      node->attach_network(net);
      (void)node->join(lus, lrm, 3600 * kSecond);
      nodes.push_back(std::move(node));
    }
    MonitorConfig config;
    config.service_lease = 2 * kSecond;
    config.poll_period = 1 * kSecond;
    config.activation_cost = 100 * util::kMillisecond;
    monitor = std::make_shared<ProvisionMonitor>("Monitor", accessor, lrm,
                                                 sched, config);
    monitor->attach_network(net);
  }

  OperationalString opstring(const std::string& name, std::size_t planned,
                             QosRequirement qos = {0.5, 64.0, "", {}}) {
    OperationalString os;
    os.name = name;
    ServiceElement element;
    element.name = name;
    element.planned = planned;
    element.qos = qos;
    element.factory = [](const std::string& instance_name) {
      return make_service(instance_name);
    };
    os.elements.push_back(std::move(element));
    return os;
  }

  bool discoverable(const std::string& name) {
    return accessor
        .find_item(registry::ServiceTemplate::by_name(sorcer::type::kTasker,
                                                      name))
        .is_ok();
  }

  util::Scheduler sched;
  // Declared before everything attached to it: endpoints detach on
  // destruction, so the fabric must outlive them.
  simnet::Network net{sched};
  sorcer::RemoteInvoker invoker{net};
  registry::LeaseRenewalManager lrm{sched};
  std::shared_ptr<registry::LookupService> lus;
  sorcer::ServiceAccessor accessor;
  std::vector<std::shared_ptr<Cybernode>> nodes;
  std::shared_ptr<ProvisionMonitor> monitor;
};

TEST_F(MonitorTest, DeploysAndBecomesDiscoverableAfterActivation) {
  ASSERT_TRUE(monitor->deploy(opstring("svc", 1)).is_ok());
  EXPECT_EQ(monitor->provision_count(), 1u);
  EXPECT_FALSE(discoverable("svc"));  // still activating
  sched.run_for(200 * util::kMillisecond);
  EXPECT_TRUE(discoverable("svc"));
}

TEST_F(MonitorTest, ReplicasGetNumberedNames) {
  ASSERT_TRUE(monitor->deploy(opstring("svc", 3)).is_ok());
  sched.run_for(kSecond);
  EXPECT_TRUE(discoverable("svc-1"));
  EXPECT_TRUE(discoverable("svc-2"));
  EXPECT_TRUE(discoverable("svc-3"));
  EXPECT_EQ(monitor->deployed_instances("svc").size(), 3u);
}

TEST_F(MonitorTest, LoadBalancesAcrossNodes) {
  ASSERT_TRUE(monitor->deploy(opstring("svc", 3, {1.0, 64.0, "", {}})).is_ok());
  // Three 1.0-unit services over three 2.0-unit nodes: one each.
  for (const auto& node : nodes) {
    EXPECT_EQ(node->hosted_count(), 1u) << node->provider_name();
  }
}

TEST_F(MonitorTest, QosFiltersNodes) {
  // Only nodes with the "edge" label qualify; none have it.
  QosRequirement req{0.5, 64.0, "", {"edge"}};
  auto status = monitor->deploy(opstring("svc", 1, req));
  EXPECT_EQ(status.code(), util::ErrorCode::kCapacity);
  EXPECT_EQ(monitor->failed_placements(), 1u);
}

TEST_F(MonitorTest, CapacityExhaustionReportsError) {
  // 3 nodes x 2.0 units = 6 units; ask for 7 services of 1.0.
  auto status = monitor->deploy(opstring("svc", 7, {1.0, 16.0, "", {}}));
  EXPECT_EQ(status.code(), util::ErrorCode::kCapacity);
  EXPECT_EQ(monitor->provision_count(), 6u);
}

TEST_F(MonitorTest, ReprovisionsAfterNodeFailure) {
  ASSERT_TRUE(monitor->deploy(opstring("svc", 1)).is_ok());
  sched.run_for(kSecond);
  ASSERT_TRUE(discoverable("svc"));

  // Find and kill the hosting node.
  Cybernode* host = nullptr;
  for (const auto& node : nodes) {
    if (node->hosted_count() > 0) host = node.get();
  }
  ASSERT_NE(host, nullptr);
  host->fail();

  // Poll detects the loss and replaces the instance elsewhere; the stale
  // registration also ages out via its lease.
  sched.run_for(5 * kSecond);
  EXPECT_EQ(monitor->reprovision_count(), 1u);
  EXPECT_TRUE(discoverable("svc"));
  // The replacement runs on a different, living node.
  std::size_t hosted_elsewhere = 0;
  for (const auto& node : nodes) {
    if (node.get() != host) hosted_elsewhere += node->hosted_count();
  }
  EXPECT_EQ(hosted_elsewhere, 1u);
}

TEST_F(MonitorTest, RetriesWhenNoCapacityThenRecovers) {
  ASSERT_TRUE(monitor->deploy(opstring("svc", 1)).is_ok());
  sched.run_for(kSecond);
  // Kill every node: nothing can host the replacement.
  for (const auto& node : nodes) node->fail();
  sched.run_for(3 * kSecond);
  EXPECT_FALSE(discoverable("svc"));

  // A node returns; the poll loop places the pending instance.
  nodes[0]->restart();
  (void)nodes[0]->join(lus, lrm, 3600 * kSecond);
  sched.run_for(3 * kSecond);
  EXPECT_TRUE(discoverable("svc"));
  EXPECT_GE(monitor->reprovision_count(), 1u);
}

TEST_F(MonitorTest, UndeployRemovesInstances) {
  ASSERT_TRUE(monitor->deploy(opstring("svc", 2)).is_ok());
  sched.run_for(kSecond);
  ASSERT_TRUE(monitor->undeploy("svc").is_ok());
  EXPECT_FALSE(discoverable("svc-1"));
  EXPECT_FALSE(discoverable("svc-2"));
  EXPECT_TRUE(monitor->deployed_instances("svc").empty());
  EXPECT_EQ(monitor->undeploy("svc").code(), util::ErrorCode::kNotFound);
}

TEST_F(MonitorTest, UndeployedOpstringIsNotReprovisioned) {
  ASSERT_TRUE(monitor->deploy(opstring("svc", 1)).is_ok());
  sched.run_for(kSecond);
  ASSERT_TRUE(monitor->undeploy("svc").is_ok());
  for (const auto& node : nodes) node->fail();
  for (const auto& node : nodes) node->restart();
  sched.run_for(5 * kSecond);
  EXPECT_EQ(monitor->reprovision_count(), 0u);
  EXPECT_FALSE(discoverable("svc"));
}

TEST_F(MonitorTest, KnownCybernodesExcludesDead) {
  EXPECT_EQ(monitor->known_cybernodes().size(), 3u);
  nodes[0]->fail();
  EXPECT_EQ(monitor->known_cybernodes().size(), 2u);
}

TEST_F(MonitorTest, ProvisionedServiceIsInvocable) {
  ASSERT_TRUE(monitor->deploy(opstring("svc", 1)).is_ok());
  sched.run_for(kSecond);
  auto task = sorcer::Task::make(
      "t", sorcer::Signature{sorcer::type::kTasker, "noop", "svc"});
  (void)sorcer::exert(task, accessor);
  EXPECT_EQ(task->status(), sorcer::ExertStatus::kDone);
}

// --- DependencyGraph ---------------------------------------------------------------

TEST(DepGraph, AddAndQueryEdges) {
  DependencyGraph g;
  ASSERT_TRUE(g.add("csp", "esp-1").is_ok());
  ASSERT_TRUE(g.add("csp", "esp-2").is_ok());
  ASSERT_TRUE(g.add("esp-1", "hist", DependencyKind::kOptional).is_ok());
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_TRUE(g.has_edge("csp", "esp-1"));
  EXPECT_FALSE(g.has_edge("esp-1", "csp"));
  EXPECT_EQ(g.dependents_of("esp-1"), (std::vector<std::string>{"csp"}));
  ASSERT_EQ(g.dependencies_of("csp").size(), 2u);

  // Idempotent re-add; re-adding with a new kind updates in place.
  ASSERT_TRUE(g.add("csp", "esp-1").is_ok());
  EXPECT_EQ(g.edge_count(), 3u);
  ASSERT_TRUE(g.add("esp-1", "hist", DependencyKind::kRequired).is_ok());
  EXPECT_EQ(g.dependencies_of("esp-1")[0].kind, DependencyKind::kRequired);
  EXPECT_NE(g.render().find("csp"), std::string::npos);
}

TEST(DepGraph, RejectsCycles) {
  DependencyGraph g;
  EXPECT_FALSE(g.add("a", "a").is_ok());
  ASSERT_TRUE(g.add("a", "b").is_ok());
  ASSERT_TRUE(g.add("b", "c").is_ok());
  EXPECT_EQ(g.add("c", "a").code(), util::ErrorCode::kInvalidArgument);
  EXPECT_FALSE(g.has_edge("c", "a"));
}

TEST(DepGraph, RequiredCascadeIsTopologicalAndSkipsOptional) {
  DependencyGraph g;
  ASSERT_TRUE(g.add("mid", "base").is_ok());
  ASSERT_TRUE(g.add("top", "mid").is_ok());
  ASSERT_TRUE(g.add("side", "base", DependencyKind::kOptional).is_ok());
  // Dependencies before dependents, the dead set itself excluded, and the
  // optional dependent left alone.
  EXPECT_EQ(g.required_cascade({"base"}),
            (std::vector<std::string>{"mid", "top"}));
  EXPECT_EQ(g.optional_dependents({"base"}),
            (std::vector<std::string>{"side"}));
}

TEST(DepGraph, TopoOrderReordersNames) {
  DependencyGraph g;
  ASSERT_TRUE(g.add("mid", "base").is_ok());
  ASSERT_TRUE(g.add("top", "mid").is_ok());
  EXPECT_EQ(g.topo_order({"top", "base", "mid"}),
            (std::vector<std::string>{"base", "mid", "top"}));
  // Names the graph has never seen are unconstrained but preserved.
  auto order = g.topo_order({"top", "stranger", "base"});
  ASSERT_EQ(order.size(), 3u);
  EXPECT_LT(std::find(order.begin(), order.end(), "base") - order.begin(),
            std::find(order.begin(), order.end(), "top") - order.begin());
}

TEST(DepGraph, RemoveNodeDropsAllTouchingEdges) {
  DependencyGraph g;
  ASSERT_TRUE(g.add("csp", "esp").is_ok());
  ASSERT_TRUE(g.add("esp", "hist", DependencyKind::kOptional).is_ok());
  EXPECT_EQ(g.remove_node("esp"), 2u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.required_cascade({"esp"}).empty());
}

// --- monitor dependency cascades ---------------------------------------------------

class MonitorCascadeTest : public MonitorTest {
 protected:
  /// Deploy a single-instance opstring whose factory records every
  /// instantiation (initial placements and replacements alike).
  void deploy_recording(const std::string& name,
                        QosRequirement qos = {0.5, 64.0, "", {}}) {
    OperationalString os;
    os.name = name;
    ServiceElement element;
    element.name = name;
    element.planned = 1;
    element.qos = qos;
    element.factory = [this](const std::string& instance_name) {
      created.push_back(instance_name);
      return make_service(instance_name);
    };
    os.elements.push_back(std::move(element));
    ASSERT_TRUE(monitor->deploy(std::move(os)).is_ok());
  }

  Cybernode* host_of(const std::string& instance) {
    for (const auto& node : nodes) {
      for (const auto& svc : node->hosted()) {
        if (svc->provider_name() == instance) return node.get();
      }
    }
    return nullptr;
  }

  std::vector<std::string> created;
};

TEST_F(MonitorCascadeTest, RequiredCascadeRestartsDependentsInTopoOrder) {
  deploy_recording("base");
  deploy_recording("mid");
  deploy_recording("top");
  ASSERT_TRUE(monitor->add_dependency("mid", "base").is_ok());
  ASSERT_TRUE(monitor->add_dependency("top", "mid").is_ok());
  sched.run_for(kSecond);
  ASSERT_TRUE(monitor->converged());

  Cybernode* host = host_of("base");
  ASSERT_NE(host, nullptr);
  created.clear();
  host->fail();
  sched.run_for(2 * kSecond);

  // The dependency is re-placed first, then its dependents restart in
  // topological order with state hand-off.
  EXPECT_EQ(created, (std::vector<std::string>{"base", "mid", "top"}));
  EXPECT_EQ(monitor->cascade_count(), 2u);
  EXPECT_EQ(monitor->reprovision_count(), 3u);
  EXPECT_TRUE(discoverable("base"));
  EXPECT_TRUE(discoverable("mid"));
  EXPECT_TRUE(discoverable("top"));
  sched.run_for(5 * kSecond);  // superseded zombies age out
  EXPECT_TRUE(monitor->converged());
}

TEST_F(MonitorCascadeTest, SharedDeadDependencyIsPlacedSingleFlight) {
  deploy_recording("base");
  deploy_recording("d1");
  deploy_recording("d2");
  ASSERT_TRUE(monitor->add_dependency("d1", "base").is_ok());
  ASSERT_TRUE(monitor->add_dependency("d2", "base").is_ok());
  sched.run_for(kSecond);

  Cybernode* host = host_of("base");
  ASSERT_NE(host, nullptr);
  created.clear();
  host->fail();
  sched.run_for(2 * kSecond);

  // One placement for the shared dependency; both dependents' checks hit
  // the single-flight cache.
  EXPECT_EQ(std::count(created.begin(), created.end(), "base"), 1);
  EXPECT_GE(monitor->placement_dedup_count(), 2u);
  EXPECT_EQ(monitor->cascade_count(), 2u);
}

TEST_F(MonitorCascadeTest, NoEligibleNodeDegradesDependentAndRetries) {
  // "pinned" can only run on an edge-labeled node; exactly one exists.
  auto edge_node = std::make_shared<Cybernode>(
      "edge-node", QosCapability{2.0, 1024.0, "x86_64", {"edge"}});
  (void)edge_node->join(lus, lrm, 3600 * kSecond);

  deploy_recording("pinned", QosRequirement{0.5, 64.0, "", {"edge"}});
  deploy_recording("consumer");
  ASSERT_TRUE(monitor->add_dependency("consumer", "pinned").is_ok());
  sched.run_for(kSecond);
  ASSERT_TRUE(discoverable("pinned"));

  edge_node->fail();
  sched.run_for(3 * kSecond);

  // No node satisfies the QoS: the dependent degrades instead of the
  // monitor crashing or dropping the record, and the placement keeps
  // retrying.
  EXPECT_TRUE(monitor->is_degraded("consumer"));
  EXPECT_TRUE(discoverable("consumer"));
  EXPECT_FALSE(monitor->converged());
  EXPECT_GE(monitor->failed_placements(), 1u);

  // Capacity returns: the retry places the instance, the cascade restarts
  // the dependent, and the degraded set self-heals.
  edge_node->restart();
  (void)edge_node->join(lus, lrm, 3600 * kSecond);
  sched.run_for(3 * kSecond);
  EXPECT_TRUE(discoverable("pinned"));
  EXPECT_FALSE(monitor->is_degraded("consumer"));
  sched.run_for(5 * kSecond);
  EXPECT_TRUE(monitor->converged());
}

TEST_F(MonitorCascadeTest, UndeployDropsDependencyEdges) {
  deploy_recording("base");
  deploy_recording("dep");
  ASSERT_TRUE(monitor->add_dependency("dep", "base").is_ok());
  EXPECT_EQ(monitor->dependencies().edge_count(), 1u);
  sched.run_for(kSecond);

  ASSERT_TRUE(monitor->undeploy("dep").is_ok());
  EXPECT_EQ(monitor->dependencies().edge_count(), 0u);

  // With the edge gone, losing "base" re-provisions it without cascading
  // into the undeployed instance.
  Cybernode* host = host_of("base");
  ASSERT_NE(host, nullptr);
  host->fail();
  sched.run_for(2 * kSecond);
  EXPECT_EQ(monitor->cascade_count(), 0u);
  EXPECT_TRUE(discoverable("base"));
}

TEST_F(MonitorCascadeTest, UndeployRacingInFlightReprovisionAborts) {
  // The replacement factory undeploys its own opstring — the same shape as
  // an operator undeploy landing while a wire ping pumps the scheduler
  // mid-sweep. The freshly placed instance must be torn straight back down.
  OperationalString os;
  os.name = "victim";
  ServiceElement element;
  element.name = "victim";
  element.planned = 1;
  element.qos = QosRequirement{0.5, 64.0, "", {}};
  bool first = true;
  element.factory = [this, &first](const std::string& instance_name) {
    if (!first) (void)monitor->undeploy("victim");
    first = false;
    return make_service(instance_name);
  };
  os.elements.push_back(std::move(element));
  ASSERT_TRUE(monitor->deploy(std::move(os)).is_ok());
  sched.run_for(kSecond);
  ASSERT_TRUE(discoverable("victim"));

  Cybernode* host = host_of("victim");
  ASSERT_NE(host, nullptr);
  host->fail();
  sched.run_for(5 * kSecond);

  // Not resurrected, not leaked: no deployment record, no hosted instance,
  // no registration (the aborted replacement must not activate either).
  EXPECT_TRUE(monitor->deployed_instances("victim").empty());
  EXPECT_FALSE(discoverable("victim"));
  for (const auto& node : nodes) {
    for (const auto& svc : node->hosted()) {
      EXPECT_NE(svc->provider_name(), "victim");
    }
  }
  EXPECT_TRUE(monitor->converged());
}

TEST_F(MonitorCascadeTest, ReentrantPollIsBarred) {
  // A replacement factory that pumps poll_once re-entrantly (wire pings do
  // exactly this when the poll timer fires during a ping's virtual wait)
  // must not double-place the instance.
  OperationalString os;
  os.name = "svc";
  ServiceElement element;
  element.name = "svc";
  element.planned = 1;
  element.qos = QosRequirement{0.5, 64.0, "", {}};
  element.factory = [this](const std::string& instance_name) {
    monitor->poll_once();  // nested sweep: must be a no-op
    return make_service(instance_name);
  };
  os.elements.push_back(std::move(element));
  ASSERT_TRUE(monitor->deploy(std::move(os)).is_ok());
  sched.run_for(kSecond);

  Cybernode* host = host_of("svc");
  ASSERT_NE(host, nullptr);
  host->fail();
  sched.run_for(3 * kSecond);

  EXPECT_EQ(monitor->deployed_instances("svc").size(), 1u);
  EXPECT_EQ(monitor->reprovision_count(), 1u);
  EXPECT_TRUE(discoverable("svc"));
}

// --- parameterized: placement never exceeds node capacity -------------------------------

class PlacementPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlacementPropertyTest, UtilizationNeverExceedsOne) {
  const std::size_t services = GetParam();
  util::Scheduler sched;
  auto lus = std::make_shared<registry::LookupService>("lus", sched);
  registry::LeaseRenewalManager lrm(sched);
  sorcer::ServiceAccessor accessor;
  accessor.add_lookup(lus);

  std::vector<std::shared_ptr<Cybernode>> nodes;
  for (int i = 0; i < 4; ++i) {
    auto node = std::make_shared<Cybernode>(
        "n" + std::to_string(i), QosCapability{3.0, 4096.0, "x86_64", {}});
    (void)node->join(lus, lrm, 3600 * kSecond);
    nodes.push_back(std::move(node));
  }
  ProvisionMonitor monitor("m", accessor, lrm, sched, {});

  OperationalString os;
  os.name = "fleet";
  ServiceElement element;
  element.name = "s";
  element.planned = services;
  element.qos = QosRequirement{0.5, 32.0, "", {}};
  element.factory = [](const std::string& n) { return make_service(n); };
  os.elements.push_back(std::move(element));
  (void)monitor.deploy(std::move(os));

  double total_hosted = 0;
  for (const auto& node : nodes) {
    EXPECT_LE(node->utilization(), 1.0 + 1e-9);
    total_hosted += static_cast<double>(node->hosted_count());
  }
  // 4 nodes x 3.0 / 0.5 = 24 slots available.
  EXPECT_EQ(static_cast<std::size_t>(total_hosted),
            std::min<std::size_t>(services, 24));
}

INSTANTIATE_TEST_SUITE_P(Loads, PlacementPropertyTest,
                         ::testing::Values(1, 4, 12, 24, 40));

}  // namespace
}  // namespace sensorcer::rio
