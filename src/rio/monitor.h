#pragma once
// Provision Monitor — deploys operational strings onto QoS-matching
// cybernodes with load balancing, watches deployments, and re-provisions
// instances whose cybernode failed ("fault tolerance achieved by
// dynamically allocating the service to a different compute node, if the
// original node fails", §IV.C).
//
// Deployed instances form a dependency graph (see rio/depgraph.h): when a
// dependency dies, poll_once cascades along required edges in topological
// order — the dependency is re-placed first, then each dependent is
// restarted with state hand-off — while optional edges merely mark their
// dependents degraded until the dependency returns. Identical in-flight
// placement requests within one sweep are deduplicated: a fan-out of N
// dependents needing the same dead dependency issues one placement query.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "registry/lease_renewal.h"
#include "rio/cybernode.h"
#include "rio/depgraph.h"
#include "rio/opstring.h"
#include "sorcer/accessor.h"
#include "util/scheduler.h"

namespace sensorcer::rio {

/// Tuning knobs for the monitor.
struct MonitorConfig {
  /// Lease granted to provisioned services on each lookup service.
  util::SimDuration service_lease = 30 * util::kSecond;
  /// How often deployments are checked against their planned state.
  util::SimDuration poll_period = 1 * util::kSecond;
  /// Modeled time to instantiate one service on a cybernode.
  util::SimDuration activation_cost = 50 * util::kMillisecond;
  /// Deadline for per-node liveness pings (a dead or partitioned node costs
  /// this much virtual time per poll).
  util::SimDuration ping_timeout = 10 * util::kMillisecond;
};

class ProvisionMonitor : public sorcer::ServiceProvider {
 public:
  ProvisionMonitor(std::string name, sorcer::ServiceAccessor& accessor,
                   registry::LeaseRenewalManager& lrm,
                   util::Scheduler& scheduler, MonitorConfig config = {});

  ~ProvisionMonitor() override;

  // --- deployment -------------------------------------------------------------

  /// Deploy every element of `opstring` at its planned count. Instances are
  /// placed on the least-utilized cybernode satisfying their QoS. Fails with
  /// kCapacity if any instance cannot be placed (already-placed instances
  /// stay deployed and will be retried by the poll loop).
  util::Status deploy(OperationalString opstring);

  /// Tear an operational string down: evict and deregister all instances,
  /// and drop their dependency-graph nodes so stale edges cannot cascade a
  /// re-provision of an undeployed opstring.
  util::Status undeploy(const std::string& opstring_name);

  /// Instances currently deployed for an opstring (all opstrings when "").
  [[nodiscard]] std::vector<std::shared_ptr<sorcer::ServiceProvider>>
  deployed_instances(const std::string& opstring_name = "") const;

  // --- dependencies -----------------------------------------------------------

  /// Declare that deployed instance `dependent` depends on instance
  /// `dependency`. Names are instance names (which survive re-provisioning);
  /// neither side has to be deployed by this monitor — foreign names simply
  /// never trigger a cascade. Fails when the edge would close a cycle.
  util::Status add_dependency(const std::string& dependent,
                              const std::string& dependency,
                              DependencyKind kind = DependencyKind::kRequired);

  [[nodiscard]] const DependencyGraph& dependencies() const { return graph_; }
  [[nodiscard]] DependencyGraph& dependencies() { return graph_; }

  // --- monitoring --------------------------------------------------------------

  /// One monitoring pass: replace instances whose cybernode died, cascade
  /// along dependency edges, recompute the degraded set. Runs automatically
  /// every poll_period; exposed for deterministic tests.
  void poll_once();

  [[nodiscard]] std::uint64_t provision_count() const;
  [[nodiscard]] std::uint64_t reprovision_count() const;
  [[nodiscard]] std::uint64_t failed_placements() const;
  /// Dependents restarted because a required dependency died.
  [[nodiscard]] std::uint64_t cascade_count() const;
  /// Placement requests answered from the per-sweep single-flight cache.
  [[nodiscard]] std::uint64_t placement_dedup_count() const;

  /// Instances currently degraded: their dependency (required, awaiting
  /// capacity, or optional) is gone and has not been re-placed yet. The set
  /// is recomputed every poll, so it self-heals.
  [[nodiscard]] std::vector<std::string> degraded_instances() const;
  [[nodiscard]] bool is_degraded(const std::string& instance) const {
    return degraded_.contains(instance);
  }

  /// Deployment records whose node is gone (kept for retry — capacity may
  /// return). Cheap bookkeeping check, no wire pings.
  [[nodiscard]] std::size_t unplaced_count() const;

  /// True when every deployed instance sits on a live node that still hosts
  /// it and nothing is degraded — the chaos harness's convergence check.
  [[nodiscard]] bool converged() const {
    return unplaced_count() == 0 && degraded_.empty();
  }

  /// Cybernodes currently discoverable through the accessor.
  std::vector<std::shared_ptr<Cybernode>> known_cybernodes();

 private:
  struct Deployment {
    std::string opstring;
    std::size_t element_index;
    std::string instance_name;
    std::shared_ptr<sorcer::ServiceProvider> service;
    std::weak_ptr<Cybernode> node;
  };

  util::Result<std::shared_ptr<Cybernode>> pick_node(
      const ServiceElement& element);
  /// Node health for the poll loop. Beyond local bookkeeping (is_alive /
  /// hosts), a node on the pipeline's fabric is pinged over the wire, so
  /// partitions and dead endpoints are detected by the transport itself.
  bool node_healthy(const std::shared_ptr<Cybernode>& node);
  util::Status place(const std::string& opstring_name,
                     std::size_t element_index, const ServiceElement& element,
                     const std::string& instance_name);
  void register_instance(
      const std::shared_ptr<sorcer::ServiceProvider>& service);

  /// Re-provision one lost deployment, at most once per sweep: repeated
  /// requests for the same instance (the dependency shared by N dependents)
  /// return the first placement's outcome from the single-flight cache.
  util::Status ensure_placed(const Deployment& d);
  /// Restart a live dependent whose required dependency died: evict, place
  /// afresh, hand state over. Rolls back onto the old node on failure.
  bool restart_dependent(const Deployment& d);
  [[nodiscard]] const OperationalString* find_opstring(
      const std::string& name) const;

  sorcer::ServiceAccessor& accessor_;
  registry::LeaseRenewalManager& lrm_;
  util::Scheduler& scheduler_;
  MonitorConfig config_;
  util::TimerId poll_timer_ = 0;
  bool polling_ = false;  // wire pings pump the scheduler; bar re-entry

  std::vector<OperationalString> opstrings_;
  std::vector<Deployment> deployments_;
  DependencyGraph graph_;
  std::set<std::string> degraded_;

  // Per-sweep state. `sweep_outcome_` is the single-flight placement cache;
  // `undeployed_in_sweep_` records opstrings undeployed while a wire ping
  // was pumping the scheduler, so an in-flight re-provision can abort
  // instead of resurrecting a torn-down opstring.
  std::map<std::string, util::Status> sweep_outcome_;
  std::set<std::string> undeployed_in_sweep_;
  std::map<const Cybernode*, bool> health_cache_;

  // Counters live on the process-global obs registry; per-monitor views are
  // deltas against the values captured at construction.
  std::uint64_t provisions_base_ = 0;
  std::uint64_t reprovisions_base_ = 0;
  std::uint64_t failed_placements_base_ = 0;
  std::uint64_t cascades_base_ = 0;
  std::uint64_t dedup_base_ = 0;
};

}  // namespace sensorcer::rio
