#include "rio/monitor.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/log.h"
#include "util/strings.h"

namespace sensorcer::rio {

namespace {

struct RioMetrics {
  obs::Counter& provisions;
  obs::Counter& reprovisions;
  obs::Counter& failed_placements;
  obs::Counter& cascades;
  obs::Counter& placement_dedup;
  obs::Counter& degrade_events;
  obs::Gauge& degraded;
  obs::Gauge& unplaced;
  obs::Gauge& dep_edges;
};

RioMetrics& rio_metrics() {
  static RioMetrics m{obs::metrics().counter("rio.provisions"),
                      obs::metrics().counter("rio.reprovisions"),
                      obs::metrics().counter("rio.failed_placements"),
                      obs::metrics().counter("rio.cascades"),
                      obs::metrics().counter("rio.placement_dedup"),
                      obs::metrics().counter("rio.degrade_events"),
                      obs::metrics().gauge("rio.degraded"),
                      obs::metrics().gauge("rio.unplaced"),
                      obs::metrics().gauge("rio.dep_edges")};
  return m;
}

}  // namespace

ProvisionMonitor::ProvisionMonitor(std::string name,
                                   sorcer::ServiceAccessor& accessor,
                                   registry::LeaseRenewalManager& lrm,
                                   util::Scheduler& scheduler,
                                   MonitorConfig config)
    : ServiceProvider(std::move(name), {"ProvisionMonitor"}),
      accessor_(accessor),
      lrm_(lrm),
      scheduler_(scheduler),
      config_(config),
      provisions_base_(rio_metrics().provisions.value()),
      reprovisions_base_(rio_metrics().reprovisions.value()),
      failed_placements_base_(rio_metrics().failed_placements.value()),
      cascades_base_(rio_metrics().cascades.value()),
      dedup_base_(rio_metrics().placement_dedup.value()) {
  poll_timer_ =
      scheduler_.schedule_every(config_.poll_period, [this] { poll_once(); });
}

ProvisionMonitor::~ProvisionMonitor() { scheduler_.cancel(poll_timer_); }

std::uint64_t ProvisionMonitor::provision_count() const {
  return rio_metrics().provisions.value() - provisions_base_;
}

std::uint64_t ProvisionMonitor::reprovision_count() const {
  return rio_metrics().reprovisions.value() - reprovisions_base_;
}

std::uint64_t ProvisionMonitor::failed_placements() const {
  return rio_metrics().failed_placements.value() - failed_placements_base_;
}

std::uint64_t ProvisionMonitor::cascade_count() const {
  return rio_metrics().cascades.value() - cascades_base_;
}

std::uint64_t ProvisionMonitor::placement_dedup_count() const {
  return rio_metrics().placement_dedup.value() - dedup_base_;
}

std::vector<std::string> ProvisionMonitor::degraded_instances() const {
  return {degraded_.begin(), degraded_.end()};
}

std::size_t ProvisionMonitor::unplaced_count() const {
  std::size_t n = 0;
  for (const auto& d : deployments_) {
    auto node = d.node.lock();
    if (!node || !node->is_alive() || !node->hosts(d.service->service_id())) {
      ++n;
    }
  }
  return n;
}

std::vector<std::shared_ptr<Cybernode>> ProvisionMonitor::known_cybernodes() {
  std::vector<std::shared_ptr<Cybernode>> out;
  for (const auto& item :
       accessor_.find_all(registry::ServiceTemplate::by_type(kCybernodeType))) {
    if (auto node = registry::proxy_cast<Cybernode>(item.proxy)) {
      if (node->is_alive()) out.push_back(std::move(node));
    }
  }
  return out;
}

util::Result<std::shared_ptr<Cybernode>> ProvisionMonitor::pick_node(
    const ServiceElement& element) {
  // Least-utilized placement spreads load across the fleet unless the
  // element brings its own policy.
  const auto score = [&element](const Cybernode& node) {
    return element.placement_score ? element.placement_score(node)
                                   : -node.utilization();
  };
  std::shared_ptr<Cybernode> best;
  double best_score = 0.0;
  for (auto& node : known_cybernodes()) {
    if (!node->can_host(element.qos)) continue;
    const double s = score(*node);
    if (!best || s > best_score) {
      best = std::move(node);
      best_score = s;
    }
  }
  if (!best) {
    return util::Status{util::ErrorCode::kCapacity,
                        "no cybernode satisfies " + element.qos.to_string()};
  }
  return best;
}

void ProvisionMonitor::register_instance(
    const std::shared_ptr<sorcer::ServiceProvider>& service) {
  // Provisioned instances are full network citizens: attached to the same
  // fabric as the pipeline so exertions can reach them.
  if (auto* invoker = accessor_.invoker();
      invoker != nullptr && service->network() == nullptr) {
    service->attach_network(invoker->network());
  }
  for (const auto& lus : accessor_.lookups()) {
    (void)service->join(lus, lrm_, config_.service_lease);
  }
}

bool ProvisionMonitor::node_healthy(const std::shared_ptr<Cybernode>& node) {
  if (!node->is_alive()) return false;
  // One verdict per node per sweep: a node hosting N instances is pinged
  // once, not N times (a dead node's ping costs ping_timeout each).
  if (auto it = health_cache_.find(node.get()); it != health_cache_.end()) {
    return it->second;
  }
  bool healthy = true;
  auto* invoker = accessor_.invoker();
  if (invoker != nullptr && node->network() == &invoker->network()) {
    // Trust the fabric, not the object — a partitioned or detached node
    // fails its ping even though is_alive() says otherwise.
    healthy =
        invoker->ping(node->network_address(), config_.ping_timeout).is_ok();
  }
  health_cache_[node.get()] = healthy;
  return healthy;
}

util::Status ProvisionMonitor::place(const std::string& opstring_name,
                                     std::size_t element_index,
                                     const ServiceElement& element,
                                     const std::string& instance_name) {
  auto node = pick_node(element);
  if (!node.is_ok()) {
    rio_metrics().failed_placements.add(1);
    return node.status();
  }
  // The factory may re-enter the monitor (wire pings pump the scheduler;
  // an undeploy can land mid-call) and destroy the element this reference
  // points into — including the std::function closure that is currently
  // executing. Copy everything that must outlive the call.
  const auto factory = element.factory;
  const std::string element_name = element.name;
  const QosRequirement qos = element.qos;
  std::shared_ptr<sorcer::ServiceProvider> service = factory(instance_name);
  if (!service) {
    return {util::ErrorCode::kInternal,
            "factory for '" + element_name + "' returned null"};
  }
  if (util::Status hosted = node.value()->host(service, qos);
      !hosted.is_ok()) {
    rio_metrics().failed_placements.add(1);
    return hosted;
  }
  // Activation is not instantaneous: the instance becomes discoverable only
  // after the modeled instantiation time — provisioning and failover benches
  // therefore see a realistic deploy latency.
  std::weak_ptr<Cybernode> weak_node = node.value();
  scheduler_.schedule_after(
      config_.activation_cost, [this, service, weak_node] {
        auto n = weak_node.lock();
        // The node must still host the instance: an undeploy (or a lost
        // placement race) between place() and activation would otherwise
        // register a torn-down instance that then renews its lease forever.
        if (n && n->is_alive() && n->hosts(service->service_id())) {
          register_instance(service);
        }
      });
  deployments_.push_back(Deployment{opstring_name, element_index,
                                    instance_name, service, node.value()});
  rio_metrics().provisions.add(1);
  SENSORCER_LOG_INFO("rio", "provisioned '%s' on cybernode '%s'",
                     instance_name.c_str(),
                     node.value()->provider_name().c_str());
  return util::Status::ok();
}

util::Status ProvisionMonitor::deploy(OperationalString opstring) {
  util::Status first_error = util::Status::ok();
  for (std::size_t e = 0; e < opstring.elements.size(); ++e) {
    const ServiceElement& element = opstring.elements[e];
    for (std::size_t i = 0; i < element.planned; ++i) {
      const std::string instance_name =
          element.planned == 1
              ? element.name
              : util::format("%s-%zu", element.name.c_str(), i + 1);
      if (util::Status placed =
              place(opstring.name, e, element, instance_name);
          !placed.is_ok() && first_error.is_ok()) {
        first_error = placed;
      }
    }
  }
  opstrings_.push_back(std::move(opstring));
  return first_error;
}

util::Status ProvisionMonitor::undeploy(const std::string& opstring_name) {
  const auto known = std::any_of(
      opstrings_.begin(), opstrings_.end(),
      [&](const auto& os) { return os.name == opstring_name; });
  if (!known) {
    return {util::ErrorCode::kNotFound,
            "unknown operational string '" + opstring_name + "'"};
  }
  for (auto& d : deployments_) {
    if (d.opstring != opstring_name) continue;
    if (auto node = d.node.lock()) {
      (void)node->evict(d.service->service_id());
    } else {
      d.service->leave();
    }
    // Torn-down instances leave the dependency graph entirely: edges from
    // survivors onto them must not cascade a re-provision of an undeployed
    // opstring, and their own dependencies are moot.
    graph_.remove_node(d.instance_name);
    degraded_.erase(d.instance_name);
  }
  std::erase_if(deployments_,
                [&](const auto& d) { return d.opstring == opstring_name; });
  std::erase_if(opstrings_,
                [&](const auto& os) { return os.name == opstring_name; });
  if (polling_) undeployed_in_sweep_.insert(opstring_name);
  rio_metrics().dep_edges.set(static_cast<double>(graph_.edge_count()));
  return util::Status::ok();
}

std::vector<std::shared_ptr<sorcer::ServiceProvider>>
ProvisionMonitor::deployed_instances(const std::string& opstring_name) const {
  std::vector<std::shared_ptr<sorcer::ServiceProvider>> out;
  for (const auto& d : deployments_) {
    if (opstring_name.empty() || d.opstring == opstring_name) {
      out.push_back(d.service);
    }
  }
  return out;
}

util::Status ProvisionMonitor::add_dependency(const std::string& dependent,
                                              const std::string& dependency,
                                              DependencyKind kind) {
  util::Status added = graph_.add(dependent, dependency, kind);
  if (added.is_ok()) {
    rio_metrics().dep_edges.set(static_cast<double>(graph_.edge_count()));
  }
  return added;
}

const OperationalString* ProvisionMonitor::find_opstring(
    const std::string& name) const {
  for (const auto& os : opstrings_) {
    if (os.name == name) return &os;
  }
  return nullptr;
}

util::Status ProvisionMonitor::ensure_placed(const Deployment& d) {
  if (auto it = sweep_outcome_.find(d.instance_name);
      it != sweep_outcome_.end()) {
    // Single-flight: another dependent (or the dead-set pass) already
    // resolved this instance in this sweep — reuse the outcome.
    rio_metrics().placement_dedup.add(1);
    return it->second;
  }
  const OperationalString* opstring = find_opstring(d.opstring);
  if (opstring == nullptr || d.element_index >= opstring->elements.size() ||
      undeployed_in_sweep_.contains(d.opstring)) {
    // Opstring undeployed meanwhile (possibly during this sweep's wire
    // pings): nothing to resurrect.
    return sweep_outcome_[d.instance_name] = util::Status{
               util::ErrorCode::kNotFound,
               "opstring '" + d.opstring + "' undeployed"};
  }
  const ServiceElement& element = opstring->elements[d.element_index];
  util::Status placed =
      place(d.opstring, d.element_index, element, d.instance_name);
  if (placed.is_ok()) {
    if (undeployed_in_sweep_.contains(d.opstring)) {
      // undeploy() raced the in-flight re-provision: tear the fresh
      // instance straight back down instead of leaking it.
      Deployment fresh = deployments_.back();
      deployments_.pop_back();
      if (auto node = fresh.node.lock()) {
        (void)node->evict(fresh.service->service_id());
      }
      return sweep_outcome_[d.instance_name] = util::Status{
                 util::ErrorCode::kNotFound,
                 "opstring '" + d.opstring + "' undeployed mid-placement"};
    }
    // State hand-off: the replacement adopts whatever survives of the dead
    // instance (an ESP's DataLog backfills the historian from here).
    deployments_.back().service->assume_state_from(*d.service);
    rio_metrics().reprovisions.add(1);
    SENSORCER_LOG_INFO("rio", "re-provisioned '%s' (was on a failed node)",
                       d.instance_name.c_str());
  } else {
    // Keep the record so the next poll retries (capacity may return).
    deployments_.push_back(d);
  }
  return sweep_outcome_[d.instance_name] = placed;
}

bool ProvisionMonitor::restart_dependent(const Deployment& d) {
  const OperationalString* opstring = find_opstring(d.opstring);
  if (opstring == nullptr || d.element_index >= opstring->elements.size()) {
    return false;
  }
  const ServiceElement& element = opstring->elements[d.element_index];
  auto old_node = d.node.lock();
  if (old_node) (void)old_node->evict(d.service->service_id());
  std::erase_if(deployments_, [&](const Deployment& cur) {
    return cur.service.get() == d.service.get();
  });
  util::Status placed =
      place(d.opstring, d.element_index, element, d.instance_name);
  if (!placed.is_ok()) {
    // Roll back: re-host the still-live instance on its old node rather
    // than losing it to a transient capacity dip.
    if (old_node && old_node->is_alive() &&
        old_node->host(d.service, element.qos).is_ok()) {
      deployments_.push_back(d);
      return false;
    }
    deployments_.push_back(d);  // node-less retry record for the next poll
    return false;
  }
  deployments_.back().service->assume_state_from(*d.service);
  d.service->crash();  // fence the superseded instance
  rio_metrics().reprovisions.add(1);
  rio_metrics().cascades.add(1);
  sweep_outcome_[d.instance_name] = placed;
  SENSORCER_LOG_INFO("rio", "cascade-restarted '%s' (required dependency "
                     "was re-provisioned)", d.instance_name.c_str());
  return true;
}

void ProvisionMonitor::poll_once() {
  // Liveness pings pump the scheduler, which can fire this poll's own
  // timer re-entrantly mid-sweep; one pass at a time.
  if (polling_) return;
  polling_ = true;
  sweep_outcome_.clear();
  undeployed_in_sweep_.clear();
  health_cache_.clear();

  // Phase 1 — liveness. node_healthy may pump the scheduler (wire pings),
  // and anything pumped may call undeploy()/deploy() on us, so health is
  // decided over a snapshot and the losers erased by identity afterwards —
  // never while iterating deployments_ itself.
  std::vector<Deployment> snapshot = deployments_;
  std::vector<Deployment> lost;
  std::set<const sorcer::ServiceProvider*> lost_ids;
  for (const auto& d : snapshot) {
    auto node = d.node.lock();
    // A restarted node comes back empty, so liveness alone is not health:
    // the node must still actually host the instance.
    if (node && node_healthy(node) && node->hosts(d.service->service_id())) {
      continue;
    }
    // Fencing: a partitioned node's object is still alive and still hosts
    // the instance. Left alone it would run in parallel with its
    // replacement (split brain — duplicate readings, double execution), so
    // the stranded instance is evicted and crashed before re-provisioning.
    if (node && node->hosts(d.service->service_id())) {
      (void)node->evict(d.service->service_id());
    }
    if (!d.service->crashed()) d.service->crash();
    lost.push_back(d);
    lost_ids.insert(d.service.get());
  }
  std::erase_if(deployments_, [&](const Deployment& d) {
    return lost_ids.contains(d.service.get());
  });

  // Phase 2 — re-provision the dead, dependencies before dependents. The
  // single-flight cache in ensure_placed makes later requests for the same
  // instance (from any number of dependents) free.
  std::map<std::string, Deployment> lost_by_name;
  std::vector<std::string> dead_names;
  for (const auto& d : lost) {
    if (lost_by_name.emplace(d.instance_name, d).second) {
      dead_names.push_back(d.instance_name);
    }
  }
  for (const std::string& name : graph_.topo_order(dead_names)) {
    (void)ensure_placed(lost_by_name.at(name));
  }

  // Phase 3 — cascade: live dependents bound to a dead required dependency
  // restart (in topological order) once every required dependency has been
  // re-placed; while any is still unplaced they only degrade.
  std::set<std::string> unplaced_now;
  for (const auto& [name, outcome] : sweep_outcome_) {
    if (!outcome.is_ok()) unplaced_now.insert(name);
  }
  std::set<std::string> fresh_degraded;
  for (const std::string& name : graph_.required_cascade(dead_names)) {
    if (lost_by_name.contains(name)) continue;  // handled in phase 2
    const auto dep_it =
        std::find_if(deployments_.begin(), deployments_.end(),
                     [&](const Deployment& d) {
                       return d.instance_name == name;
                     });
    if (dep_it == deployments_.end()) continue;  // not managed here
    bool deps_ok = true;
    for (const DependencyEdge& edge : graph_.dependencies_of(name)) {
      if (edge.kind != DependencyKind::kRequired) continue;
      if (auto lit = lost_by_name.find(edge.dependency);
          lit != lost_by_name.end() && !ensure_placed(lit->second).is_ok()) {
        deps_ok = false;
      }
      if (unplaced_now.contains(edge.dependency)) deps_ok = false;
    }
    if (!deps_ok) {
      fresh_degraded.insert(name);
      continue;
    }
    const Deployment dependent = *dep_it;  // restart mutates deployments_
    if (restart_dependent(dependent)) {
      unplaced_now.erase(name);
    } else {
      fresh_degraded.insert(name);
      unplaced_now.insert(name);
    }
  }

  // Phase 4 — the degraded set: dependents (required or optional) of
  // anything that stayed unplaced this sweep, recomputed from scratch so a
  // later successful re-provision heals them.
  for (const auto& [name, outcome] : sweep_outcome_) {
    if (!outcome.is_ok()) unplaced_now.insert(name);
  }
  for (const std::string& gone : unplaced_now) {
    for (const std::string& dep : graph_.dependents_of(gone)) {
      if (!unplaced_now.contains(dep)) fresh_degraded.insert(dep);
    }
  }
  for (const std::string& name : fresh_degraded) {
    if (!degraded_.contains(name)) {
      rio_metrics().degrade_events.add(1);
      SENSORCER_LOG_INFO("rio", "'%s' degraded (dependency unavailable)",
                         name.c_str());
    }
  }
  degraded_ = std::move(fresh_degraded);

  rio_metrics().degraded.set(static_cast<double>(degraded_.size()));
  rio_metrics().unplaced.set(static_cast<double>(unplaced_count()));
  rio_metrics().dep_edges.set(static_cast<double>(graph_.edge_count()));
  polling_ = false;
}

}  // namespace sensorcer::rio
