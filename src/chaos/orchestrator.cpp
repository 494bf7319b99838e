#include "chaos/orchestrator.h"

#include <algorithm>

#include "core/elementary_provider.h"
#include "hist/historian.h"
#include "sorcer/exertion.h"
#include "sorcer/invoke.h"
#include "util/strings.h"

namespace sensorcer::chaos {

using util::kMillisecond;
using util::kSecond;

ChaosOrchestrator::ChaosOrchestrator(core::Deployment& deployment,
                                     ChaosConfig config)
    : dep_(deployment),
      config_(config),
      // Distinct stream from the schedule generator: picking CSP components
      // must not perturb which faults the same seed produces.
      rng_(config.seed ^ 0xc4a07a51ull),
      readings_(std::make_shared<ReadingTracker>()),
      execs_(std::make_shared<ExecutionTracker>()) {}

ChaosOrchestrator::~ChaosOrchestrator() {
  if (workload_timer_ != 0) dep_.scheduler().cancel(workload_timer_);
  if (set_up_) dep_.provisioner().set_instance_hook(nullptr);
}

util::Status ChaosOrchestrator::setup() {
  if (set_up_) return util::Status::ok();
  if (dep_.cybernodes().empty()) {
    return {util::ErrorCode::kFailedPrecondition,
            "chaos needs a cybernode fleet to break"};
  }

  config_.schedule.seed = config_.seed;
  config_.schedule.nodes = dep_.cybernodes().size();
  events_ = make_schedule(config_.schedule);

  // Observe every instance the provisioner's factories create — including
  // the replacements the monitor places after kills — so conservation taps
  // and the lease audit cover the whole lifetime of the run.
  auto readings = readings_;
  auto* tracked = &tracked_;
  dep_.provisioner().set_instance_hook(
      [readings, tracked](
          const std::shared_ptr<sorcer::ServiceProvider>& svc) {
        tracked->emplace_back(svc->service_id(), svc);
        auto esp =
            std::dynamic_pointer_cast<core::ElementarySensorProvider>(svc);
        if (!esp) return;
        const std::string name = esp->provider_name();
        if (!name.starts_with("chaos-esp")) return;
        esp->add_reading_tap([readings, name](const sensor::Reading& r) {
          readings->observe(name, r);
        });
      });

  // The ESP fleet: lightweight, so ~100 instances fit a handful of nodes.
  rio::QosRequirement esp_qos;
  esp_qos.compute_units = 0.02;
  esp_qos.memory_mb = 4.0;
  util::Status status = dep_.provisioner().provision_elementary(
      "chaos-esp",
      [this](const std::string& instance) {
        ++probe_seed_;
        return sensor::make_temperature_probe(
            instance, probe_seed_, 16.0 + static_cast<double>(probe_seed_ % 12));
      },
      esp_qos, config_.providers);
  if (!status.is_ok()) return status;
  for (const auto& svc : dep_.monitor().deployed_instances("chaos-esp")) {
    esp_names_.push_back(svc->provider_name());
  }
  std::sort(esp_names_.begin(), esp_names_.end());

  // Tasker workers for the exertion workload. The operation reports which
  // concrete instance ran each sequence number: per-instance re-execution is
  // the at-most-once violation, a replacement instance re-running a timed-out
  // sequence is legal substitution.
  rio::QosRequirement worker_qos;
  worker_qos.compute_units = 0.05;
  worker_qos.memory_mb = 8.0;
  for (std::size_t i = 0; i < config_.workers; ++i) {
    const std::string name = util::format("chaos-worker-%zu", i + 1);
    rio::ServiceElement element;
    element.name = name;
    element.qos = worker_qos;
    element.planned = 1;
    auto execs = execs_;
    element.factory = [execs, tracked](const std::string& instance)
        -> std::shared_ptr<sorcer::ServiceProvider> {
      auto tasker = std::make_shared<sorcer::Tasker>(instance);
      sorcer::Tasker* raw = tasker.get();
      const std::string identity =
          instance + "#" + tasker->service_id().to_string();
      tasker->add_operation(
          "chaos.work",
          [execs, raw, identity](sorcer::ServiceContext& ctx) -> util::Status {
            // A zombie whose registration has not lapsed yet can still be
            // selected; the process behind it is gone, so it must neither
            // compute nor count as an execution.
            if (raw->crashed()) {
              return {util::ErrorCode::kUnavailable, "crashed worker"};
            }
            auto seq = ctx.get_double("chaos/seq");
            if (!seq.is_ok()) return seq.status();
            execs->record(static_cast<std::uint64_t>(seq.value()), identity);
            ctx.put("chaos/ack", seq.value());
            return util::Status::ok();
          },
          2 * kMillisecond);
      tracked->emplace_back(tasker->service_id(), tasker);
      return tasker;
    };
    status = dep_.provisioner().provision_service(name, std::move(element));
    if (!status.is_ok()) return status;
    worker_names_.push_back(name);
  }

  // Let placements activate and the ESPs take first samples.
  dep_.pump(kSecond);

  // Composites over random ESP components. provision_composite records the
  // required dependency edges; the façade then wires the actual components
  // and an averaging expression.
  rio::QosRequirement csp_qos;
  csp_qos.compute_units = 0.1;
  csp_qos.memory_mb = 16.0;
  std::vector<std::vector<std::string>> component_sets;
  for (std::size_t c = 0; c < config_.composites; ++c) {
    const std::string name = util::format("chaos-csp-%zu", c + 1);
    const std::size_t width =
        std::min(config_.composite_width, esp_names_.size());
    std::set<std::size_t> picked;
    while (picked.size() < width) {
      picked.insert(static_cast<std::size_t>(rng_.below(esp_names_.size())));
    }
    std::vector<std::string> components;
    for (std::size_t idx : picked) components.push_back(esp_names_[idx]);
    status = dep_.provisioner().provision_composite(name, csp_qos, components);
    if (!status.is_ok()) return status;
    csp_names_.push_back(name);
    component_sets.push_back(std::move(components));
  }
  dep_.pump(kSecond);
  for (std::size_t c = 0; c < csp_names_.size(); ++c) {
    status = dep_.facade().compose_service(csp_names_[c], component_sets[c]);
    if (!status.is_ok()) return status;
    std::string expr = "(";
    for (std::size_t i = 0; i < component_sets[c].size(); ++i) {
      if (i > 0) expr += " + ";
      expr += static_cast<char>('a' + i);
    }
    expr += util::format(") / %zu", component_sets[c].size());
    status = dep_.facade().add_expression(csp_names_[c], expr);
    if (!status.is_ok()) return status;
  }

  workload_timer_ = dep_.scheduler().schedule_every(
      config_.workload_period, [this] { workload_tick(); });
  set_up_ = true;
  return util::Status::ok();
}

void ChaosOrchestrator::workload_tick() {
  if (worker_names_.empty()) return;
  // Closed-loop generator: a wire exert below pumps the scheduler, and under
  // loss it can wait out multi-second call deadlines — during which this
  // timer fires again on the same stack. Issuing from those nested frames
  // compounds (each exert pumps, firing more ticks) until the stack
  // overflows; a real load generator blocked on a response isn't issuing
  // either, so re-entrant ticks are skipped, not queued.
  if (in_tick_) return;
  in_tick_ = true;
  ++seq_;
  execs_->issued(seq_);
  auto task = sorcer::Task::make(
      "chaos-work", sorcer::Signature{sorcer::type::kTasker, "chaos.work",
                                      worker_names_[seq_ % worker_names_.size()]});
  task->context().put("chaos/seq", static_cast<double>(seq_));
  (void)sorcer::exert(task, dep_.accessor());
  if (task->status() == sorcer::ExertStatus::kDone) ++done_; else ++failed_;

  // Every 4th tick, a federated read through a composite — the whole
  // CSP → ESP collection path keeps running while faults land.
  if (!csp_names_.empty() && seq_ % 4 == 0) {
    (void)dep_.facade().get_value(csp_names_[(seq_ / 4) % csp_names_.size()]);
  }

  // Every 8th tick, a two-leg job through the Jobber rendezvous, so the
  // kKillJobber events really land mid-fan-out.
  if (dep_.jobber() != nullptr && seq_ % 8 == 0) {
    auto job = sorcer::Job::make("chaos-job");
    for (int leg = 0; leg < 2; ++leg) {
      ++seq_;
      execs_->issued(seq_);
      auto t = sorcer::Task::make(
          "chaos-job-leg",
          sorcer::Signature{sorcer::type::kTasker, "chaos.work",
                            worker_names_[seq_ % worker_names_.size()]});
      t->context().put("chaos/seq", static_cast<double>(seq_));
      job->add(t);
    }
    (void)sorcer::exert(job, dep_.accessor());
    if (job->status() == sorcer::ExertStatus::kDone) ++done_; else ++failed_;
  }
  in_tick_ = false;
}

void ChaosOrchestrator::apply(const ChaosEvent& event,
                              InvariantReport& report) {
  (void)report;
  const auto& nodes = dep_.cybernodes();
  switch (event.action) {
    case ChaosAction::kKillNode:
      if (event.node < nodes.size() && nodes[event.node]->is_alive()) {
        nodes[event.node]->fail();
      }
      break;
    case ChaosAction::kRestartNode:
      if (event.node < nodes.size() && !nodes[event.node]->is_alive()) {
        nodes[event.node]->restart();
        rejoin_node(nodes[event.node]);
      }
      break;
    case ChaosAction::kPartitionNode:
      // Management plane only: the monitor's pings to the node fail while
      // the hosted instances' own endpoints stay reachable — exactly the
      // split-brain window the fencing path exists for.
      if (event.node < nodes.size()) {
        dep_.network().partition(dep_.invoker().address(),
                                 nodes[event.node]->network_address());
        partitioned_.insert(event.node);
      }
      break;
    case ChaosAction::kHealNode:
      if (event.node < nodes.size()) {
        dep_.network().heal(dep_.invoker().address(),
                            nodes[event.node]->network_address());
        partitioned_.erase(event.node);
      }
      break;
    case ChaosAction::kHealAll:
      dep_.network().heal_all();
      partitioned_.clear();
      break;
    case ChaosAction::kLossBurst:
      dep_.network().set_loss_rate(event.rate);
      break;
    case ChaosAction::kLossEnd:
      dep_.network().set_loss_rate(0.0);
      break;
    case ChaosAction::kLeaseStorm:
      for (std::size_t i = 0; i < event.count; ++i) {
        auto svc = std::make_shared<sorcer::Tasker>(
            util::format("chaos-storm-%zu", storm_.size() + 1));
        for (const auto& lus : dep_.lookups()) {
          (void)svc->join(lus, dep_.lease_renewal(), config_.storm_lease);
        }
        const bool keeper = (i % 2 == 0);
        if (!keeper) svc->crash();  // stops renewing — this lease must lapse
        storm_.push_back({svc, keeper});
      }
      break;
    case ChaosAction::kKillJobber:
      if (sorcer::Jobber* jobber = dep_.jobber();
          jobber != nullptr && !jobber_down_) {
        jobber->crash();
        dep_.network().detach(jobber->network_address());
        jobber_down_ = true;
      }
      break;
    case ChaosAction::kReviveJobber:
      revive_jobber();
      break;
  }
}

void ChaosOrchestrator::rejoin_node(
    const std::shared_ptr<rio::Cybernode>& node) {
  // restart() only revives the process; a restarted node re-announces
  // itself, which is what makes its capacity discoverable again.
  for (const auto& lus : dep_.lookups()) {
    (void)node->join(lus, dep_.lease_renewal(), dep_.config().lease_duration);
  }
}

void ChaosOrchestrator::revive_jobber() {
  sorcer::Jobber* jobber = dep_.jobber();
  if (jobber == nullptr || !jobber_down_) return;
  jobber->attach_network(dep_.network());
  for (const auto& lus : dep_.lookups()) {
    (void)jobber->join(lus, dep_.lease_renewal(),
                       dep_.config().lease_duration);
  }
  jobber_down_ = false;
}

void ChaosOrchestrator::check(InvariantReport& report) {
  std::size_t alive = 0;
  for (const auto& node : dep_.cybernodes()) {
    if (node->is_alive()) ++alive;
  }
  if (alive == 0) {
    report.violate("schedule", "no cybernode left alive mid-run");
  }
  // One deployment record per instance name, always: double placement would
  // eventually double-execute and double-push.
  std::set<std::string> names;
  for (const auto& svc : dep_.monitor().deployed_instances()) {
    if (!names.insert(svc->provider_name()).second) {
      report.violate("bookkeeping",
                     "instance " + svc->provider_name() + " deployed twice");
    }
  }
}

InvariantReport ChaosOrchestrator::run() {
  InvariantReport report;
  if (!set_up_) {
    util::Status status = setup();
    if (!status.is_ok()) {
      report.violate("setup", status.to_string());
      return report;
    }
  }
  const util::SimTime start = dep_.now();
  for (const ChaosEvent& event : events_) {
    const util::SimTime when = start + event.at;
    if (when > dep_.now()) dep_.pump(when - dep_.now());
    apply(event, report);
    ++report.events_applied;
    check(report);
    ++report.checks_run;
  }
  const util::SimTime end = start + config_.schedule.duration;
  if (end > dep_.now()) dep_.pump(end - dep_.now());
  quiesce(report);
  final_audit(report);
  return report;
}

void ChaosOrchestrator::quiesce(InvariantReport& report) {
  dep_.network().set_loss_rate(0.0);
  dep_.network().heal_all();
  partitioned_.clear();
  for (const auto& node : dep_.cybernodes()) {
    if (!node->is_alive()) {
      node->restart();
      rejoin_node(node);
    }
  }
  revive_jobber();
  if (workload_timer_ != 0) {
    dep_.scheduler().cancel(workload_timer_);
    workload_timer_ = 0;
  }

  const util::SimDuration step =
      std::max<util::SimDuration>(dep_.config().monitor.poll_period, 1);
  util::SimDuration waited = 0;
  while (!dep_.monitor().converged() && waited < config_.quiesce_timeout) {
    dep_.pump(step);
    waited += step;
  }
  report.converged = dep_.monitor().converged();
  if (!report.converged) {
    report.violate(
        "convergence",
        util::format("%zu unplaced, %zu degraded after %lld ms of quiesce",
                     dep_.monitor().unplaced_count(),
                     dep_.monitor().degraded_instances().size(),
                     static_cast<long long>(config_.quiesce_timeout /
                                            util::kMillisecond)));
  }

  // Let every lease granted during the run either renew or lapse (the storm
  // non-keepers and fenced zombies must disappear), with feeders still
  // flushing on their timers as virtual time passes.
  dep_.pump(dep_.config().lease_duration + 2 * kSecond);

  // Drain the feeder tails. A flush pumps the scheduler, which can fire
  // another ESP's sampling timer mid-drain — so tally leftovers in a
  // separate pass after all flushes (the tally itself never advances time,
  // so a zero count is final) and iterate until a round ends with nothing
  // pending anywhere.
  for (int round = 0; round < 8; ++round) {
    const auto instances = dep_.monitor().deployed_instances("chaos-esp");
    for (const auto& svc : instances) {
      auto* esp = dynamic_cast<core::ElementarySensorProvider*>(svc.get());
      if (esp == nullptr) continue;
      if (auto* feeder = esp->history_feeder()) (void)feeder->flush();
    }
    std::size_t left = 0;
    for (const auto& svc : instances) {
      auto* esp = dynamic_cast<core::ElementarySensorProvider*>(svc.get());
      if (esp == nullptr) continue;
      if (auto* feeder = esp->history_feeder()) left += feeder->pending();
    }
    if (left == 0) break;
  }
}

void ChaosOrchestrator::final_audit(InvariantReport& report) {
  report.exertions_issued = execs_->issued_count();
  report.exertions_done = done_;
  report.exertions_failed = failed_;
  report.reprovisions = dep_.monitor().reprovision_count();
  report.cascades = dep_.monitor().cascade_count();
  report.placement_dedups = dep_.monitor().placement_dedup_count();
  report.degraded = dep_.monitor().degraded_instances().size();

  execs_->audit(report);
  if (dep_.historian() != nullptr) {
    readings_->audit(dep_.historian()->store(), report);
  }

  // Leases renewed-or-lapsed. Keepers kept renewing and must still be
  // registered; non-keepers crashed at birth and must be gone.
  for (const StormEntry& entry : storm_) {
    bool registered = false;
    for (const auto& lus : dep_.lookups()) {
      if (lus->contains(entry.service->service_id())) registered = true;
    }
    if (entry.keeper && !registered) {
      report.violate("lease",
                     entry.service->provider_name() +
                         " kept renewing but its registration is gone");
    }
    if (!entry.keeper && registered) {
      ++report.stale_registrations;
      report.violate("lease",
                     entry.service->provider_name() +
                         " crashed but its registration outlived the lease");
    }
  }
  // Every crashed chaos instance (killed nodes, fenced zombies) must have
  // lapsed out of every lookup service by now.
  for (const auto& [id, weak] : tracked_) {
    auto svc = weak.lock();
    if (!svc || !svc->crashed()) continue;
    for (const auto& lus : dep_.lookups()) {
      if (lus->contains(id)) {
        ++report.stale_registrations;
        report.violate("lease", svc->provider_name() +
                                    " crashed but is still registered");
        break;
      }
    }
  }
}

}  // namespace sensorcer::chaos
