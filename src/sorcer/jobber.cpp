#include "sorcer/jobber.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sorcer/exert.h"

namespace sensorcer::sorcer {

namespace {

struct JobMetrics {
  obs::Counter& jobs;
  obs::Histogram& latency;
};

JobMetrics& jobber_metrics() {
  static JobMetrics m{obs::metrics().counter("sorcer.jobber.jobs"),
                      obs::metrics().histogram("sorcer.job.latency_us")};
  return m;
}

}  // namespace

Jobber::Jobber(std::string name, ServiceAccessor& accessor)
    : ServiceProvider(std::move(name), {type::kJobber}), accessor_(accessor) {}

util::Result<ExertionPtr> Jobber::service(ExertionPtr exertion,
                                          registry::Transaction* txn) {
  if (!exertion) {
    return util::Status{util::ErrorCode::kInvalidArgument, "null exertion"};
  }
  if (exertion->kind() == Exertion::Kind::kTask) {
    // A task addressed to the jobber itself executes here (base task path);
    // any other stray task is routed on through the federation.
    auto task = std::static_pointer_cast<Task>(exertion);
    const auto& types = this->types();
    if (std::find(types.begin(), types.end(),
                  task->signature().service_type) != types.end()) {
      return ServiceProvider::service(exertion, txn);
    }
    return run_child(exertion, txn);
  }

  auto job = std::static_pointer_cast<Job>(exertion);
  job->start();
  ++jobs_;
  jobber_metrics().jobs.add(1);

  if (job->strategy().flow == Flow::kParallel) {
    run_parallel(*job, txn);
  } else {
    run_sequence(*job, txn);
  }
  job->add_trace(provider_name());
  jobber_metrics().latency.observe(static_cast<double>(job->latency()));
  job->conclude();
  return exertion;
}

util::Result<ExertionPtr> Jobber::run_child(const ExertionPtr& child,
                                            registry::Transaction* txn) {
  // Both kinds re-enter the federation through exert(): tasks get service
  // substitution on provider unavailability; nested jobs route to a
  // rendezvous peer appropriate to their own access strategy.
  return exert(child, accessor_, txn);
}

void Jobber::run_sequence(Job& job, registry::Transaction* txn) {
  util::SimDuration total = 0;
  for (const auto& child : job.children()) {
    (void)run_child(child, txn);
    total += child->latency() + kDispatchOverhead;
    // Fail-fast stops at the first failed child; Job::conclude() aborts.
    if (child->status() == ExertStatus::kFailed && job.strategy().fail_fast) {
      break;
    }
  }
  job.add_latency(total);
}

void Jobber::run_parallel(Job& job, registry::Transaction* txn) {
  const auto& children = job.children();

  // One scatter-gather batch through the invocation pipeline: the children
  // are all scattered onto the fabric and gathered with one shared pump, so
  // their round-trips overlap in virtual time. Each child keeps exert()'s
  // full routing and substitution-retry semantics.
  exert_all(children, accessor_, txn);

  // Parallel latency model: all children progress together, so the job pays
  // the slowest child — whose latency already carries its own round-trip —
  // plus one batch-dispatch overhead; per-child costs on top of measured
  // fabric time would double-count the fan-out. An empty batch costs
  // nothing.
  if (!children.empty()) {
    util::SimDuration slowest = 0;
    for (const auto& child : children) {
      slowest = std::max(slowest, child->latency());
    }
    job.add_latency(slowest + kDispatchOverhead);
  }
}

}  // namespace sensorcer::sorcer
