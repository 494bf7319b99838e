#include "sorcer/spacer.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sorcer/exert.h"

namespace sensorcer::sorcer {

namespace {

struct SpacerMetrics {
  obs::Counter& jobs;
  obs::Histogram& latency;
};

SpacerMetrics& spacer_metrics() {
  static SpacerMetrics m{obs::metrics().counter("sorcer.spacer.jobs"),
                         obs::metrics().histogram("sorcer.job.latency_us")};
  return m;
}

}  // namespace

Spacer::Spacer(std::string name, ServiceAccessor& accessor, ExertSpace& space,
               std::size_t workers)
    : ServiceProvider(std::move(name), {type::kSpacer}),
      accessor_(accessor),
      space_(space),
      workers_(workers == 0 ? 1 : workers) {}

void Spacer::execute_envelope(const ExertSpace::Envelope& env,
                              registry::Transaction* txn) {
  // exert() gives space workers the same service-substitution behaviour as
  // push-mode dispatch.
  (void)exert(env.task, accessor_, txn);
  space_.complete(env.id);
}

util::Result<ExertionPtr> Spacer::service(ExertionPtr exertion,
                                          registry::Transaction* txn) {
  if (!exertion) {
    return util::Status{util::ErrorCode::kInvalidArgument, "null exertion"};
  }
  if (exertion->kind() == Exertion::Kind::kTask) {
    auto task = std::static_pointer_cast<Task>(exertion);
    // A task addressed to the spacer itself executes here; anything else
    // written through the spacer still goes via the space.
    const auto& types = this->types();
    if (std::find(types.begin(), types.end(),
                  task->signature().service_type) != types.end()) {
      return ServiceProvider::service(exertion, txn);
    }
    space_.write(task);
    auto env = space_.take();
    if (env) execute_envelope(*env, txn);
    exertion->add_latency(2 * kSpaceOpCost);
    return exertion;
  }

  auto job = std::static_pointer_cast<Job>(exertion);
  job->set_status(ExertStatus::kRunning);
  spacer_metrics().jobs.add(1);

  // Stamp children before they enter the space: the drained batch is
  // scattered as a whole, where thread-local context is useless.
  for (const auto& child : job->children()) {
    if (!child->trace_context().valid()) {
      child->set_trace_context(job->trace_context());
    }
  }

  // Nested jobs cannot ride the space (envelopes hold tasks); run them
  // through the federation first, sequentially.
  std::vector<std::shared_ptr<Task>> tasks;
  for (const auto& child : job->children()) {
    if (child->kind() == Exertion::Kind::kJob) {
      (void)exert(child, accessor_, txn);
      job->add_latency(child->latency());
    } else {
      tasks.push_back(std::static_pointer_cast<Task>(child));
    }
  }

  for (const auto& task : tasks) space_.write(task);

  // Drain the space: take every envelope, then run the whole batch through
  // the scatter-gather pipeline, overlapped on the fabric. Workers are a
  // latency model, not an execution mechanism: the makespan charge below
  // still reflects a crew of `workers_` pulling from the space.
  std::vector<ExertSpace::Envelope> taken;
  taken.reserve(tasks.size());
  while (auto env = space_.take()) taken.push_back(std::move(*env));
  std::vector<ExertionPtr> drained;
  drained.reserve(taken.size());
  for (const auto& env : taken) drained.push_back(env.task);
  exert_all(drained, accessor_, txn);
  for (const auto& env : taken) space_.complete(env.id);

  // Makespan model: greedily assign task latencies to the earliest-free
  // worker, in the order tasks were written.
  std::vector<util::SimDuration> clocks(workers_, 0);
  for (const auto& task : tasks) {
    auto earliest = std::min_element(clocks.begin(), clocks.end());
    *earliest += task->latency() + 2 * kSpaceOpCost;
  }
  job->add_latency(*std::max_element(clocks.begin(), clocks.end()));
  job->add_trace(provider_name());
  spacer_metrics().latency.observe(static_cast<double>(job->latency()));

  for (const auto& child : job->children()) {
    if (child->status() == ExertStatus::kFailed && job->strategy().fail_fast) {
      job->set_error({util::ErrorCode::kAborted,
                      "child '" + child->name() +
                          "' failed: " + child->error().message()});
      return exertion;
    }
  }

  for (const auto& child : job->children()) {
    for (const auto& path : child->context().paths()) {
      auto v = child->context().get(path);
      if (v.is_ok()) {
        job->context().put(child->name() + "/" + path, std::move(v).value());
      }
    }
  }
  job->set_status(ExertStatus::kDone);
  return exertion;
}

}  // namespace sensorcer::sorcer
