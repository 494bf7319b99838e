#include "sorcer/exert.h"

#include <future>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sorcer/invoke.h"
#include "sorcer/servicer.h"
#include "util/thread_pool.h"

namespace sensorcer::sorcer {

namespace {

struct ExertMetrics {
  obs::Counter& exertions;
  obs::Counter& failures;
  obs::Counter& substitutions;
};

ExertMetrics& exert_metrics() {
  static ExertMetrics m{obs::metrics().counter("sorcer.exertions"),
                        obs::metrics().counter("sorcer.exert_failures"),
                        obs::metrics().counter("sorcer.substitutions")};
  return m;
}

util::Result<ExertionPtr> exert_impl(const ExertionPtr& exertion,
                                     ServiceAccessor& accessor,
                                     registry::Transaction* txn) {
  if (exertion->kind() == Exertion::Kind::kTask) {
    auto task = std::static_pointer_cast<Task>(exertion);
    // Service substitution (§V.A): when a provider is unavailable — or,
    // under wire transport, unreachable within the call deadline — pass the
    // request on to an equivalent provider matching the same signature.
    // A pinned provider name means "this provider, exactly" — no
    // substitution (and the original error is preserved).
    const int kMaxAttempts = task->signature().provider_name.empty() ? 3 : 1;
    std::vector<registry::ServiceId> tried;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      auto resolved = accessor.resolve(task->signature(), tried);
      if (!resolved.is_ok()) {
        task->set_error(resolved.status());
        return util::Result<ExertionPtr>(exertion);
      }
      auto result =
          invoke_servicer(accessor, resolved.value().servicer, exertion, txn);
      const util::ErrorCode code = task->error().code();
      // An intern-stream desync is repaired by the failure itself (the
      // invoker resets the stream when it processes the error), so the
      // retry goes back to the SAME provider rather than excluding it.
      const bool desync = code == util::ErrorCode::kCodecDesync;
      const bool substitutable =
          task->status() == ExertStatus::kFailed &&
          (code == util::ErrorCode::kUnavailable ||
           code == util::ErrorCode::kTimeout || desync);
      if (!substitutable || attempt + 1 == kMaxAttempts) {
        return result;
      }
      exert_metrics().substitutions.add(1);
      if (!desync) tried.push_back(resolved.value().id);
      task->reset();
    }
    return util::Result<ExertionPtr>(exertion);  // unreachable
  }

  auto job = std::static_pointer_cast<Job>(exertion);
  const char* rendezvous_type = job->strategy().access == Access::kPull
                                    ? type::kSpacer
                                    : type::kJobber;
  auto rendezvous = accessor.find_servicer(
      Signature{rendezvous_type, "service", ""});
  if (!rendezvous.is_ok()) {
    job->set_error({util::ErrorCode::kNotFound,
                    std::string("no rendezvous peer of type ") +
                        rendezvous_type + " on the network"});
    return util::Result<ExertionPtr>(exertion);
  }
  return invoke_servicer(accessor, rendezvous.value(), exertion, txn);
}

/// One scatter-gather flight: exert()'s routing + substitution state
/// machine, advanced as its wire calls complete instead of blocking on
/// each. The flight's span plays exert()'s span; its `tried` list and
/// attempt budget reproduce the exclusion-retry loop.
struct Flight {
  ExertionPtr exertion;
  obs::Span span;
  PendingCall call;
  std::vector<registry::ServiceId> tried;
  registry::ServiceId last_provider{};
  int attempts = 0;
  int max_attempts = 1;
  bool finished = false;
  bool result_ok = true;
};

/// Resolve the flight's next target and scatter its request. Routing
/// failure (no matching provider / no rendezvous peer) finishes the flight
/// with the error on the exertion, mirroring exert_impl().
void launch_flight(Flight& f, ServiceAccessor& accessor,
                   registry::Transaction* txn) {
  RemoteInvoker* invoker = accessor.invoker();
  obs::ContextGuard guard(f.span.context());
  if (f.exertion->kind() == Exertion::Kind::kTask) {
    auto task = std::static_pointer_cast<Task>(f.exertion);
    auto resolved = accessor.resolve(task->signature(), f.tried);
    if (!resolved.is_ok()) {
      task->set_error(resolved.status());
      f.finished = true;
      return;
    }
    f.last_provider = resolved.value().id;
    ++f.attempts;
    f.call = invoker->begin_invoke(resolved.value().servicer, f.exertion, txn);
    return;
  }
  auto job = std::static_pointer_cast<Job>(f.exertion);
  const char* rendezvous_type = job->strategy().access == Access::kPull
                                    ? type::kSpacer
                                    : type::kJobber;
  auto rendezvous =
      accessor.find_servicer(Signature{rendezvous_type, "service", ""});
  if (!rendezvous.is_ok()) {
    job->set_error({util::ErrorCode::kNotFound,
                    std::string("no rendezvous peer of type ") +
                        rendezvous_type + " on the network"});
    f.finished = true;
    return;
  }
  ++f.attempts;
  f.call = invoker->begin_invoke(rendezvous.value(), f.exertion, txn);
}

/// Consume the flight's completed call: either the flight is done, or the
/// task is substitutable (kUnavailable/kTimeout, attempts left) and is
/// re-resolved with exclusion and re-scattered while sibling flights keep
/// flying.
void settle_flight(Flight& f, ServiceAccessor& accessor,
                   registry::Transaction* txn) {
  f.result_ok = f.call.result().is_ok();
  if (f.exertion->kind() == Exertion::Kind::kTask) {
    auto task = std::static_pointer_cast<Task>(f.exertion);
    const util::ErrorCode code = task->error().code();
    // A desync retry goes back to the same provider (the failed call
    // already reset the intern stream) instead of excluding it.
    const bool desync = code == util::ErrorCode::kCodecDesync;
    const bool substitutable =
        task->status() == ExertStatus::kFailed &&
        (code == util::ErrorCode::kUnavailable ||
         code == util::ErrorCode::kTimeout || desync);
    if (substitutable && f.attempts < f.max_attempts) {
      exert_metrics().substitutions.add(1);
      if (!desync) f.tried.push_back(f.last_provider);
      task->reset();
      launch_flight(f, accessor, txn);
      return;
    }
  }
  f.finished = true;
}

FanOut exert_all_wire(const std::vector<ExertionPtr>& batch,
                      ServiceAccessor& accessor, registry::Transaction* txn) {
  RemoteInvoker* invoker = accessor.invoker();
  std::vector<Flight> flights;
  flights.reserve(batch.size());
  for (const auto& exertion : batch) {
    Flight f;
    f.exertion = exertion;
    if (!exertion) {
      f.finished = true;
      f.result_ok = false;
      flights.push_back(std::move(f));
      continue;
    }
    exert_metrics().exertions.add(1);
    obs::TraceContext parent = exertion->trace_context().valid()
                                   ? exertion->trace_context()
                                   : obs::current_context();
    f.span = obs::tracer().start_span("exert:" + exertion->name(), parent);
    exertion->set_trace_context(f.span.context());
    if (exertion->kind() == Exertion::Kind::kTask) {
      auto task = std::static_pointer_cast<Task>(exertion);
      f.max_attempts = task->signature().provider_name.empty() ? 3 : 1;
    }
    launch_flight(f, accessor, txn);
    flights.push_back(std::move(f));
  }

  for (;;) {
    // Advance every flight whose current call has completed (synchronously
    // in begin_invoke, or during an earlier pump) — a settle may re-scatter
    // a substituted attempt — then gather all still-open calls with one
    // shared pump so their round-trips overlap.
    std::vector<PendingCall*> open;
    for (Flight& f : flights) {
      while (!f.finished && f.call.completed()) {
        settle_flight(f, accessor, txn);
      }
      if (!f.finished) open.push_back(&f.call);
    }
    if (open.empty()) break;
    invoker->pump_until_all(open);
  }

  for (Flight& f : flights) {
    if (!f.exertion) continue;
    const bool failed =
        !f.result_ok || f.exertion->status() == ExertStatus::kFailed;
    if (failed) exert_metrics().failures.add(1);
    f.span.set_ok(!failed);
    f.span.finish();
    // Outcomes live on the exertions; the call shell goes back to the pool.
    invoker->recycle(std::move(f.call));
  }
  return FanOut::kWire;
}

}  // namespace

util::Result<ExertionPtr> exert(const ExertionPtr& exertion,
                                ServiceAccessor& accessor,
                                registry::Transaction* txn) {
  if (!exertion) {
    return util::Status{util::ErrorCode::kInvalidArgument, "null exertion"};
  }
  exert_metrics().exertions.add(1);

  // Parent preference: a context stamped on the exertion by its submitter
  // (survives cross-thread dispatch) wins over the caller's thread-current
  // one. The span we open becomes the context the whole subtree runs under.
  obs::TraceContext parent = exertion->trace_context().valid()
                                 ? exertion->trace_context()
                                 : obs::current_context();
  obs::Span span =
      obs::tracer().start_span("exert:" + exertion->name(), parent);
  exertion->set_trace_context(span.context());
  obs::ContextGuard guard(span.context());

  auto result = exert_impl(exertion, accessor, txn);
  const bool failed =
      !result.is_ok() || exertion->status() == ExertStatus::kFailed;
  if (failed) exert_metrics().failures.add(1);
  span.set_ok(!failed);
  return result;
}

FanOut exert_all(const std::vector<ExertionPtr>& batch,
                 ServiceAccessor& accessor, registry::Transaction* txn,
                 util::ThreadPool* pool) {
  if (batch.empty()) return FanOut::kSequence;
  // Under wire transport, concurrency comes from the fabric: scatter all
  // the requests, gather with one shared pump. Threads would only serialize
  // behind the single virtual-time scheduler.
  if (accessor.wire_transport()) return exert_all_wire(batch, accessor, txn);
  if (pool != nullptr && batch.size() > 1) {
    if (pool->on_worker_thread()) {
      // Nested fan-out on a worker: waiting on this pool's queue would
      // deadlock once every worker did. Run inline; the caller still models
      // the batch as pooled, so modeled latency is unchanged.
      for (const auto& exertion : batch) (void)exert(exertion, accessor, txn);
      return FanOut::kPooled;
    }
    std::vector<std::future<void>> futures;
    futures.reserve(batch.size());
    for (const auto& exertion : batch) {
      futures.push_back(pool->submit(
          [&accessor, exertion, txn] { (void)exert(exertion, accessor, txn); }));
    }
    for (auto& f : futures) f.get();
    return FanOut::kPooled;
  }
  for (const auto& exertion : batch) (void)exert(exertion, accessor, txn);
  return FanOut::kSequence;
}

}  // namespace sensorcer::sorcer
