#include "sorcer/exert.h"

#include <deque>
#include <span>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sorcer/invoke.h"
#include "sorcer/servicer.h"

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

/// kFailedPrecondition when `accessor` has no invoker wired — such an
/// accessor can reach no provider, so both entry points check it first.
util::Status require_invoker(const ServiceAccessor& accessor) {
  if (accessor.invoker() != nullptr) return util::Status::ok();
  return {util::ErrorCode::kFailedPrecondition,
          "accessor has no invoker: no provider is reachable"};
}

/// One exertion's dispatch state machine: resolve → begin_invoke → settle,
/// re-resolving with exclusion and re-scattering on a substitutable
/// failure. It advances as its wire calls complete instead of blocking on
/// each, so exert() drives one and exert_all() a batch of them under one
/// shared pump. The flight's span is the exertion's "exert:<name>" span.
struct Flight {
  ExertionPtr exertion;
  obs::Span span;
  PendingCall call;
  std::vector<registry::ServiceId> tried;
  registry::ServiceId last_provider{};
  /// Transport status of the call the flight ended on; ok when it ended on
  /// a routing failure or an application-level outcome.
  util::Status transport = util::Status::ok();
  int attempts = 0;
  int max_attempts = 1;
  bool finished = false;
};

/// Resolve the flight's next target and scatter its request. Routing
/// failure (no matching provider / no rendezvous peer) finishes the flight
/// with the error on the exertion.
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

/// Open the flight's span — under the context its submitter stamped on the
/// exertion (which survives a scatter-gather hand-off), else the caller's
/// current one — and scatter the first attempt.
void start_flight(Flight& f, ServiceAccessor& accessor,
                  registry::Transaction* txn) {
  exert_metrics().exertions.add(1);
  const ExertionPtr& exertion = f.exertion;
  obs::TraceContext parent = exertion->trace_context().valid()
                                 ? exertion->trace_context()
                                 : obs::current_context();
  f.span = obs::tracer().start_span({"exert:", exertion->name()}, parent);
  exertion->set_trace_context(f.span.context());
  if (exertion->kind() == Exertion::Kind::kTask) {
    // A pinned provider name means "this provider, exactly" — no
    // substitution, and the original error is preserved.
    auto task = std::static_pointer_cast<Task>(exertion);
    f.max_attempts = task->signature().provider_name.empty() ? 3 : 1;
  }
  launch_flight(f, accessor, txn);
}

/// Consume the flight's completed call: either the flight is done, or the
/// task is substitutable and is re-resolved and re-scattered while sibling
/// flights keep flying.
void settle_flight(Flight& f, ServiceAccessor& accessor,
                   registry::Transaction* txn) {
  if (f.exertion->kind() == Exertion::Kind::kTask) {
    auto task = std::static_pointer_cast<Task>(f.exertion);
    const util::ErrorCode code = task->error().code();
    // Service substitution (§V.A): a provider that is down, or unreachable
    // within the call deadline, passes the request on to an equivalent
    // provider matching the same signature. An intern-stream desync is
    // repaired by the failure itself (the invoker reset the stream), so
    // that retry goes back to the SAME provider rather than excluding it.
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
  if (!f.call.result().is_ok()) f.transport = f.call.result().status();
  f.finished = true;
}

/// Advance every flight whose current call has completed (synchronously in
/// begin_invoke, or during an earlier pump) — a settle may re-scatter a
/// substituted attempt — then gather all still-open calls with one shared
/// pump so their round-trips overlap. `open` holds one gather slot per
/// flight.
void fly(std::span<Flight> flights, std::span<PendingCall*> open,
         ServiceAccessor& accessor, registry::Transaction* txn) {
  for (;;) {
    std::size_t n = 0;
    for (Flight& f : flights) {
      while (!f.finished && f.call.completed()) {
        settle_flight(f, accessor, txn);
      }
      if (!f.finished) open[n++] = &f.call;
    }
    if (n == 0) return;
    accessor.invoker()->pump_until_all(open.first(n));
  }
}

/// exert_all()'s flights and gather slots, kept per thread and per nesting
/// level: a provider that batches mid-call re-enters exert_all() on the
/// same stack, so each level takes a frame of its own. A frame keeps its
/// capacity across batches; releasing it destroys its flights, which drops
/// their exertion references (a requestor that reuses an exertion checks
/// that it is the sole holder).
class BatchFrame {
 public:
  explicit BatchFrame(std::size_t n) : slot_(acquire()) {
    slot_.flights.resize(n);
    slot_.open.resize(n);
  }
  ~BatchFrame() {
    slot_.flights.clear();
    --levels().depth;
  }
  BatchFrame(const BatchFrame&) = delete;
  BatchFrame& operator=(const BatchFrame&) = delete;

  std::span<Flight> flights() { return slot_.flights; }
  std::span<PendingCall*> open() { return slot_.open; }

 private:
  struct Slot {
    std::vector<Flight> flights;
    std::vector<PendingCall*> open;
  };
  struct Levels {
    std::deque<Slot> slots;  // deque: a new level never moves an outer one
    std::size_t depth = 0;
  };
  static Levels& levels() {
    thread_local Levels l;
    return l;
  }
  static Slot& acquire() {
    Levels& l = levels();
    if (l.depth == l.slots.size()) l.slots.emplace_back();
    return l.slots[l.depth++];
  }

  Slot& slot_;
};

/// Close a finished flight: count a failure, finish the span and return
/// the call shell to the invoker's pool (the outcome lives on the
/// exertion).
void land_flight(Flight& f, RemoteInvoker& invoker) {
  const bool failed = !f.transport.is_ok() ||
                      f.exertion->status() == ExertStatus::kFailed;
  if (failed) exert_metrics().failures.add(1);
  f.span.set_ok(!failed);
  f.span.finish();
  invoker.recycle(std::move(f.call));
}

}  // namespace

util::Result<ExertionPtr> exert(const ExertionPtr& exertion,
                                ServiceAccessor& accessor,
                                registry::Transaction* txn) {
  if (!exertion) {
    return util::Status{util::ErrorCode::kInvalidArgument, "null exertion"};
  }
  if (util::Status wired = require_invoker(accessor); !wired.is_ok()) {
    exertion->set_error(wired);
    return wired;
  }
  Flight flight;
  flight.exertion = exertion;
  start_flight(flight, accessor, txn);
  // The exertion's span stays the current context while its call is in
  // flight: work the pump runs on this stack links under it.
  obs::ContextGuard guard(flight.span.context());
  PendingCall* open[1] = {};
  fly({&flight, 1}, open, accessor, txn);
  land_flight(flight, *accessor.invoker());
  if (!flight.transport.is_ok()) return flight.transport;
  return exertion;
}

std::size_t exert_all(const std::vector<ExertionPtr>& batch,
                      ServiceAccessor& accessor, registry::Transaction* txn) {
  if (util::Status wired = require_invoker(accessor); !wired.is_ok()) {
    for (const auto& exertion : batch) {
      if (exertion) exertion->set_error(wired);
    }
    return 0;
  }
  BatchFrame frame(batch.size());
  std::span<Flight> flights = frame.flights();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    flights[i].exertion = batch[i];
    if (batch[i]) {
      start_flight(flights[i], accessor, txn);
    } else {
      flights[i].finished = true;
    }
  }
  fly(flights, frame.open(), accessor, txn);

  std::size_t routed = 0;
  for (Flight& f : flights) {
    if (!f.exertion) continue;
    if (f.attempts > 0) ++routed;
    land_flight(f, *accessor.invoker());
  }
  return routed;
}

}  // namespace sensorcer::sorcer
