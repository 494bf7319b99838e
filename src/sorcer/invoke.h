#pragma once
// The service-to-service invocation pipeline — the one way a requestor
// reaches a provider.
//
// Every exertion dispatch — exert()'s task binding, the Jobber's child
// dispatch, space workers, the CSP's direct fan-out, facade reads — funnels
// through the accessor's RemoteInvoker, and every call crosses the simnet
// fabric: the request is marshalled into a Message sized by the flat-codec
// encoding of the exertion's context, sent under TCP protocol headers with
// trace-context propagation, dispatched provider-side by ServiceProvider's
// network handler, and answered the same way. Loss, partitions, bandwidth
// shaping and per-call deadlines (kTimeout) all come from the fabric for
// free — once calls are messages, they can be observed, dropped, and
// re-routed. A provider with no live endpoint on the fabric (never attached,
// or detached after a crash) is unreachable like any dead address
// (kUnavailable); an accessor with no invoker cannot dispatch at all
// (kFailedPrecondition).
//
// The pipeline is asynchronous at its core: begin_invoke() scatters a
// request and hands back a PendingCall; pump_until_all() steps the
// scheduler once for every outstanding call, completing each as its
// response (or deadline) arrives. N overlapping round-trips therefore cost
// max(child latency), not the sum — fan-out concurrency lives in the
// messaging layer, not in threads. invoke() is the one-call degenerate
// case.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "registry/transaction.h"
#include "simnet/network.h"
#include "sorcer/codec.h"
#include "sorcer/exertion.h"
#include "sorcer/servicer.h"

namespace sensorcer::sorcer {

class ServiceAccessor;
class ServiceProvider;

/// How invoke_servicer() reaches a provider: request/response Messages over
/// the simnet fabric, the only transport there is.
enum class Transport { kWire };

/// Wire-protocol topics (application dispatch tags on Messages).
namespace wire {
inline constexpr const char* kRequestTopic = "invoke.request";
inline constexpr const char* kResponseTopic = "invoke.response";
inline constexpr const char* kPingTopic = "invoke.ping";
inline constexpr const char* kPongTopic = "invoke.pong";

/// Request envelope of the legacy string codec (call id + reply address +
/// signature), charged on top of encode_context_legacy()'s bytes — the
/// baseline the flat codec is measured against (bench_exertion's PERF-5
/// marshalling table).
inline constexpr std::size_t kRequestEnvelopeBytes = 64;
inline constexpr std::size_t kPingBytes = 16;

/// Envelope sizes for the flat binary codec (sorcer/codec.h): varint call
/// id + 16-byte reply uuid + interned signature id on the request, varint
/// call id + status code on the response.
inline constexpr std::size_t kFlatRequestEnvelopeBytes = 28;
inline constexpr std::size_t kFlatResponseEnvelopeBytes = 12;

/// Request body: the exertion rides by reference; `payload` is the
/// flat-codec encoding of its context (a pooled buffer — what the fabric's
/// payload_bytes charge is sized from). The provider decodes it into the
/// exertion's context before dispatch, which is the real marshalling work
/// a serialized transport would do.
struct Request {
  std::uint64_t call_id = 0;
  simnet::Address reply_to;
  ExertionPtr exertion;
  registry::Transaction* txn = nullptr;
  BufferPool::Handle payload;
  /// Loss recovery: the requestor failed to decode an earlier response
  /// (a definition-bearing message was dropped) — the provider must reset
  /// its response-intern table for reply_to before encoding.
  bool reset_reply_interning = false;
};

/// Response body. `transport_status` reports dispatch-layer failures only;
/// application failures travel inside the exertion itself. `payload` is the
/// flat-codec encoding of the post-dispatch context, decoded requestor-side
/// on gather.
struct Response {
  std::uint64_t call_id = 0;
  util::Status transport_status = util::Status::ok();
  BufferPool::Handle payload;
};
}  // namespace wire

struct InvokeConfig {
  /// Always kWire; kept so configs that name the transport still compile.
  Transport transport = Transport::kWire;
  /// Per-call deadline: how long (virtual time) a requestor pumps the fabric
  /// for a response before failing the call with kTimeout. Generous by
  /// default so a coordinated job's child round-trips fit inside the parent
  /// call; tests shrink it to observe deadline behaviour cheaply.
  util::SimDuration call_timeout = 2 * util::kSecond;
  /// Deadline for liveness pings (Rio monitor's provider health probes).
  util::SimDuration ping_timeout = 50 * util::kMillisecond;
};

/// One scattered invocation, owned by its issuer until gathered through
/// pump_until_all(). A call that never crossed the fabric — null input, an
/// unreachable target — is born completed with its result already in
/// place. Move-only: the invoker keeps only the call id in its pending set;
/// the handle is the sole completion slot.
class PendingCall {
 public:
  PendingCall() = default;
  PendingCall(PendingCall&&) noexcept = default;
  PendingCall& operator=(PendingCall&&) noexcept = default;
  PendingCall(const PendingCall&) = delete;
  PendingCall& operator=(const PendingCall&) = delete;

  [[nodiscard]] bool completed() const { return completed_; }
  /// The invocation outcome; valid only once completed().
  [[nodiscard]] util::Result<ExertionPtr>& result() { return *result_; }
  [[nodiscard]] const ExertionPtr& exertion() const { return exertion_; }
  /// Virtual-time deadline of the in-flight call (0 once born completed).
  [[nodiscard]] util::SimTime deadline() const { return deadline_; }

 private:
  friend class RemoteInvoker;

  std::uint64_t call_id_ = 0;  // 0 = never crossed the fabric
  util::SimTime started_ = 0;
  util::SimTime deadline_ = 0;
  util::SimDuration accrued_before_ = 0;
  util::SimDuration elapsed_ = 0;
  ExertionPtr exertion_;
  std::string target_name_;
  obs::Span span_;
  bool completed_ = false;
  std::optional<util::Result<ExertionPtr>> result_;
};

/// Client half of the pipeline ("requestor proxy" in SORCER terms — the
/// dynamically downloaded service stub). One per deployment; the accessor
/// hands it to every call site. It is single-threaded by design: the
/// issuer of a batch pumps the virtual-time scheduler until every response
/// lands, and nested dispatches (a provider invoking downstream providers
/// mid-call) pump the same scheduler recursively on the same stack, exactly
/// like the fabric's event loop unwinding in time order. Pumping from a
/// second thread is a bug and is guarded against.
class RemoteInvoker {
 public:
  RemoteInvoker(simnet::Network& net, InvokeConfig config = {});
  ~RemoteInvoker();

  RemoteInvoker(const RemoteInvoker&) = delete;
  RemoteInvoker& operator=(const RemoteInvoker&) = delete;

  /// Invoke `servicer->service(exertion, txn)` over the fabric. A target
  /// with no live endpoint on this invoker's fabric (not a ServiceProvider,
  /// never attached, attached elsewhere, or detached) fails the exertion
  /// with kUnavailable. On deadline expiry the exertion is failed with
  /// kTimeout and returned (at-most-once semantics: the provider may still
  /// have executed; a late response is dropped).
  util::Result<ExertionPtr> invoke(const std::shared_ptr<Servicer>& servicer,
                                   const ExertionPtr& exertion,
                                   registry::Transaction* txn);

  /// Scatter half of invoke(): issue the request and return without
  /// waiting. The handle completes synchronously when the request cannot be
  /// sent; otherwise gather it with pump_until_all(). Issuing N calls
  /// before gathering overlaps their round-trips on the fabric.
  PendingCall begin_invoke(const std::shared_ptr<Servicer>& servicer,
                           const ExertionPtr& exertion,
                           registry::Transaction* txn);

  /// Gather: step the scheduler once for *all* the given calls, completing
  /// each as its response lands or its deadline passes (timed-out ids leave
  /// the pending set, so their late responses are dropped and counted).
  /// Already-completed entries and nulls are skipped. Windows where the
  /// fabric has no event before the earliest deadline fast-forward straight
  /// to that deadline (invoke.idle_waits). Returns when every call is
  /// complete.
  void pump_until_all(std::span<PendingCall* const> calls);

  /// Liveness probe: round-trips a ping datagram to `target`. kTimeout when
  /// no pong arrives within the deadline (partitioned / detached / dead),
  /// kNotFound when the endpoint is not attached at all.
  util::Status ping(simnet::Address target, util::SimDuration timeout = 0);

  void set_call_timeout(util::SimDuration t) { config_.call_timeout = t; }
  [[nodiscard]] const InvokeConfig& config() const { return config_; }

  [[nodiscard]] simnet::Network& network() { return net_; }
  [[nodiscard]] simnet::Address address() const { return addr_; }

  /// Return a gathered call's shell for reuse: its string/span/result slots
  /// are cleared (capacity retained) and the next begin_invoke() recycles it
  /// instead of constructing fresh. Callers that batch (exert fan-out,
  /// invoke_servicer_all) recycle after harvesting outcomes.
  void recycle(PendingCall&& call);

  /// Per-peer codec state (intern tables + payload buffer pool); exposed so
  /// tests can observe intern warming and pool reuse.
  [[nodiscard]] const WireCodecState& codec_state() const { return codec_; }

 private:
  /// RAII nesting guard for scheduler pumping: nested frames on the pumping
  /// thread are legal (they ARE the event loop, recursing in time order);
  /// a pump from any other thread would interleave two event loops over one
  /// scheduler and is rejected.
  struct PumpGuard {
    explicit PumpGuard(RemoteInvoker& inv);
    ~PumpGuard();
    RemoteInvoker& inv;
  };
  friend struct PumpGuard;

  /// A response that landed but has not been gathered yet: the dispatch
  /// status, when it arrived (virtual time), its encoded context payload
  /// and the provider endpoint that sent it (selects the decode table).
  struct Arrival {
    util::Status status;
    util::SimTime at = 0;
    BufferPool::Handle payload;
    simnet::Address from;
  };

  /// Complete `call` from its arrived response (latency top-up from the
  /// response's arrival time, not the harvest time — an outer pump frame may
  /// gather it later; payload decoded into the exertion's context) or, when
  /// `arrival` is null, from deadline expiry.
  void finish_call(PendingCall& call, const Arrival* arrival);
  void on_message(const simnet::Message& msg);
  /// Pump the fabric until `call_id` completes or `deadline` passes.
  /// Returns true on completion.
  bool pump_until(std::uint64_t call_id, util::SimTime deadline);

  /// A recycled call shell, or a fresh one when the pool is dry.
  PendingCall acquire_call();

  simnet::Network& net_;
  InvokeConfig config_;
  simnet::Address addr_;
  std::uint64_t next_call_id_ = 1;
  std::unordered_set<std::uint64_t> pending_;
  std::unordered_map<std::uint64_t, Arrival> done_;
  WireCodecState codec_;
  // Providers whose response-intern stream we could not decode (a
  // definition-bearing response was lost): the next request to each carries
  // reset_reply_interning so the provider restarts its side.
  std::unordered_set<simnet::Address> reply_reset_;
  // invoke() may be entered from more than one OS thread over a run (readers
  // of one composite hand its collection from thread to thread), so the
  // recycling pool takes a mutex.
  std::mutex call_pool_mu_;
  std::vector<PendingCall> call_pool_;
  int pump_depth_ = 0;
  std::thread::id pump_thread_{};
};

/// kFailedPrecondition when `accessor` has no invoker wired — such an
/// accessor can reach no provider. Every dispatch entry point (exert,
/// exert_all, invoke_servicer, invoke_servicer_all) checks it first.
util::Status require_invoker(const ServiceAccessor& accessor);

/// The one call-site entry point: route `servicer->service(...)` through
/// `accessor`'s invoker. Without one, the exertion is failed with
/// kFailedPrecondition and that status is returned.
util::Result<ExertionPtr> invoke_servicer(
    ServiceAccessor& accessor, const std::shared_ptr<Servicer>& servicer,
    const ExertionPtr& exertion, registry::Transaction* txn);

/// Batch counterpart of invoke_servicer(): scatter every (servicer,
/// exertion) pair through begin_invoke() and gather them with one shared
/// pump, so their round-trips overlap on the fabric. Outcomes land on the
/// exertions themselves (kFailedPrecondition on each when the accessor has
/// no invoker).
void invoke_servicer_all(
    ServiceAccessor& accessor,
    const std::vector<std::pair<std::shared_ptr<Servicer>, ExertionPtr>>&
        calls,
    registry::Transaction* txn = nullptr);

}  // namespace sensorcer::sorcer
