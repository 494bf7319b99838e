#include "sorcer/provider.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sorcer/codec.h"
#include "sorcer/invoke.h"
#include "util/strings.h"

namespace sensorcer::sorcer {

namespace {

struct TaskMetrics {
  obs::Counter& invocations;
  obs::Counter& failures;
  obs::Histogram& latency;
};

TaskMetrics& task_metrics() {
  static TaskMetrics m{obs::metrics().counter("sorcer.task.invocations"),
                       obs::metrics().counter("sorcer.task.failures"),
                       obs::metrics().histogram("sorcer.task.latency_us")};
  return m;
}

/// The hop span that delivered the request this thread is dispatching:
/// handle_network_message sets it around service() when the request
/// carried a trace, and ServiceProvider::service takes it on entry, so a
/// call that service() makes itself does not inherit it.
thread_local obs::TraceContext t_delivering_hop{};

}  // namespace

ServiceProvider::ServiceProvider(std::string name,
                                 std::vector<std::string> types)
    : name_(std::move(name)), id_(util::new_uuid()), types_(std::move(types)) {
  if (std::find(types_.begin(), types_.end(), type::kServicer) ==
      types_.end()) {
    types_.push_back(type::kServicer);
  }
}

ServiceProvider::~ServiceProvider() {
  // Registrations are leased: if the owner forgot to leave(), the lookup
  // services will dispose of us when the lease lapses. Cancel renewal timers
  // so they do not fire into a destroyed object.
  for (auto& j : joined_) {
    if (j.lrm != nullptr) j.lrm->release(j.lease_id);
  }
  // The endpoint handler captures `this`; take it off the fabric so pending
  // deliveries are dropped instead of dispatched into a destroyed provider.
  if (net_ != nullptr) net_->detach(net_addr_);
}

void ServiceProvider::add_operation(const std::string& selector, Operation op,
                                    util::SimDuration service_time) {
  operations_[selector] = OpRecord{std::move(op), service_time};
}

void ServiceProvider::set_attributes(registry::Entry attributes) {
  attributes_ = std::move(attributes);
}

void ServiceProvider::attach_network(simnet::Network& net) {
  if (net_ != nullptr) net_->detach(net_addr_);
  net_ = &net;
  if (net_addr_.is_nil()) net_addr_ = util::new_uuid();
  if (!codec_) codec_ = std::make_unique<WireCodecState>();
  net.attach(net_addr_,
             [this](simnet::Message& msg) { handle_network_message(msg); });
}

void ServiceProvider::handle_network_message(simnet::Message& msg) {
  if (net_ == nullptr) return;

  if (msg.topic == wire::kPingTopic) {
    const auto* ping = msg.body.get_if<wire::Request>();
    if (ping == nullptr) return;
    simnet::Message pong;
    pong.source = net_addr_;
    pong.destination = ping->reply_to;
    pong.topic = wire::kPongTopic;
    wire::Response body;
    body.call_id = ping->call_id;
    pong.body = std::move(body);
    pong.payload_bytes = wire::kPingBytes;
    pong.protocol = simnet::Protocol::kUdp;
    (void)net_->send(std::move(pong));
    return;
  }

  if (msg.topic != wire::kRequestTopic) return;
  auto* req = msg.body.get_if<wire::Request>();
  if (req == nullptr || !req->exertion) return;

  if (req->reset_reply_interning) {
    // The requestor could not decode an earlier response (a definition
    // message was lost): restart the response-intern stream so this reply
    // re-defines every path inline.
    codec_->encode[req->reply_to].reset();
  }

  util::Scheduler& sched = net_->scheduler();
  const util::SimTime started = sched.now();
  const util::SimDuration accrued_before = req->exertion->latency();

  // Unmarshal the request context from its flat encoding before dispatch —
  // the provider-side half of the codec work the request's payload_bytes
  // charge was sized from. A malformed payload is a transport failure: the
  // operation never runs and the requestor sees the decode status.
  if (!req->payload.empty()) {
    MarshalTimer timer;
    util::Status decoded = decode_context(
        req->payload.data(), req->payload.size(), codec_->decode[msg.source],
        req->exertion->context());
    // The request buffer is ours now; it comes back out of the pool as
    // this call's response buffer.
    codec_->buffers.release(std::move(req->payload));
    if (!decoded.is_ok()) {
      simnet::Message err;
      err.source = net_addr_;
      err.destination = req->reply_to;
      err.topic = wire::kResponseTopic;
      wire::Response body;
      body.call_id = req->call_id;
      body.transport_status = std::move(decoded);
      err.body = std::move(body);
      err.payload_bytes = wire::kFlatResponseEnvelopeBytes;
      err.protocol = simnet::Protocol::kTcp;
      err.trace = obs::current_context();
      (void)net_->send(std::move(err));
      return;
    }
  }

  // A traced request is delivered under its `net.recv:` hop span, which is
  // the current context here; the provider's work nests under that hop.
  const obs::TraceContext outer_hop = std::exchange(
      t_delivering_hop,
      msg.trace.valid() ? obs::current_context() : obs::TraceContext{});
  auto result = service(req->exertion, req->txn);
  t_delivering_hop = outer_hop;

  // Marshal the post-dispatch outputs into a pooled buffer; the requestor
  // merges them into its context on gather (it still holds the inputs, so
  // they are not echoed). The response's intern table is keyed by the
  // requestor endpoint, so repeated calls from one peer shrink to ids.
  WireBuffer payload = codec_->buffers.acquire();
  {
    MarshalTimer timer;
    encode_context(req->exertion->context(), codec_->encode[req->reply_to],
                   payload, Leg::kReply);
  }

  simnet::Message rsp;
  rsp.source = net_addr_;
  rsp.destination = req->reply_to;
  rsp.topic = wire::kResponseTopic;
  rsp.payload_bytes = payload.size() + wire::kFlatResponseEnvelopeBytes;
  rsp.body = wire::Response{
      req->call_id, result.is_ok() ? util::Status::ok() : result.status(),
      std::move(payload)};
  rsp.protocol = simnet::Protocol::kTcp;

  // The exertion's latency account says how long the dispatch *should* have
  // taken; nested wire hops already advanced the virtual clock by some of
  // that. Hold the response back for the remainder so the requestor
  // observes the modeled service time end to end. The fabric parks a
  // deferred response itself, so the provider may be gone by send time.
  const util::SimDuration modeled = req->exertion->latency() - accrued_before;
  const util::SimDuration elapsed = sched.now() - started;
  const util::SimDuration defer = modeled > elapsed ? modeled - elapsed : 0;
  if (defer > 0) {
    net_->send_after(defer, std::move(rsp));
  } else {
    (void)net_->send(std::move(rsp));
  }
}

registry::ServiceItem ServiceProvider::service_item() {
  registry::ServiceItem item;
  item.id = id_;
  item.proxy = shared_from_this();
  item.types = types_;
  item.attributes = attributes_;
  item.attributes.set(registry::attr::kName, name_);
  return item;
}

util::Status ServiceProvider::join(
    const std::shared_ptr<registry::LookupService>& lus,
    registry::LeaseRenewalManager& lrm, util::SimDuration lease_duration) {
  if (!lus) {
    return {util::ErrorCode::kInvalidArgument, "null lookup service"};
  }
  auto registration = lus->register_service(service_item(), lease_duration);
  lrm.manage(registration.lease, lus, lease_duration);
  joined_.push_back(Joined{lus, &lrm, registration.lease.id});
  return util::Status::ok();
}

void ServiceProvider::leave() {
  for (auto& j : joined_) {
    if (j.lrm != nullptr) j.lrm->cancel(j.lease_id);
  }
  joined_.clear();
}

void ServiceProvider::crash() {
  for (auto& j : joined_) {
    if (j.lrm != nullptr) j.lrm->release(j.lease_id);
  }
  joined_.clear();
  if (!crashed_) {
    crashed_ = true;
    on_crashed();
  }
}

util::Result<ExertionPtr> ServiceProvider::service(
    ExertionPtr exertion, registry::Transaction* /*txn*/) {
  const obs::TraceContext hop = std::exchange(t_delivering_hop, {});
  if (!exertion) {
    return util::Status{util::ErrorCode::kInvalidArgument, "null exertion"};
  }
  if (exertion->kind() != Exertion::Kind::kTask) {
    exertion->set_error({util::ErrorCode::kInvalidArgument,
                         "task peer cannot coordinate a job; exert it via a "
                         "rendezvous peer (Jobber/Spacer)"});
    return exertion;
  }
  auto task = std::static_pointer_cast<Task>(exertion);
  const Signature& sig = task->signature();

  if (std::find(types_.begin(), types_.end(), sig.service_type) ==
      types_.end()) {
    task->set_error({util::ErrorCode::kInvalidArgument,
                     util::format("provider '%s' does not export type '%s'",
                                  name_.c_str(), sig.service_type.c_str())});
    return exertion;
  }
  auto op = operations_.find(sig.selector);
  if (op == operations_.end()) {
    task->set_error({util::ErrorCode::kNotFound,
                     util::format("provider '%s' has no operation '%s'",
                                  name_.c_str(), sig.selector.c_str())});
    return exertion;
  }

  std::lock_guard lock(mu_);
  // Invocation span: parented on the hop that delivered the request, so the
  // provider's work nests under the requestor's `rpc:` span. A request that
  // carried no trace falls back to the exertion's context (stamped by
  // exert()). The hop is not written into the exertion: that object is
  // still the requestor's.
  obs::TraceContext parent = hop;
  if (!parent.valid()) {
    parent = task->trace_context().valid() ? task->trace_context()
                                           : obs::current_context();
  }
  obs::Span span =
      obs::tracer().start_span({"invoke:", name_, "#", sig.selector}, parent);
  obs::ContextGuard trace_guard(span.context());
  task->set_status(ExertStatus::kRunning);
  // Byte accounting lives in the invocation pipeline (sorcer/invoke.*):
  // the fabric charges the real request/response messages.
  util::Status result = op->second.fn(task->context());
  const util::SimDuration modeled =
      op->second.service_time + extra_invocation_latency(sig.selector);
  task->add_latency(modeled);
  task->add_trace(name_);
  ++invocations_;
  task_metrics().invocations.add(1);
  task_metrics().latency.observe(static_cast<double>(modeled));
  if (result.is_ok()) {
    task->set_status(ExertStatus::kDone);
  } else {
    task_metrics().failures.add(1);
    span.set_ok(false);
    task->set_error(std::move(result));
  }
  return exertion;
}

Tasker::Tasker(std::string name, std::vector<std::string> extra_types)
    : ServiceProvider(std::move(name), [&extra_types] {
        std::vector<std::string> types{type::kTasker};
        for (auto& t : extra_types) types.push_back(std::move(t));
        return types;
      }()) {}

}  // namespace sensorcer::sorcer
