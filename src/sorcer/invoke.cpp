#include "sorcer/invoke.h"

#include <any>
#include <cassert>

#include "obs/metrics.h"
#include "sorcer/provider.h"
#include "util/strings.h"

namespace sensorcer::sorcer {

namespace {

struct InvokeMetrics {
  obs::Counter& calls;
  obs::Counter& wire_calls;
  obs::Counter& timeouts;
  obs::Counter& late_responses;
  obs::Counter& pings;
  obs::Counter& ping_failures;
  obs::Counter& idle_waits;
  obs::Counter& overlap_saved_ns;
  obs::Gauge& outstanding;
  obs::Histogram& rtt_us;
};

InvokeMetrics& invoke_metrics() {
  static InvokeMetrics m{obs::metrics().counter("invoke.calls"),
                         obs::metrics().counter("invoke.wire_calls"),
                         obs::metrics().counter("invoke.timeouts"),
                         obs::metrics().counter("invoke.late_responses"),
                         obs::metrics().counter("invoke.pings"),
                         obs::metrics().counter("invoke.ping_failures"),
                         obs::metrics().counter("invoke.idle_waits"),
                         obs::metrics().counter("invoke.overlap_saved_ns"),
                         obs::metrics().gauge("invoke.outstanding"),
                         obs::metrics().histogram("invoke.rtt_us")};
  return m;
}

}  // namespace

RemoteInvoker::PumpGuard::PumpGuard(RemoteInvoker& invoker) : inv(invoker) {
  if (inv.pump_depth_ == 0) {
    inv.pump_thread_ = std::this_thread::get_id();
  } else {
    // Only the thread that owns the outermost pump may step the scheduler:
    // nested frames are the event loop recursing in time order, but a pump
    // from a second thread would interleave two event loops over one
    // scheduler and corrupt virtual time.
    assert(inv.pump_thread_ == std::this_thread::get_id() &&
           "nested scheduler pump from a different thread");
  }
  ++inv.pump_depth_;
}

RemoteInvoker::PumpGuard::~PumpGuard() {
  if (--inv.pump_depth_ == 0) inv.pump_thread_ = {};
}

RemoteInvoker::RemoteInvoker(simnet::Network& net, InvokeConfig config)
    : net_(net), config_(config), addr_(util::new_uuid()) {
  net_.attach(addr_, [this](simnet::Message& msg) { on_message(msg); });
}

RemoteInvoker::~RemoteInvoker() { net_.detach(addr_); }

std::uint64_t RemoteInvoker::open_call(ServiceContext* reply_into) {
  std::uint32_t index = 0;
  if (free_calls_.empty()) {
    index = static_cast<std::uint32_t>(calls_.size());
    calls_.emplace_back();
  } else {
    index = free_calls_.back();
    free_calls_.pop_back();
  }
  CallSlot& slot = calls_[index];
  slot.call_id = (next_serial_++ << 32) | index;
  slot.landed = false;
  slot.reply_into = reply_into;
  ++awaiting_;
  invoke_metrics().outstanding.set(static_cast<double>(awaiting_));
  return slot.call_id;
}

RemoteInvoker::CallSlot* RemoteInvoker::find_call(std::uint64_t call_id) {
  const auto index = static_cast<std::uint32_t>(call_id);
  if (call_id == 0 || index >= calls_.size() ||
      calls_[index].call_id != call_id) {
    return nullptr;
  }
  return &calls_[index];
}

void RemoteInvoker::close_call(std::uint64_t call_id) {
  CallSlot* slot = find_call(call_id);
  if (slot == nullptr) return;
  if (!slot->landed) {
    --awaiting_;
    invoke_metrics().outstanding.set(static_cast<double>(awaiting_));
  }
  slot->call_id = 0;
  slot->reply_into = nullptr;
  free_calls_.push_back(static_cast<std::uint32_t>(call_id));
}

void RemoteInvoker::on_message(simnet::Message& msg) {
  if (msg.topic != wire::kResponseTopic && msg.topic != wire::kPongTopic) {
    return;
  }
  auto* rsp = std::any_cast<wire::Response>(&msg.body);
  if (rsp == nullptr) return;
  CallSlot* slot = find_call(rsp->call_id);
  if (slot == nullptr || slot->landed) {
    // The call already timed out and gave up on this id.
    invoke_metrics().late_responses.add(1);
    codec_.buffers.release(std::move(rsp->payload));
    return;
  }
  slot->landed = true;
  --awaiting_;
  invoke_metrics().outstanding.set(static_cast<double>(awaiting_));
  util::Status status = std::move(rsp->transport_status);
  if (status.code() == util::ErrorCode::kCodecDesync) {
    // The provider lost our request-intern stream (the message that
    // carried its definitions was dropped): restart the stream so the
    // retry re-defines every path inline.
    codec_.encode[msg.source].reset();
  }
  if (status.is_ok() && slot->reply_into != nullptr &&
      !rsp->payload.empty()) {
    // Merge the provider's outputs back into the issuing context — the
    // requestor-side half of the real codec work the payload_bytes charge
    // was sized from. Inputs the reply omits stay as they are. The source
    // address selects the per-provider decode intern table.
    MarshalTimer timer;
    status = decode_context(rsp->payload.data(), rsp->payload.size(),
                            codec_.decode[msg.source], *slot->reply_into,
                            Leg::kReply);
    if (status.code() == util::ErrorCode::kCodecDesync) {
      // Our side of the response stream is broken; the next request tells
      // the provider to restart it.
      reply_reset_.insert(msg.source);
    }
  }
  codec_.buffers.release(std::move(rsp->payload));
  // Stamp the arrival time: an outer pump frame may gather this response
  // later in virtual time, and the call's RTT must not include that gap.
  slot->arrival.status = std::move(status);
  slot->arrival.at = net_.scheduler().now();
}

bool RemoteInvoker::pump_until(std::uint64_t call_id, util::SimTime deadline) {
  PumpGuard guard(*this);
  util::Scheduler& sched = net_.scheduler();
  const auto landed = [this, call_id] {
    const CallSlot* slot = find_call(call_id);
    return slot != nullptr && slot->landed;
  };
  // Step event-by-event so the clock never overshoots the deadline while a
  // response is still in flight. Nested calls (a provider invoking
  // downstream mid-dispatch) pump the same scheduler recursively; the call
  // table is re-checked after every step because a nested pump may have
  // landed this call already.
  while (!landed() && sched.now() < deadline) {
    const util::SimTime next = sched.next_event_time();
    if (next > deadline) {
      // Nothing on the fabric can complete this call in time; fast-forward
      // the idle window so the blocking wait is visible on the virtual
      // clock without stepping through unrelated far-future events.
      invoke_metrics().idle_waits.add(1);
      sched.run_until(deadline);
      break;
    }
    sched.run_until(next);
  }
  return landed();
}

util::Result<ExertionPtr> RemoteInvoker::invoke(
    const std::shared_ptr<Servicer>& servicer, const ExertionPtr& exertion,
    registry::Transaction* txn) {
  PendingCall call = begin_invoke(servicer, exertion, txn);
  if (!call.completed()) {
    PendingCall* calls[] = {&call};
    pump_until_all(calls);
  }
  util::Result<ExertionPtr> result = std::move(call.result());
  recycle(std::move(call));
  return result;
}

PendingCall RemoteInvoker::acquire_call() {
  const std::lock_guard<std::mutex> lock(call_pool_mu_);
  if (call_pool_.empty()) return {};
  PendingCall call = std::move(call_pool_.back());
  call_pool_.pop_back();
  return call;
}

void RemoteInvoker::recycle(PendingCall&& call) {
  const std::lock_guard<std::mutex> lock(call_pool_mu_);
  if (!call.completed_ || call_pool_.size() >= 64) return;
  call.call_id_ = 0;
  call.started_ = 0;
  call.deadline_ = 0;
  call.accrued_before_ = 0;
  call.elapsed_ = 0;
  call.exertion_.reset();
  call.target_name_.clear();  // capacity retained
  call.span_ = obs::Span{};
  call.completed_ = false;
  call.result_.reset();
  call_pool_.push_back(std::move(call));
}

PendingCall RemoteInvoker::begin_invoke(
    const std::shared_ptr<Servicer>& servicer, const ExertionPtr& exertion,
    registry::Transaction* txn) {
  PendingCall call = acquire_call();
  call.exertion_ = exertion;
  if (!servicer || !exertion) {
    call.completed_ = true;
    call.result_.emplace(util::Status{util::ErrorCode::kInvalidArgument,
                                      "null servicer or exertion"});
    return call;
  }
  invoke_metrics().calls.add(1);
  auto* provider = dynamic_cast<ServiceProvider*>(servicer.get());
  if (provider == nullptr || provider->network() != &net_ ||
      !net_.is_attached(provider->network_address())) {
    // No live endpoint on this fabric — never attached, attached elsewhere,
    // or detached after a crash: unreachable, like any dead address.
    exertion->set_error(
        {util::ErrorCode::kUnavailable,
         util::format("'%s' has no live endpoint on the fabric",
                      provider != nullptr ? provider->provider_name().c_str()
                                          : "servicer")});
    call.completed_ = true;
    call.result_.emplace(util::Result<ExertionPtr>(exertion));
    return call;
  }

  invoke_metrics().wire_calls.add(1);
  util::Scheduler& sched = net_.scheduler();

  obs::TraceContext parent = exertion->trace_context().valid()
                                 ? exertion->trace_context()
                                 : obs::current_context();
  call.span_ = obs::tracer().start_span(
      "rpc:" + exertion->name() + "->" + provider->provider_name(), parent);
  // The request must be stamped with the rpc span's context so the
  // provider-side dispatch span links under it.
  obs::ContextGuard guard(call.span_.context());

  call.started_ = sched.now();
  call.deadline_ = call.started_ + config_.call_timeout;
  call.accrued_before_ = exertion->latency();
  call.target_name_ = provider->provider_name();

  // Marshal the request context through the flat codec into a pooled
  // buffer. The fabric charges the encoding's actual size (paths collapse to
  // interned ids once this destination's table is warm), and the provider
  // decodes the buffer back into the exertion before dispatch.
  WireBuffer payload = codec_.buffers.acquire();
  {
    MarshalTimer timer;
    encode_context(exertion->context(),
                   codec_.encode[provider->network_address()], payload);
  }

  simnet::Message req;
  req.source = addr_;
  req.destination = provider->network_address();
  req.topic = wire::kRequestTopic;
  req.payload_bytes = payload.size() + wire::kFlatRequestEnvelopeBytes;
  call.call_id_ = open_call(&exertion->context());
  wire::Request body{call.call_id_, addr_, exertion, txn, std::move(payload)};
  // Re-armed on every failed decode, so a lost flagged request just means
  // the next retry carries the flag again.
  body.reset_reply_interning =
      reply_reset_.erase(provider->network_address()) > 0;
  req.body = std::move(body);
  req.protocol = simnet::Protocol::kTcp;

  if (util::Status sent = net_.send(std::move(req)); !sent.is_ok()) {
    close_call(call.call_id_);
    call.span_.set_ok(false);
    call.span_.finish();
    exertion->set_error({util::ErrorCode::kUnavailable,
                         util::format("endpoint of '%s' unreachable: %s",
                                      provider->provider_name().c_str(),
                                      sent.message().c_str())});
    call.call_id_ = 0;
    call.completed_ = true;
    call.result_.emplace(util::Result<ExertionPtr>(exertion));
    return call;
  }
  return call;
}

void RemoteInvoker::finish_call(PendingCall& call, const Arrival* arrival) {
  if (arrival != nullptr) {
    // The round trip advanced the virtual clock by the real wire delays
    // plus the provider's modeled service time; top the exertion's latency
    // account up to what the requestor actually waited, so latency reflects
    // transport cost too (never less than the provider's modeled figure).
    call.elapsed_ = arrival->at - call.started_;
    const util::SimDuration accrued =
        call.exertion_->latency() - call.accrued_before_;
    if (call.elapsed_ > accrued) {
      call.exertion_->add_latency(call.elapsed_ - accrued);
    }
    invoke_metrics().rtt_us.observe(static_cast<double>(call.elapsed_));
    const util::Status& transport_status = arrival->status;
    if (!transport_status.is_ok()) {
      call.span_.set_ok(false);
      // Mark the exertion too: the retry/substitution machinery keys off
      // the task's error code, not just the call result.
      call.exertion_->set_error(transport_status);
      call.result_.emplace(transport_status);
    } else {
      call.span_.set_ok(call.exertion_->status() != ExertStatus::kFailed);
      call.result_.emplace(util::Result<ExertionPtr>(call.exertion_));
    }
  } else {
    // Deadline expired: close the call's row so a late response is dropped
    // and counted. At-most-once from the requestor's view — the request (or
    // its response) was lost to the fabric; the provider may still have
    // executed.
    close_call(call.call_id_);
    invoke_metrics().timeouts.add(1);
    call.span_.set_ok(false);
    call.exertion_->set_error(
        {util::ErrorCode::kTimeout,
         util::format(
             "no response from '%s' within %s", call.target_name_.c_str(),
             util::format_duration(config_.call_timeout).c_str())});
    call.result_.emplace(util::Result<ExertionPtr>(call.exertion_));
  }
  call.span_.finish();
  call.completed_ = true;
}

void RemoteInvoker::pump_until_all(std::span<PendingCall* const> calls) {
  PumpGuard guard(*this);
  util::Scheduler& sched = net_.scheduler();
  const util::SimTime pump_started = sched.now();
  util::SimDuration gathered_rtt = 0;
  std::size_t gathered = 0;

  for (;;) {
    // Harvest pass: complete everything whose response has landed or whose
    // deadline has passed, then find the earliest deadline still open.
    bool any_open = false;
    util::SimTime earliest = util::kNever;
    for (PendingCall* call : calls) {
      if (call == nullptr || call->completed_) continue;
      if (CallSlot* slot = find_call(call->call_id_);
          slot != nullptr && slot->landed) {
        Arrival arrival = std::move(slot->arrival);
        close_call(call->call_id_);
        finish_call(*call, &arrival);
        gathered_rtt += call->elapsed_;
        ++gathered;
        continue;
      }
      if (sched.now() >= call->deadline_) {
        finish_call(*call, nullptr);
        ++gathered;
        continue;
      }
      any_open = true;
      earliest = std::min(earliest, call->deadline_);
    }
    if (!any_open) break;

    // One scheduler step serves every outstanding call at once — this is
    // where N round-trips overlap instead of serializing. When the fabric
    // has no event before the earliest open deadline, fast-forward straight
    // to it instead of busy-stepping unrelated far-future events.
    const util::SimTime next = sched.next_event_time();
    if (next > earliest) {
      invoke_metrics().idle_waits.add(1);
      sched.run_until(earliest);
    } else {
      sched.run_until(next);
    }
  }

  // Overlap accounting: the sum of the gathered RTTs is what these calls
  // would have cost serialized; the batch actually advanced the clock by
  // the pump window. The difference is fabric concurrency won.
  if (gathered > 1) {
    const util::SimDuration batch_window = sched.now() - pump_started;
    if (gathered_rtt > batch_window) {
      invoke_metrics().overlap_saved_ns.add(
          static_cast<std::uint64_t>(gathered_rtt - batch_window) * 1000u);
    }
  }
}

util::Status RemoteInvoker::ping(simnet::Address target,
                                 util::SimDuration timeout) {
  invoke_metrics().pings.add(1);
  util::Scheduler& sched = net_.scheduler();
  const std::uint64_t call_id = open_call(nullptr);

  simnet::Message msg;
  msg.source = addr_;
  msg.destination = target;
  msg.topic = wire::kPingTopic;
  wire::Request ping;
  ping.call_id = call_id;
  ping.reply_to = addr_;
  msg.body = std::move(ping);
  msg.payload_bytes = wire::kPingBytes;
  msg.protocol = simnet::Protocol::kUdp;

  if (util::Status sent = net_.send(std::move(msg)); !sent.is_ok()) {
    close_call(call_id);
    invoke_metrics().ping_failures.add(1);
    return sent;
  }
  const util::SimDuration budget =
      timeout > 0 ? timeout : config_.ping_timeout;
  const bool ponged = pump_until(call_id, sched.now() + budget);
  close_call(call_id);
  if (!ponged) {
    invoke_metrics().ping_failures.add(1);
    return {util::ErrorCode::kTimeout,
            "no pong from " + target.to_string() + " within " +
                util::format_duration(budget)};
  }
  return util::Status::ok();
}

}  // namespace sensorcer::sorcer
