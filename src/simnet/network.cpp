#include "simnet/network.h"

#include <algorithm>

namespace sensorcer::simnet {

namespace {

const char* protocol_counter_name(Protocol p) {
  switch (p) {
    case Protocol::kUdp: return "simnet.wire_bytes.udp";
    case Protocol::kTcp: return "simnet.wire_bytes.tcp";
    case Protocol::kTcpSession: return "simnet.wire_bytes.tcp_session";
    case Protocol::kMulticast: return "simnet.wire_bytes.multicast";
  }
  return "simnet.wire_bytes.udp";
}

}  // namespace

Network::Network(util::Scheduler& scheduler, std::uint64_t seed)
    : scheduler_(scheduler),
      rng_(seed),
      messages_sent_(metrics_.counter("simnet.messages_sent")),
      messages_received_(metrics_.counter("simnet.messages_received")),
      messages_dropped_(metrics_.counter("simnet.messages_dropped")),
      payload_bytes_sent_(metrics_.counter("simnet.payload_bytes_sent")),
      header_bytes_sent_(metrics_.counter("simnet.header_bytes_sent")),
      trace_bytes_sent_(metrics_.counter("simnet.trace_bytes_sent")) {
  for (Protocol p : {Protocol::kUdp, Protocol::kTcp, Protocol::kTcpSession,
                     Protocol::kMulticast}) {
    wire_bytes_by_protocol_[static_cast<int>(p)] =
        &metrics_.counter(protocol_counter_name(p));
  }
}

void Network::attach(Address addr, Handler handler) {
  endpoints_[addr] = std::move(handler);
  stats_.try_emplace(addr);
}

void Network::detach(Address addr) {
  endpoints_.erase(addr);
  for (auto& [group, members] : groups_) members.erase(addr);
}

void Network::join_group(Address group, Address member) {
  groups_[group].insert(member);
}

void Network::leave_group(Address group, Address member) {
  auto it = groups_.find(group);
  if (it != groups_.end()) it->second.erase(member);
}

void Network::partition(Address a, Address b) {
  if (!is_partitioned(a, b)) partitions_.emplace_back(a, b);
}

void Network::heal(Address a, Address b) {
  std::erase_if(partitions_, [&](const auto& p) {
    return (p.first == a && p.second == b) || (p.first == b && p.second == a);
  });
}

bool Network::is_partitioned(Address a, Address b) const {
  return std::any_of(partitions_.begin(), partitions_.end(), [&](const auto& p) {
    return (p.first == a && p.second == b) || (p.first == b && p.second == a);
  });
}

util::Status Network::send(Message msg) {
  if (!endpoints_.contains(msg.destination)) {
    return {util::ErrorCode::kNotFound, "destination not attached"};
  }
  if (!msg.trace.valid()) msg.trace = obs::current_context();
  charge_and_schedule(std::move(msg));
  return util::Status::ok();
}

void Network::send_after(util::SimDuration delay, Message msg) {
  if (!msg.trace.valid()) msg.trace = obs::current_context();
  const std::uint32_t slot = park(std::move(msg));
  scheduler_.schedule_after(delay,
                            [this, slot] { (void)send(unpark(slot)); });
}

std::size_t Network::multicast(Address group, Message msg) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return 0;
  // Snapshot members: handlers may mutate group membership during delivery.
  const std::vector<Address> members(it->second.begin(), it->second.end());
  std::size_t scheduled = 0;
  msg.protocol = Protocol::kMulticast;
  if (!msg.trace.valid()) msg.trace = obs::current_context();
  for (Address member : members) {
    if (member == msg.source) continue;
    if (!endpoints_.contains(member)) continue;
    Message copy = msg;
    copy.destination = member;
    charge_and_schedule(std::move(copy));
    ++scheduled;
  }
  return scheduled;
}

void Network::charge(TrafficStats& endpoint, Protocol protocol,
                     std::size_t payload_bytes, bool traced) {
  std::size_t headers = packet_count(payload_bytes) * header_bytes(protocol);
  if (traced) {
    headers += obs::TraceContext::kWireBytes;
    trace_bytes_sent_.add(obs::TraceContext::kWireBytes);
  }
  endpoint.messages_sent += 1;
  endpoint.payload_bytes_sent += payload_bytes;
  endpoint.header_bytes_sent += headers;
  messages_sent_.add(1);
  payload_bytes_sent_.add(payload_bytes);
  header_bytes_sent_.add(headers);
  wire_bytes_by_protocol_[static_cast<int>(protocol)]->add(payload_bytes +
                                                           headers);
}

void Network::account_rpc(Address source, Address callee,
                          std::size_t request_bytes,
                          std::size_t response_bytes, Protocol p) {
  const bool traced = obs::current_context().valid();
  std::lock_guard lock(account_mu_);
  charge(stats_[source], p, request_bytes, traced);
  charge(stats_[callee], p, response_bytes, traced);
}

void Network::charge_and_schedule(Message msg) {
  charge(stats_[msg.source], msg.protocol, msg.payload_bytes,
         msg.trace.valid());

  if (is_partitioned(msg.source, msg.destination) ||
      rng_.chance(loss_rate_)) {
    stats_[msg.source].messages_dropped += 1;
    messages_dropped_.add(1);
    return;
  }

  const util::SimDuration delay =
      delivery_delay(msg.protocol, msg.payload_bytes);
  const std::uint32_t slot = park(std::move(msg));
  scheduler_.schedule_after(delay, [this, slot] { deliver(slot); });
}

std::uint32_t Network::park(Message msg) {
  if (free_slots_.empty()) {
    in_flight_.push_back(std::move(msg));
    return static_cast<std::uint32_t>(in_flight_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  in_flight_[slot] = std::move(msg);
  return slot;
}

Message Network::unpark(std::uint32_t slot) {
  Message msg = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  return msg;
}

void Network::deliver(std::uint32_t slot) {
  // Unpark before dispatch: the handler may send (reusing this slot or
  // growing the slab), so it gets its own message, not a slab reference.
  Message msg = unpark(slot);
  auto it = endpoints_.find(msg.destination);
  if (it == endpoints_.end()) return;  // detached while in flight
  stats_[msg.destination].messages_received += 1;
  messages_received_.add(1);
  if (msg.trace.valid()) {
    // The receive side continues the sender's trace: the handler runs
    // under a hop span so anything it triggers links back to the request.
    obs::Span span =
        obs::tracer().start_span("net.recv:" + msg.topic, msg.trace);
    obs::ContextGuard guard(span.context());
    it->second(msg);
  } else {
    it->second(msg);
  }
}

util::SimDuration Network::delivery_delay(Protocol p,
                                          std::size_t payload_bytes) const {
  if (bandwidth_ == 0) return latency_;
  const auto serialization = static_cast<util::SimDuration>(
      static_cast<double>(wire_bytes(p, payload_bytes)) /
      static_cast<double>(bandwidth_) * util::kSecond);
  return latency_ + serialization;
}

const TrafficStats& Network::stats_for(Address addr) const {
  static const TrafficStats kEmpty{};
  auto it = stats_.find(addr);
  return it == stats_.end() ? kEmpty : it->second;
}

TrafficStats Network::totals() const {
  TrafficStats out;
  out.messages_sent = messages_sent_.value();
  out.messages_received = messages_received_.value();
  out.messages_dropped = messages_dropped_.value();
  out.payload_bytes_sent = payload_bytes_sent_.value();
  out.header_bytes_sent = header_bytes_sent_.value();
  return out;
}

void Network::reset_stats() {
  for (auto& [addr, s] : stats_) s = TrafficStats{};
  metrics_.reset();
}

}  // namespace sensorcer::simnet
