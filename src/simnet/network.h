#pragma once
// Byte-accounted simulated network fabric.
//
// Replaces the paper's LAN + Jini multicast transport. Endpoints register a
// handler keyed by a 128-bit address; messages are delivered through the
// virtual-time Scheduler after a configurable latency, with optional loss
// and partitions. Every delivery is charged protocol-accurate header bytes
// (see protocol.h), giving the header-overhead and data-flow-reversal
// benches their measurements.
//
// A message moves from sender to receiver and is never copied on the way
// (multicast copies once per member). While in flight it is parked in a
// slab the fabric owns and reuses; the scheduled delivery captures only the
// slot index, so a warm untraced send + deliver allocates nothing here.

#include <any>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simnet/protocol.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "util/status.h"

namespace sensorcer::simnet {

using Address = util::Uuid;

/// An application message. `payload_bytes` is the modeled serialized size
/// (the in-process `body` is carried by reference and costs nothing).
struct Message {
  Address source;
  Address destination;          // or group address for multicast
  std::string topic;            // application dispatch tag, e.g. "lus.announce"
  std::any body;                // in-process payload
  std::size_t payload_bytes = 0;
  Protocol protocol = Protocol::kUdp;
  /// Trace propagation header. Stamped from the sender's current trace
  /// context when unset; when valid it is charged like every other protocol
  /// header (TraceContext::kWireBytes per message), so tracing overhead is
  /// itself measurable. Delivery runs the handler under this context and a
  /// "net.recv" span, linking sender- and receiver-side spans.
  obs::TraceContext trace{};
};

/// Per-endpoint traffic counters.
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t header_bytes_sent = 0;

  [[nodiscard]] std::uint64_t wire_bytes_sent() const {
    return payload_bytes_sent + header_bytes_sent;
  }
};

/// The fabric. Message traffic runs on the single-threaded virtual-time
/// scheduler; only account_rpc() is thread-safe, because registry
/// operations issued from several threads charge it concurrently.
///
/// Traffic totals live in a per-network obs::Registry (the one source of
/// truth for byte/drop accounting): totals() is derived from those
/// counters, and metrics() exposes them for health reports and JSON export.
class Network {
 public:
  /// The receiver owns the delivered message for the duration of the call
  /// and may move out of it (a wire payload buffer, say).
  using Handler = std::function<void(Message&)>;

  explicit Network(util::Scheduler& scheduler, std::uint64_t seed = 42);

  // --- topology -----------------------------------------------------------

  /// Attach an endpoint; messages addressed to `addr` invoke `handler`.
  void attach(Address addr, Handler handler);

  /// Detach an endpoint (pending in-flight messages to it are dropped).
  void detach(Address addr);

  [[nodiscard]] bool is_attached(Address addr) const {
    return endpoints_.contains(addr);
  }

  /// Join / leave a multicast group (groups are plain addresses).
  void join_group(Address group, Address member);
  void leave_group(Address group, Address member);

  // --- link shaping -------------------------------------------------------

  /// One-way propagation latency applied to every message (default 200us).
  void set_latency(util::SimDuration latency) { latency_ = latency; }
  [[nodiscard]] util::SimDuration latency() const { return latency_; }

  /// Link bandwidth in bytes per second; 0 (default) = infinite. When set,
  /// delivery time is latency + wire_bytes / bandwidth, so bulk transfers
  /// (e.g. a large getLog batch) pay a size-dependent serialization delay.
  void set_bandwidth(std::uint64_t bytes_per_second) {
    bandwidth_ = bytes_per_second;
  }
  [[nodiscard]] std::uint64_t bandwidth() const { return bandwidth_; }

  /// Delivery delay for a message of `payload_bytes` under `p`.
  [[nodiscard]] util::SimDuration delivery_delay(Protocol p,
                                                 std::size_t payload_bytes) const;

  /// Probability in [0,1] that any given unicast/multicast delivery is lost.
  void set_loss_rate(double p) { loss_rate_ = p; }

  /// Sever connectivity between `a` and `b` in both directions.
  void partition(Address a, Address b);
  /// Restore connectivity between `a` and `b`.
  void heal(Address a, Address b);
  /// Remove all partitions.
  void heal_all() { partitions_.clear(); }

  // --- traffic ------------------------------------------------------------

  /// Send a unicast message (callers std::move it in); delivery is
  /// scheduled after latency(). Returns kNotFound if the destination is not
  /// attached *now* (the caller learns nothing about later detaches — like
  /// a real datagram).
  util::Status send(Message msg);

  /// send() `msg` once `delay` of virtual time has passed. The message is
  /// parked in the fabric meanwhile, so its sender may die first.
  /// Destination, partition, loss and byte charges are all evaluated at
  /// send time, exactly as for a send() issued at that instant: a
  /// destination detached during the delay refuses it uncharged, a
  /// partition drops it charged. The trace header is stamped now, from the
  /// sender's context, when unset.
  void send_after(util::SimDuration delay, Message msg);

  /// Deliver to every current member of the group except the sender.
  /// Returns the number of deliveries scheduled.
  std::size_t multicast(Address group, Message msg);

  /// Account traffic for a modeled synchronous RPC without scheduling a
  /// delivery (the call itself happens as a direct in-process invocation).
  /// Charges `request_bytes` from source and `response_bytes` from the
  /// callee back, both under `p`.
  void account_rpc(Address source, Address callee, std::size_t request_bytes,
                   std::size_t response_bytes, Protocol p = Protocol::kTcp);

  // --- accounting ---------------------------------------------------------

  [[nodiscard]] const TrafficStats& stats_for(Address addr) const;
  /// Network-wide totals, derived from the metrics() counters.
  [[nodiscard]] TrafficStats totals() const;
  void reset_stats();

  /// This network's metric registry (simnet.* counters). Snapshot/merge it
  /// with obs::metrics() for a full federation health view.
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }

  /// The virtual-time scheduler deliveries run on. Blocking request/response
  /// protocols built over the fabric (sorcer::RemoteInvoker) pump it while
  /// awaiting a reply.
  [[nodiscard]] util::Scheduler& scheduler() { return scheduler_; }

 private:
  /// Charge `msg` to its source and, unless a partition or loss drops it,
  /// schedule its delivery to msg.destination.
  void charge_and_schedule(Message msg);
  /// Park `msg` in the in-flight slab; returns its slot.
  std::uint32_t park(Message msg);
  /// Take the message out of `slot` and free the slot for reuse.
  Message unpark(std::uint32_t slot);
  void deliver(std::uint32_t slot);
  void charge(TrafficStats& endpoint, Protocol protocol,
              std::size_t payload_bytes, bool traced);
  [[nodiscard]] bool is_partitioned(Address a, Address b) const;

  util::Scheduler& scheduler_;
  util::Rng rng_;
  util::SimDuration latency_ = 200;  // 200us LAN hop
  std::uint64_t bandwidth_ = 0;      // bytes/s; 0 = infinite
  double loss_rate_ = 0.0;

  std::mutex account_mu_;  // guards stats maps during concurrent account_rpc
  std::unordered_map<Address, Handler> endpoints_;
  std::unordered_map<Address, std::unordered_set<Address>> groups_;
  std::unordered_map<Address, TrafficStats> stats_;
  std::vector<std::pair<Address, Address>> partitions_;
  // Messages in flight (or waiting out a send_after delay), by slot; freed
  // slots are reused before the slab grows.
  std::vector<Message> in_flight_;
  std::vector<std::uint32_t> free_slots_;

  obs::Registry metrics_;
  // Handles into metrics_, resolved once at construction (lock-free updates).
  obs::Counter& messages_sent_;
  obs::Counter& messages_received_;
  obs::Counter& messages_dropped_;
  obs::Counter& payload_bytes_sent_;
  obs::Counter& header_bytes_sent_;
  obs::Counter& trace_bytes_sent_;
  obs::Counter* wire_bytes_by_protocol_[4];
};

}  // namespace sensorcer::simnet
