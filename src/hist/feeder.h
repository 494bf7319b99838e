#pragma once
// The ESP-side push half of the historian protocol: one FeederHub per
// deployment, one HistorianFeeder per sampling provider.
//
// A feeder is a sensor's pending buffer plus its counters. Sampled readings
// are offered to it; the hub owns everything else — the flush timer, the
// in-flight flush, and the binding to the historian. A hub flush gathers
// every feeder's pending window into multi-series appendBatch chunks
// (hist/append_batch.h) and exerts them through the deployment's invocation
// pipeline as one scatter-gather batch, so a sampling instant of the whole
// fleet costs one overlapped round trip, not one per sensor. A flush
// requested while one is in flight (a wire flush pumps the scheduler, which
// fires timers) only marks the hub for a re-run once it lands — flushes
// never nest.
//
// The binding is event-driven and lease-bound: the hub holds one leased
// notify() subscription for DataCollection transitions. When the
// historian's registration disappears (crash — its lease lapses; or clean
// leave) the hub unbinds and every feeder buffers, up to its cap; when a
// historian (re)appears the hub rebinds and drains the buffers. After an
// ESP failover the replacement provider calls backfill() with the
// surviving DataLog — the historian's timestamp dedup makes the replay
// idempotent, so recovery leaves no gaps and no double-counted readings.

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "registry/lease_renewal.h"
#include "registry/lookup.h"
#include "sensor/data_log.h"
#include "sensor/reading.h"
#include "sorcer/accessor.h"
#include "sorcer/exertion.h"
#include "util/scheduler.h"
#include "util/sim_time.h"

namespace sensorcer::hist {

struct FeederConfig {
  /// Flush (on a zero-delay timer) once this many readings were offered
  /// across the hub since the last flush.
  std::size_t batch_size = 32;
  /// Periodic flush of partial batches; 0 disables the timer.
  util::SimDuration flush_period = 5 * util::kSecond;
  /// Per-feeder pending cap while unbound (oldest readings drop past it).
  std::size_t pending_cap = 4096;
  /// Max readings marshalled into one appendBatch task.
  std::size_t max_batch = 256;
  /// Lease duration of the hub's notify() subscription.
  util::SimDuration subscription_lease = 30 * util::kSecond;
};

class HistorianFeeder;

class FeederHub {
 public:
  FeederHub(util::Scheduler& scheduler, sorcer::ServiceAccessor& accessor,
            FeederConfig config = {});
  ~FeederHub();

  FeederHub(const FeederHub&) = delete;
  FeederHub& operator=(const FeederHub&) = delete;

  /// Subscribe to DataCollection transitions on `lus`, managing the event
  /// lease through `lrm`. Binds immediately when a historian is already
  /// registered.
  void bind(const std::shared_ptr<registry::LookupService>& lus,
            registry::LeaseRenewalManager& lrm);

  /// Drop the subscription and stop pushing.
  void unbind();

  /// Push every feeder's pending readings now (also the timer body): all
  /// max_batch chunks go out as one pipelined scatter-gather batch; a
  /// failed chunk re-queues its readings at the front of their feeders'
  /// buffers. Returns readings pushed; 0 when a flush is already in flight
  /// (that flush re-runs once it lands).
  std::size_t flush();

  [[nodiscard]] bool bound() const { return bound_; }
  [[nodiscard]] const FeederConfig& config() const { return config_; }
  [[nodiscard]] std::size_t feeder_count() const { return feeders_.size(); }

 private:
  friend class HistorianFeeder;

  /// One feeder's share of the flush in flight.
  struct Flight {
    HistorianFeeder* feeder;
    std::shared_ptr<const bool> alive;
    std::size_t offset;  // its first reading in the flush window
    std::size_t count;
  };

  void attach(HistorianFeeder* feeder);
  void detach(HistorianFeeder* feeder);
  /// A feeder took a reading; schedules a flush past batch_size. Safe from
  /// any thread (an ESP read may record a reading off the scheduler's).
  void offered();
  [[nodiscard]] bool any_pending() const;
  void schedule_flush();
  std::size_t flush_pending();
  /// Credit a flight's delivered chunks and re-queue its failed ones;
  /// returns the readings pushed.
  std::size_t settle(const Flight& flight,
                     const std::vector<sensor::Reading>& window,
                     const std::vector<sorcer::ExertionPtr>& chunks,
                     std::size_t first_chunk);
  void on_transition(const registry::ServiceEvent& event);

  util::Scheduler& scheduler_;
  sorcer::ServiceAccessor& accessor_;
  FeederConfig config_;
  std::vector<HistorianFeeder*> feeders_;  // attach order = flush order

  bool bound_ = false;
  bool flushing_ = false;  // a flush is in flight
  bool rerun_ = false;     // ...and another was requested meanwhile
  util::TimerId flush_timer_ = 0;

  std::mutex mu_;  // guards the offer-side state below
  std::size_t unflushed_ = 0;
  util::TimerId pending_flush_timer_ = 0;

  std::weak_ptr<registry::LookupService> lus_;
  registry::LeaseRenewalManager* lrm_ = nullptr;
  util::Uuid subscription_id_{};
  util::Uuid subscription_lease_{};
};

class HistorianFeeder {
 public:
  /// `sensor` names the series pushed by this feeder (the provider name).
  HistorianFeeder(std::string sensor, FeederHub& hub);
  ~HistorianFeeder();

  HistorianFeeder(const HistorianFeeder&) = delete;
  HistorianFeeder& operator=(const HistorianFeeder&) = delete;

  /// Enqueue one reading. Never pushes synchronously: once enough readings
  /// pend across the hub, a flush runs on a zero-delay timer, so all fabric
  /// traffic happens inside scheduler pumps.
  void offer(const sensor::Reading& reading);

  /// Enqueue every retained reading of `log` and flush — failover recovery.
  /// Safe to replay readings the historian already holds (server dedup).
  void backfill(const sensor::DataLog& log);

  /// Flush the hub. Returns this feeder's readings pushed by the call.
  std::size_t flush();

  /// Leave the hub for good: the provider crashed or was undeployed, so
  /// nothing of this feeder is pushed any more.
  void unbind();

  [[nodiscard]] bool bound() const { return hub_ != nullptr && hub_->bound(); }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t pushed() const { return pushed_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t failed_batches() const { return failed_; }
  [[nodiscard]] const std::string& sensor() const { return sensor_; }

 private:
  friend class FeederHub;

  std::string sensor_;
  FeederHub* hub_;  // null once unbound or the hub is gone
  std::size_t pending_cap_;
  std::deque<sensor::Reading> pending_;

  std::uint64_t pushed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t failed_ = 0;

  /// Liveness token: a hub flush pumps the scheduler, and a nested event
  /// (the provision monitor fencing this feeder's provider) can destroy the
  /// whole provider — feeder included — under the in-flight flush. The hub
  /// re-checks the token before settling this feeder's share.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sensorcer::hist
