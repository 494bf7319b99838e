#pragma once
// Lease Renewal Manager — the client-side half of Jini leasing (and one of
// the infrastructure services visible in the paper's Fig 2).
//
// Providers hand their leases to this manager; it renews them ahead of
// expiry for as long as the provider is alive. Stopping renewal (service
// death) lets the lease lapse, and the LUS disposes the registration — the
// self-healing behaviour of §IV.B.
//
// Renewals are batched per (LUS, shard, due-window): leases whose
// half-life renewal falls in the same window ride one renewAll wire message
// to their shard (EMMA's aggregate-per-neighbor lesson), so renewal traffic
// scales with shards x windows instead of with the lease population.
// Denied leases lapse individually; the rest of the batch survives.

#include <memory>
#include <unordered_map>
#include <vector>

#include "registry/lookup.h"
#include "util/scheduler.h"

namespace sensorcer::registry {

/// Renewal batching knob. `window` is the due-bucket width: wider windows
/// pack more leases per message but renew slightly earlier on average
/// (a lease is renewed at most one window before its half-life).
struct LeaseBatchConfig {
  util::SimDuration window = 100 * util::kMillisecond;
};

class LeaseRenewalManager {
 public:
  explicit LeaseRenewalManager(util::Scheduler& scheduler,
                               LeaseBatchConfig batch = {})
      : scheduler_(scheduler), batch_(batch) {}

  ~LeaseRenewalManager();

  LeaseRenewalManager(const LeaseRenewalManager&) = delete;
  LeaseRenewalManager& operator=(const LeaseRenewalManager&) = delete;

  /// Keep `lease` (granted by `lus`) alive by renewing for `duration` every
  /// time half of the remaining lifetime has elapsed.
  void manage(const Lease& lease, std::weak_ptr<LookupService> lus,
              util::SimDuration duration);

  /// Stop renewing (the lease will expire naturally).
  void release(const util::Uuid& lease_id);

  /// Stop renewing and cancel at the LUS immediately (clean shutdown).
  void cancel(const util::Uuid& lease_id);

  [[nodiscard]] std::size_t managed_count() const { return managed_.size(); }

  /// Renewals that failed because the LUS was gone or refused.
  [[nodiscard]] std::uint64_t failed_renewals() const { return failures_; }

  /// renewAll wire messages sent.
  [[nodiscard]] std::uint64_t batches_sent() const { return batches_sent_; }

 private:
  struct Managed {
    std::weak_ptr<LookupService> lus;
    util::SimDuration duration;
    std::uint32_t shard = 0;
    util::SimTime batch_fire = -1;  // pending window start
  };

  struct BatchKey {
    const LookupService* lus = nullptr;  // identity only; access via weak_ptr
    std::uint32_t shard = 0;
    util::SimTime fire_at = 0;
    bool operator==(const BatchKey&) const = default;
  };
  struct BatchKeyHash {
    std::size_t operator()(const BatchKey& k) const {
      const auto h = reinterpret_cast<std::uintptr_t>(k.lus);
      return static_cast<std::size_t>(
          (h * 0x9e3779b97f4a7c15ull) ^
          (static_cast<std::uint64_t>(k.fire_at) * 0xff51afd7ed558ccdull) ^
          k.shard);
    }
  };
  struct Batch {
    std::weak_ptr<LookupService> lus;
    util::TimerId timer = 0;
    std::vector<util::Uuid> leases;
  };

  void enqueue(const util::Uuid& lease_id);
  void fire_batch(const BatchKey& key);

  util::Scheduler& scheduler_;
  LeaseBatchConfig batch_;
  std::unordered_map<util::Uuid, Managed> managed_;
  std::unordered_map<BatchKey, Batch, BatchKeyHash> batches_;
  std::uint64_t failures_ = 0;
  std::uint64_t batches_sent_ = 0;
};

}  // namespace sensorcer::registry
