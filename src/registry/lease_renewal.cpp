#include "registry/lease_renewal.h"

#include <algorithm>

#include "obs/metrics.h"

namespace sensorcer::registry {

namespace {

struct LeaseMetrics {
  obs::Counter& renewals;
  obs::Counter& failures;
  obs::Counter& batches;
};

LeaseMetrics& lease_metrics() {
  static LeaseMetrics m{obs::metrics().counter("lease.renewals"),
                        obs::metrics().counter("lease.renewal_failures"),
                        obs::metrics().counter("lease.renewal_batches")};
  return m;
}

}  // namespace

LeaseRenewalManager::~LeaseRenewalManager() {
  for (auto& [key, batch] : batches_) scheduler_.cancel(batch.timer);
}

void LeaseRenewalManager::manage(const Lease& lease,
                                 std::weak_ptr<LookupService> lus,
                                 util::SimDuration duration) {
  release(lease.id);  // replace any previous management of this lease
  managed_[lease.id] = Managed{std::move(lus), duration, lease.shard, -1};
  enqueue(lease.id);
}

void LeaseRenewalManager::enqueue(const util::Uuid& lease_id) {
  auto it = managed_.find(lease_id);
  if (it == managed_.end()) return;
  Managed& m = it->second;
  const util::SimTime now = scheduler_.now();
  const util::SimDuration half =
      std::max<util::SimDuration>(m.duration / 2, util::kMillisecond);
  const util::SimTime due = now + half;
  // Snap the renewal to the start of its due window: every member of the
  // window is renewed at or before its own half-life, so batching never
  // costs a lease its safety margin.
  util::SimTime fire_at = (due / batch_.window) * batch_.window;
  if (fire_at <= now) fire_at = due;  // lease shorter than ~2 windows
  m.batch_fire = fire_at;

  const BatchKey key{m.lus.lock().get(), m.shard, fire_at};
  auto [bit, fresh] = batches_.try_emplace(key);
  if (fresh) {
    bit->second.lus = m.lus;
    bit->second.timer =
        scheduler_.schedule_at(fire_at, [this, key] { fire_batch(key); });
  }
  bit->second.leases.push_back(lease_id);
}

void LeaseRenewalManager::fire_batch(const BatchKey& key) {
  auto bit = batches_.find(key);
  if (bit == batches_.end()) return;
  Batch batch = std::move(bit->second);
  batches_.erase(bit);

  // Filter to leases still managed and still assigned to this window
  // (release/cancel/re-manage leave stale ids behind in the batch vector).
  std::vector<RenewItem> items;
  std::vector<util::Uuid> ids;
  items.reserve(batch.leases.size());
  for (const util::Uuid& id : batch.leases) {
    auto mit = managed_.find(id);
    if (mit == managed_.end() || mit->second.batch_fire != key.fire_at ||
        mit->second.shard != key.shard) {
      continue;
    }
    items.push_back({id, mit->second.duration});
    ids.push_back(id);
    // Mark in-flight so a duplicate vector entry (re-manage into the same
    // window) cannot renew the lease twice.
    mit->second.batch_fire = -2;
  }
  if (items.empty()) return;

  auto lus = batch.lus.lock();
  if (!lus) {
    for (const util::Uuid& id : ids) managed_.erase(id);
    failures_ += ids.size();
    lease_metrics().failures.add(ids.size());
    return;
  }

  const RenewOutcome outcome = lus->renew_batch(key.shard, items);
  ++batches_sent_;
  lease_metrics().batches.add(1);
  lease_metrics().renewals.add(outcome.renewed);
  // Partial failure: only the denied leases lapse; the batch survives.
  for (const util::Uuid& denied : outcome.denied) {
    managed_.erase(denied);
    ++failures_;
    lease_metrics().failures.add(1);
  }
  for (const util::Uuid& id : ids) {
    if (managed_.contains(id)) enqueue(id);
  }
}

void LeaseRenewalManager::release(const util::Uuid& lease_id) {
  // No timer bookkeeping: the lease's window fires regardless and skips ids
  // that are no longer managed.
  managed_.erase(lease_id);
}

void LeaseRenewalManager::cancel(const util::Uuid& lease_id) {
  auto it = managed_.find(lease_id);
  if (it == managed_.end()) return;
  if (auto lus = it->second.lus.lock()) (void)lus->cancel_lease(lease_id);
  managed_.erase(it);
}

}  // namespace sensorcer::registry
