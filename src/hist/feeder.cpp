#include "hist/feeder.h"

#include <algorithm>
#include <utility>

#include "core/interfaces.h"
#include "hist/append_batch.h"
#include "obs/metrics.h"
#include "sorcer/exert.h"
#include "sorcer/exertion.h"

namespace sensorcer::hist {

namespace {

struct FeederMetrics {
  obs::Counter& pushed;
  obs::Counter& dropped;
  obs::Counter& failed_batches;
};

FeederMetrics& feeder_metrics() {
  static FeederMetrics m{obs::metrics().counter("hist.feeder_pushed"),
                         obs::metrics().counter("hist.feeder_dropped"),
                         obs::metrics().counter("hist.feeder_failed")};
  return m;
}

registry::ServiceTemplate historian_template() {
  return registry::ServiceTemplate::by_type(core::kDataCollectionType);
}

bool chunk_done(const sorcer::ExertionPtr& chunk) {
  return chunk->status() == sorcer::ExertStatus::kDone;
}

}  // namespace

// --- FeederHub -----------------------------------------------------------------

FeederHub::FeederHub(util::Scheduler& scheduler,
                     sorcer::ServiceAccessor& accessor, FeederConfig config)
    : scheduler_(scheduler), accessor_(accessor), config_(config) {
  config_.batch_size = std::max<std::size_t>(config_.batch_size, 1);
  config_.max_batch = std::max<std::size_t>(config_.max_batch, 1);
  if (config_.flush_period > 0) {
    flush_timer_ =
        scheduler_.schedule_every(config_.flush_period, [this] { flush(); });
  }
}

FeederHub::~FeederHub() {
  scheduler_.cancel(flush_timer_);
  if (pending_flush_timer_ != 0) scheduler_.cancel(pending_flush_timer_);
  unbind();
  for (HistorianFeeder* feeder : feeders_) feeder->hub_ = nullptr;
}

void FeederHub::bind(const std::shared_ptr<registry::LookupService>& lus,
                     registry::LeaseRenewalManager& lrm) {
  unbind();
  lus_ = lus;
  lrm_ = &lrm;
  registry::EventRegistration reg = lus->notify(
      historian_template(), registry::kAllTransitions,
      [this](const registry::ServiceEvent& event) { on_transition(event); },
      config_.subscription_lease);
  subscription_id_ = reg.id;
  subscription_lease_ = reg.lease.id;
  lrm.manage(reg.lease, lus, config_.subscription_lease);
  bound_ = lus->lookup_one(historian_template()).is_ok();
  if (bound_ && any_pending()) schedule_flush();
}

void FeederHub::unbind() {
  if (auto lus = lus_.lock()) {
    if (lrm_ != nullptr && !subscription_lease_.is_nil()) {
      lrm_->release(subscription_lease_);
    }
    if (!subscription_id_.is_nil()) {
      (void)lus->cancel_notify(subscription_id_);
    }
  }
  lus_.reset();
  lrm_ = nullptr;
  subscription_id_ = util::Uuid{};
  subscription_lease_ = util::Uuid{};
  bound_ = false;
}

void FeederHub::on_transition(const registry::ServiceEvent& event) {
  if (event.transition == registry::Transition::kNoMatchToMatch) {
    bound_ = true;
    if (any_pending()) schedule_flush();
    return;
  }
  if (event.transition == registry::Transition::kMatchToNoMatch) {
    // The historian that held our pushes is gone; stay bound only if
    // another DataCollection provider remains registered.
    auto lus = lus_.lock();
    bound_ = lus != nullptr && lus->lookup_one(historian_template()).is_ok();
  }
}

void FeederHub::attach(HistorianFeeder* feeder) { feeders_.push_back(feeder); }

void FeederHub::detach(HistorianFeeder* feeder) {
  std::erase(feeders_, feeder);
}

void FeederHub::offered() {
  bool due = false;
  {
    std::lock_guard lock(mu_);
    ++unflushed_;
    due = bound_ && unflushed_ >= config_.batch_size;
  }
  if (due) schedule_flush();
}

bool FeederHub::any_pending() const {
  return std::any_of(feeders_.begin(), feeders_.end(),
                     [](const HistorianFeeder* f) { return !f->pending_.empty(); });
}

void FeederHub::schedule_flush() {
  std::lock_guard lock(mu_);
  if (pending_flush_timer_ != 0) return;
  // Zero-delay timer: it fires after every other event of this instant, so
  // a fleet sampled in phase goes out in one flush, and all push traffic
  // starts from a scheduler event, never from the middle of an offer().
  pending_flush_timer_ = scheduler_.schedule_after(0, [this] {
    {
      std::lock_guard lock(mu_);
      pending_flush_timer_ = 0;
    }
    flush();
  });
}

std::size_t FeederHub::flush() {
  if (flushing_) {
    rerun_ = true;
    return 0;
  }
  if (!bound_) return 0;
  flushing_ = true;
  const std::size_t pushed = flush_pending();
  flushing_ = false;
  if (rerun_) {
    // Requested while the batch pumped the fabric: run again from a fresh
    // scheduler event rather than on this stack.
    rerun_ = false;
    if (any_pending()) schedule_flush();
  }
  return pushed;
}

std::size_t FeederHub::flush_pending() {
  {
    std::lock_guard lock(mu_);
    unflushed_ = 0;
  }
  // Snapshot every pending window: readings offered while the batch pumps
  // the fabric land behind it, and failed chunks re-queue at the front so
  // per-sensor order survives a partial failure.
  std::size_t total_pending = 0;
  for (const HistorianFeeder* feeder : feeders_) {
    total_pending += feeder->pending_.size();
  }
  if (total_pending == 0) return 0;
  std::vector<sensor::Reading> window;
  std::vector<Flight> flights;
  std::vector<SeriesSlice> slices;
  window.reserve(total_pending);  // exact: the slices' views stay valid
  flights.reserve(feeders_.size());
  slices.reserve(feeders_.size());
  for (HistorianFeeder* feeder : feeders_) {
    const std::size_t n = feeder->pending_.size();
    if (n == 0) continue;
    flights.push_back({feeder, feeder->alive_, window.size(), n});
    window.insert(window.end(), feeder->pending_.begin(),
                  feeder->pending_.end());
    feeder->pending_.clear();
    slices.push_back({feeder->sensor_,
                      std::span<const sensor::Reading>(window).last(n)});
  }

  // Every chunk goes out in one scatter-gather batch: K chunks cost about
  // one round trip on the wire, not K. The historian's timestamp dedup
  // makes any replay of a chunk whose response was lost idempotent.
  std::vector<std::size_t> first_chunk;
  const std::vector<sorcer::ExertionPtr> chunks = make_append_batches(
      slices, config_.max_batch, "hist-append", first_chunk);
  (void)sorcer::exert_all(chunks, accessor_);

  for (const sorcer::ExertionPtr& chunk : chunks) {
    if (!chunk_done(chunk)) feeder_metrics().failed_batches.add();
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < flights.size(); ++i) {
    // A feeder destroyed under the pump (its provider fenced or undeployed
    // mid-flight) is skipped: the replacement's backfill() replays its
    // un-acked readings.
    if (!*flights[i].alive) continue;
    total += settle(flights[i], window, chunks, first_chunk[i]);
  }
  return total;
}

std::size_t FeederHub::settle(const Flight& flight,
                              const std::vector<sensor::Reading>& window,
                              const std::vector<sorcer::ExertionPtr>& chunks,
                              std::size_t first_chunk) {
  // The flight's j-th reading rode chunk first_chunk + j / max_batch.
  HistorianFeeder& feeder = *flight.feeder;
  const std::size_t max = config_.max_batch;
  std::size_t pushed = 0;
  std::vector<sensor::Reading> requeue;
  for (std::size_t j = 0; j < flight.count; j += max) {
    const std::size_t n = std::min(max, flight.count - j);
    if (chunk_done(chunks[first_chunk + j / max])) {
      pushed += n;
    } else {
      ++feeder.failed_;
      const auto from = window.begin() +
                        static_cast<std::ptrdiff_t>(flight.offset + j);
      requeue.insert(requeue.end(), from,
                     from + static_cast<std::ptrdiff_t>(n));
    }
  }
  feeder.pushed_ += pushed;
  feeder_metrics().pushed.add(pushed);
  feeder.pending_.insert(feeder.pending_.begin(), requeue.begin(),
                         requeue.end());
  return pushed;
}

// --- HistorianFeeder -----------------------------------------------------------

HistorianFeeder::HistorianFeeder(std::string sensor, FeederHub& hub)
    : sensor_(std::move(sensor)),
      hub_(&hub),
      pending_cap_(hub.config().pending_cap) {
  hub.attach(this);
}

HistorianFeeder::~HistorianFeeder() {
  *alive_ = false;
  unbind();
}

void HistorianFeeder::unbind() {
  if (hub_ != nullptr) hub_->detach(this);
  hub_ = nullptr;
}

void HistorianFeeder::offer(const sensor::Reading& reading) {
  pending_.push_back(reading);
  while (pending_.size() > pending_cap_) {
    pending_.pop_front();
    ++dropped_;
    feeder_metrics().dropped.add();
  }
  if (hub_ != nullptr) hub_->offered();
}

void HistorianFeeder::backfill(const sensor::DataLog& log) {
  log.for_each(0, sensor::kEndOfTime,
               [this](const sensor::Reading& r) { offer(r); });
  if (bound()) hub_->schedule_flush();
}

std::size_t HistorianFeeder::flush() {
  if (hub_ == nullptr) return 0;
  // Local copy: outlives `this` if the flush's pump deletes the feeder.
  const std::shared_ptr<const bool> alive = alive_;
  const std::uint64_t before = pushed_;
  hub_->flush();
  return *alive ? pushed_ - before : 0;
}

}  // namespace sensorcer::hist
