#include "registry/discovery.h"

#include <algorithm>

#include "obs/metrics.h"

namespace sensorcer::registry {

namespace {

struct DiscoveryMetrics {
  obs::Counter& announcements;
  obs::Counter& discovered;
  obs::Histogram& latency;
};

DiscoveryMetrics& discovery_metrics() {
  static DiscoveryMetrics m{
      obs::metrics().counter("discovery.announcements"),
      obs::metrics().counter("discovery.discovered"),
      obs::metrics().histogram("discovery.latency_us")};
  return m;
}
// Modeled sizes of the discovery datagrams (Jini's are ~70-500 bytes).
constexpr std::size_t kAnnounceBytes = 96;
constexpr std::size_t kRequestBytes = 64;
constexpr std::size_t kResponseBytes = 160;

constexpr const char* kTopicAnnounce = "discovery.announce";
constexpr const char* kTopicRequest = "discovery.request";
constexpr const char* kTopicResponse = "discovery.response";
}  // namespace

simnet::Address discovery_group() {
  // Fixed well-known address, shared by every participant.
  return util::Uuid{0x224'0001'85ull, 0x4a49'4e49ull /* "JINI" */};
}

DiscoveryManager::DiscoveryManager(simnet::Network& network,
                                   util::Scheduler& scheduler)
    : network_(network), scheduler_(scheduler), address_(util::new_uuid()) {
  network_.attach(address_,
                  [this](const simnet::Message& msg) { handle_message(msg); });
  network_.join_group(discovery_group(), address_);
}

DiscoveryManager::~DiscoveryManager() {
  for (auto& ad : advertised_) scheduler_.cancel(ad.announce_timer);
  network_.leave_group(discovery_group(), address_);
  network_.detach(address_);
}

void DiscoveryManager::advertise(std::shared_ptr<LookupService> lus,
                                 util::SimDuration announce_period) {
  announce(lus);
  std::weak_ptr<LookupService> weak = lus;
  const util::TimerId timer =
      scheduler_.schedule_every(announce_period, [this, weak] {
        if (auto strong = weak.lock()) {
          announce(strong);
        } else {
          purge_dead_advertised();
        }
      });
  advertised_.push_back({weak, lus->address(), timer});
}

void DiscoveryManager::withdraw(const std::shared_ptr<LookupService>& lus) {
  std::erase_if(advertised_, [&](Advertised& ad) {
    if (ad.lus.lock() != lus) return false;
    scheduler_.cancel(ad.announce_timer);
    return true;
  });
}

void DiscoveryManager::purge_dead_advertised() {
  std::erase_if(advertised_, [&](Advertised& ad) {
    if (!ad.lus.expired()) return false;
    scheduler_.cancel(ad.announce_timer);
    return true;
  });
}

void DiscoveryManager::announce(const std::shared_ptr<LookupService>& lus) {
  simnet::Message msg;
  msg.source = address_;
  msg.topic = kTopicAnnounce;
  msg.body = LusAdvertisement{lus, lus->address()};
  msg.payload_bytes = kAnnounceBytes;
  discovery_metrics().announcements.add(1);
  network_.multicast(discovery_group(), std::move(msg));
}

void DiscoveryManager::start_discovery(DiscoveryListener listener) {
  listener_ = std::move(listener);
  discovering_ = true;
  // Report anything already known (e.g. learned from announcements that
  // arrived before the client asked), pruning entries whose LUS died.
  for (auto it = known_.begin(); it != known_.end();) {
    if (auto strong = it->second.lock()) {
      if (listener_) listener_(strong);
      ++it;
    } else {
      it = known_.erase(it);
    }
  }
  simnet::Message msg;
  msg.source = address_;
  msg.topic = kTopicRequest;
  msg.payload_bytes = kRequestBytes;
  discovery_started_ = scheduler_.now();
  network_.multicast(discovery_group(), std::move(msg));
}

void DiscoveryManager::handle_message(const simnet::Message& msg) {
  if (msg.topic == kTopicAnnounce || msg.topic == kTopicResponse) {
    if (const auto* ad = msg.body.get_if<LusAdvertisement>()) {
      note_discovered(*ad);
    }
    return;
  }
  if (msg.topic == kTopicRequest) {
    // Answer with a unicast response for each LUS we advertise. A LUS that
    // died without withdraw() is purged instead of answered for.
    purge_dead_advertised();
    for (const auto& ad : advertised_) {
      simnet::Message reply;
      reply.source = address_;
      reply.destination = msg.source;
      reply.topic = kTopicResponse;
      reply.body = LusAdvertisement{ad.lus, ad.lus_address};
      reply.payload_bytes = kResponseBytes;
      reply.protocol = simnet::Protocol::kTcp;  // Jini unicast discovery is TCP
      (void)network_.send(std::move(reply));
    }
  }
}

void DiscoveryManager::note_discovered(const LusAdvertisement& ad) {
  auto strong = ad.lus.lock();
  if (!strong) {
    // An advertisement can outlive its LUS (in-flight message, stale cache
    // entry): make sure the address is not kept as a dead known_ entry.
    known_.erase(ad.lus_address);
    return;
  }
  const bool is_new = !known_.contains(ad.lus_address);
  known_[ad.lus_address] = ad.lus;
  if (is_new) {
    discovery_metrics().discovered.add(1);
    if (discovery_started_ >= 0) {
      discovery_metrics().latency.observe(
          static_cast<double>(scheduler_.now() - discovery_started_));
    }
  }
  if (is_new && discovering_ && listener_) listener_(strong);
}

std::vector<std::shared_ptr<LookupService>> DiscoveryManager::discovered() {
  std::vector<std::shared_ptr<LookupService>> out;
  for (auto it = known_.begin(); it != known_.end();) {
    if (auto strong = it->second.lock()) {
      out.push_back(std::move(strong));
      ++it;
    } else {
      it = known_.erase(it);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a->name() < b->name(); });
  return out;
}

}  // namespace sensorcer::registry
