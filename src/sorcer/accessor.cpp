#include "sorcer/accessor.h"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.h"

namespace sensorcer::sorcer {

namespace {

struct AccessorMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
};

AccessorMetrics& accessor_metrics() {
  static AccessorMetrics m{obs::metrics().counter("accessor.cache_hits"),
                           obs::metrics().counter("accessor.cache_misses")};
  return m;
}

}  // namespace

void ServiceAccessor::add_lookup(
    std::shared_ptr<registry::LookupService> lus) {
  std::lock_guard lock(mu_);
  for (const auto& weak : lookups_) {
    if (auto existing = weak.lock(); existing == lus) return;
  }
  lookups_.emplace_back(std::move(lus));
}

void ServiceAccessor::attach_discovery(
    registry::DiscoveryManager& discovery) {
  discovery.start_discovery(
      [this](const std::shared_ptr<registry::LookupService>& lus) {
        add_lookup(lus);
      });
}

std::vector<std::shared_ptr<registry::LookupService>>
ServiceAccessor::lookups() {
  std::lock_guard lock(mu_);
  std::vector<std::shared_ptr<registry::LookupService>> out;
  for (auto it = lookups_.begin(); it != lookups_.end();) {
    if (auto strong = it->lock()) {
      out.push_back(std::move(strong));
      ++it;
    } else {
      it = lookups_.erase(it);
    }
  }
  return out;
}

util::Result<registry::ServiceItem> ServiceAccessor::find_item(
    const registry::ServiceTemplate& tmpl) {
  for (const auto& lus : lookups()) {
    auto found = lus->lookup_one(tmpl);
    if (found.is_ok()) return found;
  }
  return util::Status{util::ErrorCode::kNotFound,
                      "no lookup service holds a matching item"};
}

std::vector<registry::ServiceItem> ServiceAccessor::find_all(
    const registry::ServiceTemplate& tmpl) {
  std::vector<registry::ServiceItem> out;
  std::unordered_set<registry::ServiceId> seen;
  for (const auto& lus : lookups()) {
    for (auto& item : lus->lookup(tmpl)) {
      if (seen.insert(item.id).second) out.push_back(std::move(item));
    }
  }
  return out;
}

util::Result<std::shared_ptr<Servicer>> ServiceAccessor::find_servicer(
    const Signature& sig) {
  auto resolved = resolve(sig);
  if (!resolved.is_ok()) return resolved.status();
  return std::move(resolved).value().servicer;
}

util::Result<ServiceAccessor::Resolved> ServiceAccessor::resolve(
    const Signature& sig, const std::vector<registry::ServiceId>& exclude) {
  const KeyView key(sig.service_type, sig.provider_name);
  if (exclude.empty()) {
    std::lock_guard lock(mu_);
    auto it = caching_ ? cache_.find(key) : cache_.end();
    if (it != cache_.end()) {
      auto lus = it->second.lus.lock();
      if (lus && lus->contains(it->second.item.id)) {
        if (auto servicer =
                registry::proxy_cast<Servicer>(it->second.item.proxy)) {
          accessor_metrics().hits.add(1);
          return Resolved{std::move(servicer), it->second.item.id};
        }
      }
      cache_.erase(it);
    }
    accessor_metrics().misses.add(1);
  }

  const auto excluded = [&](const registry::ServiceId& id) {
    return std::find(exclude.begin(), exclude.end(), id) != exclude.end();
  };

  registry::ServiceTemplate tmpl;
  tmpl.types.push_back(sig.service_type);
  if (!sig.provider_name.empty()) {
    tmpl.attributes.set(registry::attr::kName, sig.provider_name);
  }
  for (const auto& lus : lookups()) {
    for (auto& item : lus->lookup(tmpl)) {
      if (excluded(item.id)) continue;
      auto servicer = registry::proxy_cast<Servicer>(item.proxy);
      if (!servicer) continue;  // item matched but is not an EOA peer
      const registry::ServiceId id = item.id;
      std::lock_guard lock(mu_);
      if (caching_ && exclude.empty()) {
        CacheSlot slot{lus, std::move(item)};
        if (auto it = cache_.find(key); it != cache_.end()) {
          it->second = std::move(slot);
        } else {
          // A miss is the only place the key's strings are copied.
          cache_.emplace(CacheKey{sig.service_type, sig.provider_name},
                         std::move(slot));
        }
      }
      return Resolved{std::move(servicer), id};
    }
  }
  return util::Status{
      util::ErrorCode::kNotFound,
      "no provider matches signature " + sig.to_string()};
}

void ServiceAccessor::clear_cache() {
  std::lock_guard lock(mu_);
  cache_.clear();
}

void ServiceAccessor::set_caching(bool enabled) {
  std::lock_guard lock(mu_);
  caching_ = enabled;
  if (!enabled) cache_.clear();
}

}  // namespace sensorcer::sorcer
