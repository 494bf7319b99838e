#pragma once
// Service Accessor — federated method invocation's service-finding half.
//
// "First, it discovers lookup services and then finds matching services
// specified by signatures in exertions" (§V.B). Successful matches are
// cached and validated against the registry on reuse, so a provider that
// left the network is never returned stale.

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "registry/discovery.h"
#include "registry/lookup.h"
#include "sorcer/invoke.h"
#include "sorcer/servicer.h"

namespace sensorcer::sorcer {

class ServiceAccessor {
 public:
  ServiceAccessor() = default;

  /// Use a known lookup service directly (unicast discovery analogue).
  void add_lookup(std::shared_ptr<registry::LookupService> lus);

  /// Feed from multicast discovery: every LUS the manager finds (now and
  /// later) becomes available to this accessor.
  void attach_discovery(registry::DiscoveryManager& discovery);

  /// Lookup services currently known (dead ones pruned).
  [[nodiscard]] std::vector<std::shared_ptr<registry::LookupService>> lookups();

  /// Find any item matching `tmpl` across known lookup services.
  util::Result<registry::ServiceItem> find_item(
      const registry::ServiceTemplate& tmpl);

  /// All items matching `tmpl`, de-duplicated by service id.
  std::vector<registry::ServiceItem> find_all(
      const registry::ServiceTemplate& tmpl);

  /// Resolve a signature to a live Servicer proxy. Uses the cache when the
  /// cached registration is still present in its registry.
  util::Result<std::shared_ptr<Servicer>> find_servicer(const Signature& sig);

  /// A resolved provider with its registry identity (needed by requestors
  /// that must exclude providers they already tried).
  struct Resolved {
    std::shared_ptr<Servicer> servicer;
    registry::ServiceId id;
  };

  /// Like find_servicer, but skips providers whose id is in `exclude` —
  /// the mechanism behind service substitution: "the request can be passed
  /// on to the equivalent available service provider" (§V.A). The cache is
  /// bypassed when `exclude` is non-empty.
  util::Result<Resolved> resolve(
      const Signature& sig,
      const std::vector<registry::ServiceId>& exclude = {});

  /// Wire the invocation pipeline in: every dispatch routed through this
  /// accessor (exert, Jobber children, space workers, CSP fan-out, facade
  /// reads) goes via `invoker`. With none, dispatches fail with
  /// kFailedPrecondition; resolution still works. Resolution cache
  /// effectiveness is tracked on the obs metrics registry
  /// (accessor.cache_hits / accessor.cache_misses).
  void set_invoker(RemoteInvoker* invoker) { invoker_ = invoker; }
  [[nodiscard]] RemoteInvoker* invoker() const { return invoker_; }

  void clear_cache();

  /// Disable/enable the resolution cache (ablation studies; enabled by
  /// default). Disabling also clears it.
  void set_caching(bool enabled);

 private:
  struct CacheSlot {
    std::weak_ptr<registry::LookupService> lus;
    registry::ServiceItem item;
  };

  static std::string cache_key(const Signature& sig) {
    return sig.service_type + "|" + sig.provider_name;
  }

  std::mutex mu_;  // guards lookups_ + cache: parallel jobs resolve concurrently
  std::vector<std::weak_ptr<registry::LookupService>> lookups_;
  std::unordered_map<std::string, CacheSlot> cache_;
  bool caching_ = true;
  RemoteInvoker* invoker_ = nullptr;
};

}  // namespace sensorcer::sorcer
