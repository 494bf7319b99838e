#pragma once
// ServiceProvider — base class for every SORCER peer in the framework.
//
// A provider owns a map of operations (selector → function over the service
// context, with a modeled service time), registers itself with lookup
// services under its interface names, keeps its registrations alive through
// a LeaseRenewalManager, and executes task exertions whose signature it
// matches. Invocation is serialized per provider, so callers on several
// threads are safe.

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "registry/lease_renewal.h"
#include "registry/lookup.h"
#include "simnet/network.h"
#include "sorcer/servicer.h"

namespace sensorcer::sorcer {

struct WireCodecState;

/// A provider operation: transforms the exertion's service context.
using Operation = std::function<util::Status(ServiceContext&)>;

class ServiceProvider : public Servicer,
                        public std::enable_shared_from_this<ServiceProvider> {
 public:
  /// `types` are the domain interface names this provider exports in
  /// addition to "Servicer".
  ServiceProvider(std::string name, std::vector<std::string> types);

  ~ServiceProvider() override;

  // --- configuration --------------------------------------------------------

  /// Register an operation. `service_time` is the modeled execution latency
  /// charged to exertions (virtual time).
  void add_operation(const std::string& selector, Operation op,
                     util::SimDuration service_time = util::kMillisecond);

  /// Complementary attributes published at registration (name and type
  /// attributes are added automatically).
  void set_attributes(registry::Entry attributes);

  /// Put this provider on the fabric: attaches an endpoint whose handler
  /// dispatches invoke.request messages through service() and answers with
  /// invoke.response (plus invoke.ping → invoke.pong liveness probes). A
  /// provider that is not attached cannot be invoked. Re-attaching moves the
  /// endpoint; the destructor detaches it.
  void attach_network(simnet::Network& net);

  [[nodiscard]] simnet::Network* network() const { return net_; }
  [[nodiscard]] simnet::Address network_address() const { return net_addr_; }

  // --- join/leave protocol --------------------------------------------------

  /// Register with `lus` for `lease_duration`, auto-renewing via `lrm`.
  /// May be called for several lookup services.
  util::Status join(const std::shared_ptr<registry::LookupService>& lus,
                    registry::LeaseRenewalManager& lrm,
                    util::SimDuration lease_duration);

  /// Cancel every registration (clean departure).
  void leave();

  /// Stop renewing but do not cancel: simulates a crashed provider whose
  /// registrations linger until their leases expire (§IV.B). Subclasses
  /// with autonomous activity (sampling timers, push feeders) stop it via
  /// the on_crashed() hook — a crashed process does no further work.
  void crash();

  /// True once crash() ran (the provider is a zombie awaiting lease lapse).
  [[nodiscard]] bool crashed() const { return crashed_; }

  [[nodiscard]] bool is_joined() const { return !joined_.empty(); }

  // --- Servicer ---------------------------------------------------------------

  util::Result<ExertionPtr> service(ExertionPtr exertion,
                                    registry::Transaction* txn) override;

  [[nodiscard]] const std::string& provider_name() const override {
    return name_;
  }

  // --- introspection ----------------------------------------------------------

  [[nodiscard]] const registry::ServiceId& service_id() const { return id_; }
  [[nodiscard]] const std::vector<std::string>& types() const { return types_; }
  [[nodiscard]] const registry::Entry& attributes() const { return attributes_; }
  [[nodiscard]] bool has_operation(const std::string& selector) const {
    return operations_.contains(selector);
  }
  [[nodiscard]] std::uint64_t invocation_count() const { return invocations_; }

  /// The ServiceItem this provider registers (useful for direct LUS tests).
  [[nodiscard]] registry::ServiceItem service_item();

  /// Failover hand-off: a replacement provider adopts whatever state of
  /// `predecessor` survives its crash (e.g. an ESP's DataLog, which then
  /// backfills the historian). Default: nothing carries over.
  virtual void assume_state_from(ServiceProvider& predecessor) {
    (void)predecessor;
  }

 protected:
  /// Per-provider invocation lock; subclasses coordinating their own state
  /// with operations may lock it too. Recursive because an operation that
  /// pumps the virtual-time scheduler (a composite's wire fan-out waiting on
  /// components) can have a queued request for this same provider dispatched
  /// on its own stack — that nested dispatch must not self-deadlock.
  std::recursive_mutex& invoke_mutex() { return mu_; }

  /// Called once from crash(): stop autonomous activity (timers, feeders).
  /// A crashed provider's registrations linger until the leases lapse, but
  /// the process behind them is gone — it must not keep sampling or pushing.
  virtual void on_crashed() {}

  /// Extra modeled latency charged to a task after `selector` ran, on top of
  /// the operation's static service time. Composite providers override this
  /// to surface the latency of the federated collection their operation
  /// triggered.
  virtual util::SimDuration extra_invocation_latency(
      const std::string& selector) const {
    (void)selector;
    return 0;
  }

 private:
  /// Endpoint handler installed by attach_network: executes wire requests
  /// and answers liveness pings.
  void handle_network_message(const simnet::Message& msg);

  struct OpRecord {
    Operation fn;
    util::SimDuration service_time;
  };
  struct Joined {
    std::weak_ptr<registry::LookupService> lus;
    registry::LeaseRenewalManager* lrm;
    util::Uuid lease_id;
  };

  std::string name_;
  registry::ServiceId id_;
  std::vector<std::string> types_;
  registry::Entry attributes_;
  std::map<std::string, OpRecord> operations_;
  std::vector<Joined> joined_;
  bool crashed_ = false;
  std::recursive_mutex mu_;
  std::uint64_t invocations_ = 0;
  simnet::Network* net_ = nullptr;
  simnet::Address net_addr_;
  /// Wire-path codec state: per-requestor intern tables plus the response
  /// payload buffer pool. Allocated on first fabric attachment.
  std::unique_ptr<WireCodecState> codec_;
};

/// Domain task peer: a plain ServiceProvider exporting the "Tasker" type.
/// Benches and tests install compute operations on it.
class Tasker final : public ServiceProvider {
 public:
  explicit Tasker(std::string name, std::vector<std::string> extra_types = {});
};

}  // namespace sensorcer::sorcer
