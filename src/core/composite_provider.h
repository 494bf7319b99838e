#pragma once
// Composite Sensor Provider (CSP) — the aggregate of §V.B.
//
// A CSP composes elementary and other composite sensor services, binds each
// component to a dynamically created expression variable (a, b, c, ... in
// composition order), collects component values through the exertion
// federation, and computes its own value from them. Because a CSP can
// contain CSPs, logical sensor networking — and all of network management —
// "is reduced to the management of a single CSP".
//
// The read path is optimized for heavy traffic:
//   * the collection job (one task per component) is prebuilt once and
//     renewed for every read; it is rebuilt only after a composition change
//     or when something else still holds it (a request parked on the
//     fabric after a timeout), so a warm read builds no exertion;
//   * reads newer than the policy's freshness window are served from the
//     cached collection without any fan-out;
//   * concurrent collections coalesce — N simultaneous readers pay one
//     fan-out (single-flight);
//   * with no rendezvous peer on the network, the direct fallback issues the
//     job's tasks as one scatter-gather batch overlapped on the fabric,
//     under the same slowest-child latency model the Jobber uses, instead of
//     a sequential child-latency sum.

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/interfaces.h"
#include "core/sensor_computation.h"
#include "sorcer/accessor.h"
#include "sorcer/exert.h"
#include "sorcer/provider.h"
#include "util/scheduler.h"

namespace sensorcer::core {

/// How a CSP gathers component values.
struct CollectionPolicy {
  /// Child requests federate through a rendezvous peer when one is on the
  /// network (parallel push by default); with no rendezvous available the
  /// CSP degrades to one direct scatter-gather batch.
  sorcer::ControlStrategy strategy{sorcer::Flow::kParallel,
                                   sorcer::Access::kPush, true};
  /// Strict: any unreachable component fails the read. Lenient: missing
  /// components are skipped — but only for the default (average)
  /// computation, since an expression needs every variable bound.
  bool strict = true;
  /// Reads within `freshness` of the last completed collection are served
  /// from the cached component values (stamped with the collection time);
  /// 0 disables the cache and every read re-collects.
  util::SimDuration freshness = 0;
};

class CompositeSensorProvider : public sorcer::ServiceProvider,
                                public SensorDataAccessor {
 public:
  CompositeSensorProvider(std::string name, sorcer::ServiceAccessor& accessor,
                          util::Scheduler& scheduler,
                          CollectionPolicy policy = {});

  // --- composition ---------------------------------------------------------

  /// Compose the sensor service registered under `service_name`. The
  /// component gets the next free variable ('a', 'b', ...). Fails when the
  /// service cannot be found, is not a SensorDataAccessor, or would create
  /// a containment cycle.
  util::Status add_component(const std::string& service_name);

  /// Remove a composed component by service name. Remaining components keep
  /// their variables; the expression is cleared if it referenced the freed
  /// variable, and re-bound to the shifted value order otherwise.
  util::Status remove_component(const std::string& service_name);

  [[nodiscard]] std::size_t component_count() const {
    return components_.size();
  }
  [[nodiscard]] std::vector<std::string> component_names() const;
  [[nodiscard]] std::vector<std::string> component_variables() const;

  // --- computation -----------------------------------------------------------

  /// Attach a compute expression over the component variables.
  util::Status set_expression(const std::string& source);
  [[nodiscard]] std::string expression() const {
    return computation_.expression_source();
  }

  // --- SensorDataAccessor ------------------------------------------------------

  util::Result<double> get_value() override;
  util::Result<sensor::Reading> get_reading() override;
  [[nodiscard]] SensorInfo info() const override;

  /// Failover hand-off: adopt the predecessor composite's composition and
  /// expression (components are re-resolved by name, so a cascade restart
  /// rebinds to whatever instances currently serve those names).
  void assume_state_from(sorcer::ServiceProvider& predecessor) override;

  /// Modeled latency of the most recent component collection (federated job
  /// or direct fan-out; zero when the read was served from the freshness
  /// cache or coalesced onto another reader's flight). Charged on top of
  /// the getValue operation when the composite is read through an exertion.
  [[nodiscard]] util::SimDuration last_collection_latency() const {
    return last_collection_latency_.load(std::memory_order_relaxed);
  }

 protected:
  util::SimDuration extra_invocation_latency(
      const std::string& selector) const override {
    return selector == op::kGetValue ? last_collection_latency() : 0;
  }

 private:
  struct Component {
    registry::ServiceId id;
    std::string name;
    std::string variable;
  };

  /// Provenance of one collection, for quality stamping. The values land
  /// in `values`: per component in composition order, nullopt when the
  /// component was unreachable or failed.
  struct Collected {
    util::SimTime at = 0;
    bool from_cache = false;
  };

  void install_operations();

  /// A collection job for the current composition: one task per component,
  /// named by its variable and pinned to the component's service, under the
  /// policy's strategy made lenient (strictness is enforced per component
  /// after the fan-out). Called with `collect_mu_` held.
  std::shared_ptr<sorcer::Job> build_collection() const;

  /// Collect current values of all components into `values`, honouring
  /// the freshness cache and coalescing concurrent callers onto one
  /// in-flight fan-out. `values` lines up with the composition current at
  /// return: a flight that a composition change overtakes collects again.
  Collected collect(std::vector<std::optional<double>>& values);

  /// The actual fan-out of `job` (renewed first): federated when a
  /// rendezvous peer exists, else one direct scatter-gather batch of its
  /// tasks. Fills `values` and the modeled latency.
  void fan_out(const std::shared_ptr<sorcer::Job>& job,
               std::vector<std::optional<double>>& values,
               util::SimDuration* latency);

  /// Shared implementation behind get_value/get_reading.
  util::Result<double> read_value(Collected* collected_out);

  /// Drop the cached collection (and, when `composition_changed`, the idle
  /// collection job, which a flight still in the air will not put back).
  /// Called on composition and expression changes.
  void invalidate_cache(bool composition_changed);

  /// True if `candidate` (a composite) contains *this transitively.
  bool would_cycle(const SensorDataAccessor& candidate) const;

  sorcer::ServiceAccessor& accessor_;
  util::Scheduler& scheduler_;
  CollectionPolicy policy_;
  std::vector<Component> components_;
  SensorComputation computation_;
  std::size_t next_variable_ = 0;
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<util::SimDuration> last_collection_latency_{0};

  // Collection cache + single-flight state. `collect_mu_` guards everything
  // below; the fan-out itself runs with the mutex released so concurrent
  // readers can coalesce instead of queueing.
  std::mutex collect_mu_;
  std::condition_variable collect_cv_;
  // The collection job between reads; null while a flight holds it or
  // after a composition change (the next collect builds a fresh one). A
  // landing flight puts its job back only when nothing else references it
  // or its children and `composition_` has not moved since it took off.
  std::shared_ptr<sorcer::Job> idle_job_;
  std::uint64_t composition_ = 0;  // bumped on every composition change
  bool cache_valid_ = false;
  util::SimTime cache_time_ = 0;
  std::vector<std::optional<double>> cached_values_;
  bool collect_in_flight_ = false;
  std::thread::id collect_owner_{};       // thread driving the in-flight fan-out
  std::uint64_t collect_generation_ = 0;  // bumped when a flight lands
};

}  // namespace sensorcer::core
