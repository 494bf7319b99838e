#pragma once
// Jobber — the PUSH rendezvous peer. Coordinates job exertions: binds each
// child to a provider through the service accessor and drives the job's
// control strategy (sequential or parallel flow).
//
// Latency model: a job's virtual latency is the sum of child latencies
// (plus a fixed per-child coordination overhead) under kSequence, and the
// slowest child plus one batch-dispatch overhead under kParallel. Under
// kParallel the real invocations also run concurrently, as one
// scatter-gather batch whose round-trips overlap on the fabric —
// concurrency comes from the messaging layer, not from threads.

#include <atomic>
#include <memory>

#include "sorcer/accessor.h"
#include "sorcer/provider.h"

namespace sensorcer::sorcer {

class Jobber : public ServiceProvider {
 public:
  Jobber(std::string name, ServiceAccessor& accessor);

  util::Result<ExertionPtr> service(ExertionPtr exertion,
                                    registry::Transaction* txn) override;

  /// Fixed coordination overhead charged per sequential child, and once per
  /// parallel batch.
  static constexpr util::SimDuration kDispatchOverhead =
      200 * util::kMicrosecond;

  [[nodiscard]] std::uint64_t jobs_coordinated() const { return jobs_; }

 private:
  util::Result<ExertionPtr> run_child(const ExertionPtr& child,
                                      registry::Transaction* txn);
  void run_sequence(Job& job, registry::Transaction* txn);
  void run_parallel(Job& job, registry::Transaction* txn);

  ServiceAccessor& accessor_;
  // Atomic: concurrent readers of one composite may each drive a job here.
  std::atomic<std::uint64_t> jobs_{0};
};

}  // namespace sensorcer::sorcer
