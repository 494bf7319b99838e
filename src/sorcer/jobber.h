#pragma once
// Jobber — the PUSH rendezvous peer. Coordinates job exertions: binds each
// child to a provider through the service accessor and drives the job's
// control strategy (sequential or parallel flow).
//
// Latency model: a job's virtual latency is the sum of child latencies under
// kSequence and the max under kParallel (plus a fixed per-child coordination
// overhead). Under kParallel the real invocations also run concurrently:
// in-process across the worker pool (providers serialize their own
// invocations), under wire transport as one scatter-gather batch whose
// round-trips overlap on the fabric — concurrency comes from the messaging
// layer there, not from threads.

#include <atomic>
#include <memory>

#include "sorcer/accessor.h"
#include "sorcer/provider.h"
#include "util/thread_pool.h"

namespace sensorcer::sorcer {

class Jobber : public ServiceProvider {
 public:
  /// `pool` may be null: parallel flow then executes inline but still uses
  /// the parallel (max) latency model.
  Jobber(std::string name, ServiceAccessor& accessor,
         util::ThreadPool* pool = nullptr);

  util::Result<ExertionPtr> service(ExertionPtr exertion,
                                    registry::Transaction* txn) override;

  /// Fixed coordination overhead charged per child exertion.
  static constexpr util::SimDuration kDispatchOverhead =
      200 * util::kMicrosecond;

  [[nodiscard]] std::uint64_t jobs_coordinated() const { return jobs_; }

 private:
  util::Result<ExertionPtr> run_child(const ExertionPtr& child,
                                      registry::Transaction* txn);
  void run_sequence(Job& job, registry::Transaction* txn);
  void run_parallel(Job& job, registry::Transaction* txn);

  ServiceAccessor& accessor_;
  util::ThreadPool* pool_;
  std::atomic<std::uint64_t> jobs_{0};  // nested jobs run on pool workers
};

}  // namespace sensorcer::sorcer
