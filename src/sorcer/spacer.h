#pragma once
// Spacer — the PULL rendezvous peer. Writes a job's tasks into the exertion
// space, takes every envelope back out, and dispatches the drained batch
// through the scatter-gather pipeline, where it overlaps on the fabric.
//
// Latency model: tasks are assigned greedily (in take order) to the
// earliest-free of `workers_` crew slots; the job pays the resulting
// makespan plus two space operations per task. With enough workers this
// converges to the Jobber's parallel model; with one worker it degenerates
// to sequential flow — the exertion bench shows the whole curve.

#include "sorcer/accessor.h"
#include "sorcer/provider.h"
#include "sorcer/space.h"

namespace sensorcer::sorcer {

class Spacer : public ServiceProvider {
 public:
  /// `workers` is the crew size of the makespan model.
  Spacer(std::string name, ServiceAccessor& accessor, ExertSpace& space,
         std::size_t workers);

  util::Result<ExertionPtr> service(ExertionPtr exertion,
                                    registry::Transaction* txn) override;

  /// Cost of one space write or take.
  static constexpr util::SimDuration kSpaceOpCost = 150 * util::kMicrosecond;

  [[nodiscard]] std::size_t worker_count() const { return workers_; }

 private:
  void execute_envelope(const ExertSpace::Envelope& env,
                        registry::Transaction* txn);

  ServiceAccessor& accessor_;
  ExertSpace& space_;
  std::size_t workers_;
};

}  // namespace sensorcer::sorcer
