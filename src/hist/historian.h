#pragma once
// Historian — the federated sensor-data historian provider (PR 4 tentpole).
//
// A ServiceProvider exporting the "DataCollection" interface. ESPs push
// reading batches at it through the invocation pipeline (appendBatch, one
// or many series per call — see append_batch.h);
// requestors query ranges, aggregates and downsampled series through the
// same pipeline (histStats / histRange / histDownsample), typically via
// SensorcerFacade. Storage is a HistorianStore: per-sensor sharded segments
// of an active block + compressed sealed chain + demoted tiers, plus
// multi-resolution rollup rings, so wide aggregate queries are answered
// from O(buckets) rollup state instead of rescanning readings.
//
// Every operation, ingest and query alike, runs on the thread that
// dispatches it, under the provider's invocation lock: the query ops call
// the store directly. Concurrency between dashboard requests comes from
// their round trips overlapping on the fabric, not from threads.

#include <string>
#include <vector>

#include "hist/store.h"
#include "sensor/reading.h"
#include "sorcer/provider.h"
#include "util/sim_time.h"

namespace sensorcer::hist {

/// Modeled execution costs of the historian's operations.
struct HistorianCosts {
  /// Fixed per-call dispatch cost of every operation.
  util::SimDuration base = 200 * util::kMicrosecond;
  /// Per-reading ingest cost charged on top of `base` for appendBatch —
  /// batching n readings costs base + n*per_reading, vs n*(base+...) for
  /// single-reading pushes.
  util::SimDuration per_reading = 2 * util::kMicrosecond;
  /// Per-result-point cost charged to range/downsample responses.
  util::SimDuration per_point = 1 * util::kMicrosecond;
};

class Historian final : public sorcer::ServiceProvider {
 public:
  explicit Historian(std::string name, HistorianConfig config = {},
                     HistorianCosts costs = {});

  [[nodiscard]] HistorianStore& store() { return store_; }
  [[nodiscard]] const HistorianStore& store() const { return store_; }

  /// Decode one series' parallel columns back into readings, clamped to
  /// the shorter of timestamps/values (the single-series case of
  /// for_each_series in append_batch.h).
  static std::vector<sensor::Reading> decode_batch(
      const std::vector<double>& timestamps, const std::vector<double>& values,
      const std::vector<double>& qualities);

 protected:
  /// Ingest/query costs scale with the work the last operation did.
  util::SimDuration extra_invocation_latency(
      const std::string& selector) const override;

 private:
  void install_operations();

  HistorianStore store_;
  HistorianCosts costs_;
  /// Work-proportional latency of the operation just executed; read by
  /// extra_invocation_latency under the provider's invocation lock.
  util::SimDuration pending_extra_ = 0;
  /// appendBatch scratch, reused under the invocation lock: one series'
  /// decoded readings and its name.
  std::vector<sensor::Reading> batch_;
  std::string series_name_;
  /// histRange / histDownsample answer, filled in place under the
  /// invocation lock before it is copied into the reply columns; its
  /// storage is kept between queries up to kMaxKeptPoints.
  SeriesResult result_;
};

}  // namespace sensorcer::hist
