#pragma once
// Closed-loop driver shared by tree_read and dashboard: one client issues
// the next façade request only after the previous one returns, from the
// one thread that may pump a wire deployment's scheduler.
//
// Untraced run: three fresh deployments (same seed) each get set up,
// warmed until per-op cost stops drifting, and timed for a third of
// --seconds. setup_s is the median of the episodes' set-up times.
// Deterministic columns (virt_ms, wire_bytes_per_op) come from the first
// `cycle` timed ops, which walk the seeded op sequence once; the timed
// phase always covers at least that many.
//
// Traced run: one deployment; a seeded coin sends each op to the untraced
// side (the in-run reference) or the traced side, which wraps the op in a
// span, takes counter deltas around it, and calls the workload's layer
// probes after it.

#include <cstddef>

#include "harness.h"

namespace perfbench {

class ClosedLoopWorkload {
 public:
  virtual ~ClosedLoopWorkload() = default;

  /// Boot a fresh deployment and load its inputs.
  virtual void setup() = 0;
  virtual void teardown() = 0;
  virtual sensorcer::core::Deployment& lab() = 0;

  /// Op `i` of the seeded sequence: only the façade call, which the caller
  /// times. The result is kept for check().
  virtual void call(std::size_t i) = 0;

  /// Checks the output of the call just made (outside the timed region);
  /// records failures on `out`.
  virtual void check(std::size_t i, Outcome& out) = 0;

  /// Ops per warm-up block (about 50 ms of work).
  [[nodiscard]] virtual std::size_t warm_block() const = 0;

  /// Adds workload-specific report lines (store shape and the like);
  /// called once per run, before the last teardown.
  virtual void report(Outcome& /*out*/) {}

  /// Span name of the op in the traced run.
  [[nodiscard]] virtual const char* op_span() const = 0;

  /// Traced run only: call the layer entry points on op `i`'s inputs, each
  /// wrapped in a span on `log`.
  virtual void probe(std::size_t i, SpanLog& log) = 0;

  /// Traced run only: derive the per-layer unit costs and shares.
  /// `op_wall_us` is the mean traced op wall time, `delta` the counters
  /// accumulated over `ops` traced ops.
  virtual void layer_metrics(Outcome& out, const SpanLog& log,
                             const Counters& delta, double ops,
                             double op_wall_us) = 0;
};

/// Runs `w` per `options` and returns what it measured. `cycle` is the length of
/// the seeded op sequence the deterministic columns are taken over.
Outcome run_closed_loop(const Options& options, ClosedLoopWorkload& w,
                        std::size_t cycle);

}  // namespace perfbench
