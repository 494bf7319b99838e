#pragma once
// Exertion tracing — correlates one façade request through discovery,
// exertion dispatch and the probe read it ultimately triggers.
//
// A TraceContext is a (trace id, span id) pair carried on exertions and on
// simnet messages as an extra, cost-modeled protocol header (kWireBytes —
// tracing overhead is itself measurable, like every other header in
// simnet/protocol.h). Spans record both virtual (sim) and wall-clock time
// and link to their parent, so a finished trace renders as a tree:
//
//   facade.getValue:New-Composite
//   └─ exert:New-Composite.collect
//      └─ job:New-Composite.collect
//         └─ exert:a
//            └─ invoke:Neem#getValue
//               └─ probe:Neem
//
// Propagation is explicit across a scatter-gather batch (the Jobber stamps
// each child exertion before scattering it) and implicit within one thread
// (a thread_local current context, scoped by ContextGuard).
//
// A span is named from parts — a static op plus views of names that already
// exist — joined into an inline buffer that the span and then its ring
// entry hold, so a warm span allocates nothing from start to record. Only
// snapshot()/trace() build std::string names, for the consumers.

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/scheduler.h"
#include "util/sim_time.h"

namespace sensorcer::obs {

/// Identity of an in-flight span, carried across layers and simnet hops.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool valid() const { return trace_id != 0; }

  /// Modeled serialized size when the context rides a network message
  /// (two 64-bit ids), charged as header bytes by simnet.
  static constexpr std::size_t kWireBytes = 16;
};

/// A finished span as the collector hands it out.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::string name;
  util::SimTime sim_start = 0;
  util::SimTime sim_end = 0;
  std::int64_t wall_start_us = 0;
  std::int64_t wall_end_us = 0;
  bool ok = true;
};

/// The parts whose concatenation names a span: a static op such as
/// "exert:" plus views of names that already exist, so no call site builds
/// a string to name a span.
using SpanNameParts = std::initializer_list<std::string_view>;

/// A span as it is carried while open and kept in the collector's ring once
/// finished. The name is joined into a fixed inline buffer, so starting,
/// finishing and recording a span allocate nothing. A name longer than the
/// buffer is kept whole in a heap copy that belongs to this entry alone.
struct SpanEntry {
  /// Room for the names the framework's read paths start: the longest in
  /// perfbench's workloads, "rpc:flow-sink:edge-mean->Historian", is 34.
  static constexpr std::size_t kInlineName = 48;

  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  util::SimTime sim_start = 0;
  util::SimTime sim_end = 0;
  std::int64_t wall_start_us = 0;
  std::int64_t wall_end_us = 0;
  char inline_name[kInlineName]{};
  std::unique_ptr<char[]> spilled_name;  // set only past kInlineName
  std::uint32_t name_size = 0;
  bool ok = true;

  void set_name(SpanNameParts parts);
  [[nodiscard]] std::string_view name() const {
    return {spilled_name ? spilled_name.get() : inline_name, name_size};
  }
  [[nodiscard]] SpanRecord to_record() const;
};

/// Bounded ring buffer of finished spans. Recording is thread-safe (spans
/// may finish on any thread); when full, the oldest span is overwritten and
/// counted as dropped.
class SpanCollector {
 public:
  explicit SpanCollector(std::size_t capacity = 8192);

  /// All retained spans, oldest first.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Retained spans belonging to `trace_id`, oldest first.
  [[nodiscard]] std::vector<SpanRecord> trace(std::uint64_t trace_id) const;

  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void clear();

 private:
  friend class Span;
  /// The one record path: Span::finish hands its entry over.
  void record(SpanEntry&& entry);

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<SpanEntry> ring_;  // reserved up front: recording never grows it
  std::size_t next_ = 0;  // ring_[next_] is the oldest once wrapped
  std::uint64_t recorded_ = 0;
};

class Tracer;

/// RAII span: finishes (stamps end times, records to the collector) on
/// destruction or an explicit finish(). Movable so it can cross optional<>
/// and return-value boundaries.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  /// Context to hand to children / stamp on messages and exertions.
  [[nodiscard]] TraceContext context() const {
    return {entry_.trace_id, entry_.span_id};
  }

  void set_ok(bool ok) { entry_.ok = ok; }

  /// Idempotent: stamps end times and records the span.
  void finish();

 private:
  friend class Tracer;

  SpanCollector* collector_ = nullptr;  // null = finished or empty
  SpanEntry entry_;
};

/// The calling thread's implicit trace context (invalid when outside any
/// ContextGuard scope).
[[nodiscard]] TraceContext current_context();

/// Span factory over one collector. start_span with an invalid parent opens
/// a new trace (the root span's id doubles as the trace id); the parent
/// defaults to the calling thread's current context.
class Tracer {
 public:
  explicit Tracer(SpanCollector& collector) : collector_(collector) {}

  /// Starts a span named by the concatenation of `name`.
  Span start_span(SpanNameParts name,
                  TraceContext parent = current_context());
  /// A one-part name.
  Span start_span(std::string_view name,
                  TraceContext parent = current_context()) {
    return start_span({name}, parent);
  }

  [[nodiscard]] SpanCollector& collector() { return collector_; }

 private:
  SpanCollector& collector_;
};

/// Scoped override of the thread's current context; restores on exit.
class ContextGuard {
 public:
  explicit ContextGuard(TraceContext ctx);
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  TraceContext previous_;
};

// --- process-wide plumbing ---------------------------------------------------

/// Global collector + tracer used by the layer instrumentation hooks.
SpanCollector& span_collector();
Tracer& tracer();

/// Source of virtual time for span timestamps. A Deployment points this at
/// its scheduler; spans started with no clock installed record sim time 0.
void set_sim_clock(const util::Scheduler* scheduler);
[[nodiscard]] const util::Scheduler* sim_clock();
[[nodiscard]] util::SimTime sim_now();

}  // namespace sensorcer::obs
