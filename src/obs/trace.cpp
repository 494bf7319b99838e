#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <utility>

namespace sensorcer::obs {

namespace {

std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<const util::Scheduler*> g_sim_clock{nullptr};
thread_local TraceContext t_current_context{};

std::int64_t wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SpanEntry::set_name(SpanNameParts parts) {
  std::size_t size = 0;
  for (std::string_view part : parts) size += part.size();
  char* out = inline_name;
  spilled_name.reset();
  if (size > kInlineName) {
    spilled_name = std::make_unique_for_overwrite<char[]>(size);
    out = spilled_name.get();
  }
  for (std::string_view part : parts) out += part.copy(out, part.size());
  name_size = static_cast<std::uint32_t>(size);
}

SpanRecord SpanEntry::to_record() const {
  return {trace_id,  span_id, parent_id,     std::string(name()),
          sim_start, sim_end, wall_start_us, wall_end_us,
          ok};
}

SpanCollector::SpanCollector(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void SpanCollector::record(SpanEntry&& entry) {
  std::lock_guard lock(mu_);
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(entry));
    return;
  }
  ring_[next_] = std::move(entry);
  next_ = (next_ + 1) % capacity_;
}

std::vector<SpanRecord> SpanCollector::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()].to_record());
  }
  return out;
}

std::vector<SpanRecord> SpanCollector::trace(std::uint64_t trace_id) const {
  std::vector<SpanRecord> out;
  for (auto& span : snapshot()) {
    if (span.trace_id == trace_id) out.push_back(std::move(span));
  }
  return out;
}

std::uint64_t SpanCollector::recorded() const {
  std::lock_guard lock(mu_);
  return recorded_;
}

std::uint64_t SpanCollector::dropped() const {
  std::lock_guard lock(mu_);
  return recorded_ - ring_.size();
}

void SpanCollector::clear() {
  std::lock_guard lock(mu_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

Span::Span(Span&& other) noexcept
    : collector_(std::exchange(other.collector_, nullptr)),
      entry_(std::move(other.entry_)) {}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    finish();
    collector_ = std::exchange(other.collector_, nullptr);
    entry_ = std::move(other.entry_);
  }
  return *this;
}

void Span::finish() {
  if (collector_ == nullptr) return;
  entry_.sim_end = sim_now();
  entry_.wall_end_us = wall_now_us();
  collector_->record(std::move(entry_));
  collector_ = nullptr;
}

Span Tracer::start_span(SpanNameParts name, TraceContext parent) {
  Span span;
  SpanEntry& entry = span.entry_;
  entry.span_id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  if (parent.valid()) {
    entry.trace_id = parent.trace_id;
    entry.parent_id = parent.span_id;
  } else {
    entry.trace_id = entry.span_id;  // root span opens the trace
  }
  entry.set_name(name);
  entry.sim_start = sim_now();
  entry.wall_start_us = wall_now_us();
  span.collector_ = &collector_;
  return span;
}

TraceContext current_context() { return t_current_context; }

ContextGuard::ContextGuard(TraceContext ctx)
    : previous_(std::exchange(t_current_context, ctx)) {}

ContextGuard::~ContextGuard() { t_current_context = previous_; }

SpanCollector& span_collector() {
  static SpanCollector instance;
  return instance;
}

Tracer& tracer() {
  static Tracer instance{span_collector()};
  return instance;
}

void set_sim_clock(const util::Scheduler* scheduler) {
  g_sim_clock.store(scheduler, std::memory_order_release);
}

const util::Scheduler* sim_clock() {
  return g_sim_clock.load(std::memory_order_acquire);
}

util::SimTime sim_now() {
  const util::Scheduler* clock = sim_clock();
  return clock == nullptr ? 0 : clock->now();
}

}  // namespace sensorcer::obs
