#include "flow/operator.h"

#include <algorithm>
#include <utility>

#include "core/interfaces.h"
#include "hist/append_batch.h"
#include "obs/metrics.h"
#include "sorcer/exert.h"
#include "sorcer/exertion.h"
#include "util/strings.h"

namespace sensorcer::flow {

namespace {

struct FlowMetrics {
  obs::Counter& readings_in;
  obs::Counter& duplicates_dropped;
  obs::Counter& filtered_out;
  obs::Counter& emitted;
  obs::Counter& sink_pushed;
  obs::Counter& sink_failures;
  obs::Counter& frames_pushed;
  obs::Counter& frames_requeued;
  obs::Counter& dropped;
  obs::Counter& rebinds;
};

FlowMetrics& flow_metrics() {
  static FlowMetrics m{obs::metrics().counter("flow.readings_in"),
                       obs::metrics().counter("flow.duplicates_dropped"),
                       obs::metrics().counter("flow.filtered_out"),
                       obs::metrics().counter("flow.emitted"),
                       obs::metrics().counter("flow.sink_pushed"),
                       obs::metrics().counter("flow.sink_failures"),
                       obs::metrics().counter("flow.frames_pushed"),
                       obs::metrics().counter("flow.frames_requeued"),
                       obs::metrics().counter("flow.dropped"),
                       obs::metrics().counter("flow.rebinds")};
  return m;
}

registry::ServiceTemplate relay_template(const std::string& relay_name) {
  return registry::ServiceTemplate::by_name(sorcer::type::kFlowOperator,
                                            relay_name);
}

}  // namespace

// --- StageRunner -------------------------------------------------------------

StageRunner::StageRunner(std::string flow, CompiledStages stages,
                         SinkSpec sink, sorcer::ServiceAccessor& accessor,
                         util::Scheduler& scheduler, FlushConfig config)
    : flow_(std::move(flow)),
      stages_(std::move(stages)),
      sink_(std::move(sink)),
      accessor_(accessor),
      scheduler_(scheduler),
      config_(config) {
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (sink_.kind == SinkKind::kHistorian && config_.flush_period > 0) {
    flush_timer_ = scheduler_.schedule_every(config_.flush_period,
                                             [this] { flush_sink(); });
  }
}

StageRunner::~StageRunner() {
  scheduler_.cancel(flush_timer_);
  if (pending_flush_timer_ != 0) scheduler_.cancel(pending_flush_timer_);
}

bool StageRunner::ingest(const std::string& sensor,
                         const sensor::Reading& reading) {
  PerSensor& state = sensors_[sensor];
  // Replay dedup: a frame whose response was lost is re-sent by the source,
  // and after a relay failover the successor adopts the watermark — either
  // way an already-processed timestamp must not re-enter the window.
  if (reading.timestamp <= state.watermark) {
    ++counters_.duplicates_dropped;
    flow_metrics().duplicates_dropped.add(1);
    return false;
  }
  state.watermark = reading.timestamp;
  ++counters_.readings_in;
  flow_metrics().readings_in.add(1);

  if (stages_.has_filter) {
    const double slots[] = {reading.value};
    auto keep = stages_.filter.evaluate(slots);
    // An evaluation error (domain fault on this value) rejects the reading,
    // like a predicate returning false.
    if (!keep.is_ok() || keep.value() == 0.0) {
      ++counters_.filtered_out;
      flow_metrics().filtered_out.add(1);
      return true;
    }
  }

  sensor::Reading out;
  if (window_accept(state.window, reading, out)) emit(sensor, out);
  return true;
}

bool StageRunner::window_accept(WindowState& w, const sensor::Reading& reading,
                                sensor::Reading& out) {
  const auto fold = [&w](const sensor::Reading& r) {
    if (w.count == 0) {
      w.min = w.max = r.value;
    } else {
      w.min = std::min(w.min, r.value);
      w.max = std::max(w.max, r.value);
    }
    ++w.count;
    w.sum += r.value;
    w.last = r.value;
    w.last_timestamp = r.timestamp;
  };
  const auto close = [this, &w]() {
    sensor::Reading aggregate{w.last_timestamp, aggregate_value(w),
                             sensor::Quality::kGood, 0};
    w.count = 0;
    w.sum = 0.0;
    return aggregate;
  };

  switch (stages_.window.kind) {
    case WindowKind::kNone:
      out = reading;
      return true;
    case WindowKind::kCount:
      fold(reading);
      if (w.count >= stages_.window.count) {
        out = close();
        return true;
      }
      return false;
    case WindowKind::kTime: {
      const auto bucket = static_cast<std::int64_t>(
          reading.timestamp / stages_.window.span);
      if (w.bucket >= 0 && bucket != w.bucket && w.count > 0) {
        out = close();
        w.bucket = bucket;
        fold(reading);
        return true;
      }
      w.bucket = bucket;
      fold(reading);
      return false;
    }
  }
  return false;
}

double StageRunner::aggregate_value(const WindowState& w) const {
  switch (stages_.window.aggregate) {
    case Aggregate::kLast: return w.last;
    case Aggregate::kMean:
      return w.count > 0 ? w.sum / static_cast<double>(w.count) : 0.0;
    case Aggregate::kMin: return w.min;
    case Aggregate::kMax: return w.max;
    case Aggregate::kSum: return w.sum;
    case Aggregate::kCount: return static_cast<double>(w.count);
  }
  return w.last;
}

void StageRunner::emit(const std::string& sensor,
                       const sensor::Reading& reading) {
  sensor::Reading mapped = reading;
  if (stages_.has_map) {
    const double slots[] = {reading.value};
    auto value = stages_.map.evaluate(slots);
    if (!value.is_ok()) {
      ++counters_.dropped;
      flow_metrics().dropped.add(1);
      return;
    }
    mapped.value = value.value();
  }
  ++counters_.emitted;
  flow_metrics().emitted.add(1);
  deliver(sensor, mapped);
}

void StageRunner::deliver(const std::string& sensor,
                          const sensor::Reading& reading) {
  switch (sink_.kind) {
    case SinkKind::kHistorian:
      pending_.push_back(Emission{sensor, reading});
      while (pending_.size() > config_.pending_cap) {
        pending_.pop_front();
        ++counters_.dropped;
        flow_metrics().dropped.add(1);
      }
      if (pending_.size() >= config_.batch_size) schedule_flush();
      return;
    case SinkKind::kTrigger:
      sink_.trigger(sensor, reading);
      ++counters_.sink_pushed;
      flow_metrics().sink_pushed.add(1);
      return;
    case SinkKind::kListener: {
      registry::ServiceEvent event;
      event.sequence = ++event_sequence_;
      event.transition = registry::Transition::kMatchToMatch;
      event.timestamp = reading.timestamp;
      event.item.attributes.set("flow", flow_);
      event.item.attributes.set(registry::attr::kName, sensor);
      event.item.attributes.set("value", reading.value);
      event.item.attributes.set(
          "timestamp", static_cast<std::int64_t>(reading.timestamp));
      sink_.listener(event);
      ++counters_.sink_pushed;
      flow_metrics().sink_pushed.add(1);
      return;
    }
  }
}

void StageRunner::schedule_flush() {
  if (flush_scheduled_ || flushing_) return;
  flush_scheduled_ = true;
  // Zero-delay timer: sink pushes pump the fabric, so they must start from
  // a scheduler callback, never from the middle of an ingest.
  pending_flush_timer_ = scheduler_.schedule_after(0, [this] {
    flush_scheduled_ = false;
    pending_flush_timer_ = 0;
    flush_sink();
  });
}

std::size_t StageRunner::flush_sink() {
  if (flushing_ || pending_.empty()) return 0;
  flushing_ = true;
  std::vector<Emission> window(pending_.begin(), pending_.end());
  pending_.clear();

  // Group the window by sensor (emissions from concurrent flows interleave
  // S0,S1,S2,...) and marshal the groups with the historian feeders' batch
  // builder: multi-series appendBatch chunks, pipelined as a single
  // scatter-gather batch. Per-sensor order is preserved; order across
  // sensors is immaterial (distinct series). Emissions land under the
  // flow-qualified series so they never collide with the feeder's raw push
  // of the same sensor — and the historian's timestamp dedup still makes
  // chunk replays after a lost response idempotent.
  std::vector<std::pair<std::string, std::vector<sensor::Reading>>> groups;
  for (const Emission& emission : window) {
    auto it = std::find_if(
        groups.begin(), groups.end(),
        [&](const auto& g) { return g.first == emission.sensor; });
    if (it == groups.end()) {
      groups.emplace_back(emission.sensor, std::vector<sensor::Reading>{});
      it = std::prev(groups.end());
    }
    it->second.push_back(emission.reading);
  }
  std::vector<std::string> series;
  std::vector<hist::SeriesSlice> slices;
  series.reserve(groups.size());
  slices.reserve(groups.size());
  for (const auto& [sensor, readings] : groups) {
    series.push_back(flow_ + "/" + sensor);
    slices.push_back({series.back(), readings});
  }
  std::vector<std::size_t> first_chunk;
  const std::vector<sorcer::ExertionPtr> chunks = hist::make_append_batches(
      slices, config_.max_batch, "flow-sink:" + flow_, first_chunk);
  (void)sorcer::exert_all(chunks, accessor_);

  std::size_t total = 0;
  for (const sorcer::ExertionPtr& chunk : chunks) {
    if (chunk->status() != sorcer::ExertStatus::kDone) {
      ++counters_.sink_failures;
      flow_metrics().sink_failures.add(1);
    }
  }
  std::vector<Emission> requeue;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& [sensor, readings] = groups[g];
    for (std::size_t j = 0; j < readings.size(); ++j) {
      // The group's j-th reading rode chunk first_chunk[g] + j / max_batch.
      if (chunks[first_chunk[g] + j / config_.max_batch]->status() ==
          sorcer::ExertStatus::kDone) {
        ++total;
      } else {
        requeue.push_back(Emission{sensor, readings[j]});
      }
    }
  }
  counters_.sink_pushed += total;
  flow_metrics().sink_pushed.add(total);
  if (!requeue.empty()) {
    pending_.insert(pending_.begin(), requeue.begin(), requeue.end());
  }
  flushing_ = false;
  return total;
}

void StageRunner::adopt(StageRunner& predecessor) {
  // The successor is freshly built: take over the per-sensor watermarks and
  // mid-accumulation windows wholesale, put the predecessor's un-pushed
  // emissions ahead of anything local, and carry the counters so flow stats
  // survive the failover.
  sensors_ = predecessor.sensors_;
  pending_.insert(pending_.begin(), predecessor.pending_.begin(),
                  predecessor.pending_.end());
  predecessor.pending_.clear();
  event_sequence_ = std::max(event_sequence_, predecessor.event_sequence_);
  counters_.readings_in += predecessor.counters_.readings_in;
  counters_.duplicates_dropped += predecessor.counters_.duplicates_dropped;
  counters_.filtered_out += predecessor.counters_.filtered_out;
  counters_.emitted += predecessor.counters_.emitted;
  counters_.sink_pushed += predecessor.counters_.sink_pushed;
  counters_.sink_failures += predecessor.counters_.sink_failures;
  counters_.dropped += predecessor.counters_.dropped;
  if (!pending_.empty()) schedule_flush();
}

// --- FlowOperator ------------------------------------------------------------

FlowOperator::FlowOperator(std::string name, std::string flow,
                           CompiledStages stages, SinkSpec sink,
                           sorcer::ServiceAccessor& accessor,
                           util::Scheduler& scheduler, FlushConfig config)
    : ServiceProvider(std::move(name), {sorcer::type::kFlowOperator}),
      runner_(std::make_unique<StageRunner>(std::move(flow), std::move(stages),
                                            std::move(sink), accessor,
                                            scheduler, config)) {
  registry::Entry attrs;
  attrs.set("flow", runner_->flow());
  set_attributes(attrs);

  add_operation(
      sorcer::op::kPushFrame,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        if (retired_) {
          return {util::ErrorCode::kUnavailable,
                  "flow operator retired (state handed to successor)"};
        }
        if (util::Status s = unmarshal_frame_into(ctx, rx_frame_);
            !s.is_ok()) {
          return s;
        }
        std::int64_t accepted = 0;
        std::int64_t duplicates = 0;
        for (std::size_t i = 0; i < rx_frame_.size(); ++i) {
          if (runner_->ingest(rx_frame_.sensor, rx_frame_.reading_at(i))) {
            ++accepted;
          } else {
            ++duplicates;
          }
        }
        ctx.put(path::kAccepted, accepted, sorcer::PathDirection::kOut);
        ctx.put(path::kDuplicates, duplicates, sorcer::PathDirection::kOut);
        return util::Status::ok();
      },
      500 * util::kMicrosecond);
}

void FlowOperator::assume_state_from(sorcer::ServiceProvider& predecessor) {
  auto* relay = dynamic_cast<FlowOperator*>(&predecessor);
  if (relay == nullptr) return;
  runner_->adopt(relay->runner());
  // The dead node's instance stays attached to the fabric until destroyed;
  // without retirement a late frame would be absorbed there — after the
  // state hand-off — and be lost to the flow forever.
  relay->retire();
}

// --- FlowSource --------------------------------------------------------------

FlowSource::FlowSource(std::string flow, std::string sensor,
                       std::string relay_name, util::Scheduler& scheduler,
                       sorcer::ServiceAccessor& accessor, FlushConfig config)
    : flow_(std::move(flow)),
      sensor_(std::move(sensor)),
      relay_name_(std::move(relay_name)),
      scheduler_(scheduler),
      accessor_(accessor),
      config_(config),
      pool_(config.batch_size ? config.batch_size : 1) {
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.flush_period > 0) {
    flush_timer_ =
        scheduler_.schedule_every(config_.flush_period, [this] { flush(); });
  }
}

FlowSource::~FlowSource() {
  scheduler_.cancel(flush_timer_);
  if (pending_flush_timer_ != 0) scheduler_.cancel(pending_flush_timer_);
  unbind();
}

void FlowSource::bind(const std::shared_ptr<registry::LookupService>& lus,
                      registry::LeaseRenewalManager& lrm) {
  unbind();
  lus_ = lus;
  lrm_ = &lrm;
  registry::EventRegistration reg = lus->notify(
      relay_template(relay_name_), registry::kAllTransitions,
      [this](const registry::ServiceEvent& event) { on_transition(event); },
      config_.subscription_lease);
  subscription_id_ = reg.id;
  subscription_lease_ = reg.lease.id;
  lrm.manage(reg.lease, lus, config_.subscription_lease);
  bound_ = lus->lookup_one(relay_template(relay_name_)).is_ok();
  if (bound_ && !queued_.empty()) schedule_flush();
}

void FlowSource::unbind() {
  if (auto lus = lus_.lock()) {
    if (lrm_ != nullptr && !subscription_lease_.is_nil()) {
      lrm_->release(subscription_lease_);
    }
    if (!subscription_id_.is_nil()) {
      (void)lus->cancel_notify(subscription_id_);
    }
  }
  lus_.reset();
  lrm_ = nullptr;
  subscription_id_ = util::Uuid{};
  subscription_lease_ = util::Uuid{};
  bound_ = false;
}

void FlowSource::on_transition(const registry::ServiceEvent& event) {
  if (event.transition == registry::Transition::kNoMatchToMatch) {
    if (!bound_) {
      bound_ = true;
      ++rebinds_;
      flow_metrics().rebinds.add(1);
      // The relay moved: a cached resolution for its name would point at
      // the retired instance until its lease lapses; start clean.
      accessor_.clear_cache();
    }
    if (pending_readings() > 0) schedule_flush();
    return;
  }
  if (event.transition == registry::Transition::kMatchToNoMatch) {
    auto lus = lus_.lock();
    bound_ =
        lus != nullptr && lus->lookup_one(relay_template(relay_name_)).is_ok();
  }
}

void FlowSource::seal_current() {
  if (!current_open_ || current_.empty()) return;
  queued_.push_back(std::move(current_));
  current_ = FlowFrame{};
  current_open_ = false;
  std::size_t total = pending_readings();
  while (total > config_.pending_cap && !queued_.empty()) {
    const std::size_t n = queued_.front().size();
    pool_.release(std::move(queued_.front()));
    queued_.pop_front();
    dropped_ += n;
    flow_metrics().dropped.add(n);
    total = pending_readings();
  }
}

void FlowSource::offer(const sensor::Reading& reading) {
  if (!current_open_) {
    current_ = pool_.acquire();
    current_.sensor = sensor_;
    current_open_ = true;
  }
  current_.push(reading);
  if (current_.size() >= config_.batch_size) {
    seal_current();
    if (bound_) schedule_flush();
  }
}

std::size_t FlowSource::pending_readings() const {
  std::size_t total = current_open_ ? current_.size() : 0;
  for (const auto& frame : queued_) total += frame.size();
  return total;
}

void FlowSource::schedule_flush() {
  if (flush_scheduled_ || flushing_) return;
  flush_scheduled_ = true;
  pending_flush_timer_ = scheduler_.schedule_after(0, [this] {
    flush_scheduled_ = false;
    pending_flush_timer_ = 0;
    flush();
  });
}

std::size_t FlowSource::flush() {
  if (flushing_ || !bound_) return 0;
  seal_current();
  if (queued_.empty()) return 0;
  flushing_ = true;
  std::vector<FlowFrame> frames(std::make_move_iterator(queued_.begin()),
                                std::make_move_iterator(queued_.end()));
  queued_.clear();

  // All queued frames leave as one scatter-gather batch: K frames overlap
  // their wire round-trips instead of serializing. The relay is pinned by
  // instance name — there is exactly one legitimate target, so failures are
  // re-queued for the rebind path rather than substituted away.
  std::vector<sorcer::ExertionPtr> batch;
  batch.reserve(frames.size());
  for (const FlowFrame& frame : frames) {
    auto task = sorcer::Task::make(
        "flow-push:" + flow_ + ":" + sensor_,
        {sorcer::type::kFlowOperator, sorcer::op::kPushFrame, relay_name_});
    marshal_frame(flow_, frame, task->context());
    batch.push_back(std::move(task));
  }
  (void)sorcer::exert_all(batch, accessor_);

  std::size_t pushed = 0;
  std::vector<FlowFrame> requeue;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i]->status() == sorcer::ExertStatus::kDone) {
      ++frames_pushed_;
      pushed += frames[i].size();
      readings_pushed_ += frames[i].size();
      flow_metrics().frames_pushed.add(1);
      pool_.release(std::move(frames[i]));
    } else {
      ++frames_requeued_;
      flow_metrics().frames_requeued.add(1);
      requeue.push_back(std::move(frames[i]));
    }
  }
  for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
    queued_.push_front(std::move(*it));
  }
  flushing_ = false;
  return pushed;
}

}  // namespace sensorcer::flow
