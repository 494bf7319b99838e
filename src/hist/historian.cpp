#include "hist/historian.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/interfaces.h"
#include "hist/append_batch.h"
#include "sorcer/context.h"

namespace sensorcer::hist {

namespace {

/// Time/duration inputs ride as int64 or double (batch arrays are doubles).
util::Result<util::SimTime> get_time(const sorcer::ServiceContext& ctx,
                                     const std::string& path) {
  auto raw = ctx.get(path);
  if (!raw.is_ok()) return raw.status();
  if (const auto* i = std::get_if<std::int64_t>(&raw.value())) return *i;
  if (const auto* d = std::get_if<double>(&raw.value())) {
    return static_cast<util::SimTime>(*d);
  }
  return util::Result<util::SimTime>(util::ErrorCode::kInvalidArgument,
                                     "not a time: " + path);
}

/// The reply column at `path`: the entry's existing series storage (a
/// renewed shell's spare entry still holds an earlier page's values),
/// emptied for the caller to fill whole.
std::vector<double>& reply_column(sorcer::ServiceContext& ctx,
                                  const char* path) {
  sorcer::ContextValue& slot =
      ctx.merge_slot(path, sorcer::PathDirection::kOut);
  if (auto* column = std::get_if<std::vector<double>>(&slot)) {
    column->clear();
    return *column;
  }
  return slot.emplace<std::vector<double>>();
}

void put_points(sorcer::ServiceContext& ctx, const SeriesResult& result) {
  // Each reference is done with before the next merge_slot may move the
  // entries.
  std::vector<double>& timestamps =
      reply_column(ctx, core::path::kHistTimestamps);
  timestamps.reserve(result.points.size());
  for (const Point& p : result.points) {
    timestamps.push_back(static_cast<double>(p.timestamp));
  }
  std::vector<double>& values = reply_column(ctx, core::path::kHistValues);
  values.reserve(result.points.size());
  for (const Point& p : result.points) values.push_back(p.value);
  ctx.put(core::path::kHistSource, result.source, sorcer::PathDirection::kOut);
  ctx.put(core::path::kHistTruncated, result.truncated,
          sorcer::PathDirection::kOut);
}

}  // namespace

Historian::Historian(std::string name, HistorianConfig config,
                     HistorianCosts costs)
    : ServiceProvider(std::move(name), {core::kDataCollectionType}),
      store_(std::move(config)),
      costs_(costs) {
  install_operations();
}

std::vector<sensor::Reading> Historian::decode_batch(
    const std::vector<double>& timestamps, const std::vector<double>& values,
    const std::vector<double>& qualities) {
  std::vector<sensor::Reading> out;
  decode_readings(timestamps, values, qualities, 0,
                  std::min(timestamps.size(), values.size()), out);
  return out;
}

util::SimDuration Historian::extra_invocation_latency(
    const std::string& selector) const {
  (void)selector;
  return pending_extra_;
}

void Historian::install_operations() {
  add_operation(
      core::op::kAppendBatch,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        pending_extra_ = 0;
        // Borrow the chunk's columns in place and append it series by
        // series; the borrowed views are done with before any put() below
        // moves the entry storage.
        ChunkLayout chunk;
        if (util::Status ok = read_chunk_layout(ctx, chunk); !ok.is_ok()) {
          return ok;
        }
        AppendOutcome total;
        for_each_series(chunk, batch_,
                        [&](std::string_view sensor,
                            std::span<const sensor::Reading> readings) {
                          series_name_.assign(sensor);
                          const AppendOutcome outcome =
                              store_.append(series_name_, readings);
                          total.accepted += outcome.accepted;
                          total.duplicates += outcome.duplicates;
                        });
        pending_extra_ = static_cast<util::SimDuration>(
                             chunk.timestamps.size()) *
                         costs_.per_reading;
        ctx.put(core::path::kHistAccepted,
                static_cast<std::int64_t>(total.accepted),
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistDuplicates,
                static_cast<std::int64_t>(total.duplicates),
                sorcer::PathDirection::kOut);
        return util::Status::ok();
      },
      costs_.base);

  add_operation(
      core::op::kHistStats,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        pending_extra_ = 0;
        auto sensor_name = ctx.get_string(core::path::kHistSensor);
        if (!sensor_name.is_ok()) return sensor_name.status();
        auto from = get_time(ctx, core::path::kHistFrom);
        if (!from.is_ok()) return from.status();
        auto to = get_time(ctx, core::path::kHistTo);
        if (!to.is_ok()) return to.status();
        util::SimDuration resolution = 0;
        if (ctx.has(core::path::kHistResolution)) {
          auto r = get_time(ctx, core::path::kHistResolution);
          if (r.is_ok()) resolution = r.value();
        }
        const StatsResult result = store_.stats(
            sensor_name.value(), from.value(), to.value(), resolution);
        ctx.put(core::path::kHistCount,
                static_cast<std::int64_t>(result.stats.count),
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistMin, result.stats.min,
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistMax, result.stats.max,
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistSum, result.stats.sum,
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistMean, result.stats.mean(),
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistLast, result.stats.last,
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistSource, result.source,
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistFromEffective,
                static_cast<std::int64_t>(result.from_effective),
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistToEffective,
                static_cast<std::int64_t>(result.to_effective),
                sorcer::PathDirection::kOut);
        ctx.put(core::path::kHistResolution,
                static_cast<std::int64_t>(result.resolution),
                sorcer::PathDirection::kOut);
        return util::Status::ok();
      },
      costs_.base);

  add_operation(
      core::op::kHistRange,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        pending_extra_ = 0;
        auto sensor_name = ctx.get_string(core::path::kHistSensor);
        if (!sensor_name.is_ok()) return sensor_name.status();
        auto from = get_time(ctx, core::path::kHistFrom);
        if (!from.is_ok()) return from.status();
        auto to = get_time(ctx, core::path::kHistTo);
        if (!to.is_ok()) return to.status();
        std::size_t max_points = 1024;
        if (ctx.has(core::path::kHistPoints)) {
          auto p = get_time(ctx, core::path::kHistPoints);
          if (p.is_ok() && p.value() > 0) {
            max_points = static_cast<std::size_t>(p.value());
          }
        }
        store_.range(sensor_name.value(), from.value(), to.value(),
                     max_points, result_);
        pending_extra_ = static_cast<util::SimDuration>(result_.points.size()) *
                         costs_.per_point;
        put_points(ctx, result_);
        release_if_oversized(result_.points);
        return util::Status::ok();
      },
      costs_.base);

  add_operation(
      core::op::kHistDownsample,
      [this](sorcer::ServiceContext& ctx) -> util::Status {
        pending_extra_ = 0;
        auto sensor_name = ctx.get_string(core::path::kHistSensor);
        if (!sensor_name.is_ok()) return sensor_name.status();
        auto from = get_time(ctx, core::path::kHistFrom);
        if (!from.is_ok()) return from.status();
        auto to = get_time(ctx, core::path::kHistTo);
        if (!to.is_ok()) return to.status();
        std::size_t target_points = 64;
        if (ctx.has(core::path::kHistPoints)) {
          auto p = get_time(ctx, core::path::kHistPoints);
          if (p.is_ok() && p.value() > 0) {
            target_points = static_cast<std::size_t>(p.value());
          }
        }
        store_.downsample(sensor_name.value(), from.value(), to.value(),
                          target_points, result_);
        pending_extra_ = static_cast<util::SimDuration>(result_.points.size()) *
                         costs_.per_point;
        put_points(ctx, result_);
        release_if_oversized(result_.points);
        return util::Status::ok();
      },
      costs_.base);
}

}  // namespace sensorcer::hist
