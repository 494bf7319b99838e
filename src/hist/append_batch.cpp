#include "hist/append_batch.h"

#include <algorithm>
#include <cmath>

#include "core/interfaces.h"

namespace sensorcer::hist {

namespace {

double encode_quality(sensor::Quality q) {
  switch (q) {
    case sensor::Quality::kGood: return 0.0;
    case sensor::Quality::kSuspect: return 1.0;
    case sensor::Quality::kBad: return 2.0;
  }
  return 0.0;
}

sensor::Quality decode_quality(double q) {
  switch (static_cast<int>(q)) {
    case 1: return sensor::Quality::kSuspect;
    case 2: return sensor::Quality::kBad;
    default: return sensor::Quality::kGood;
  }
}

util::Status invalid(const char* why) {
  return {util::ErrorCode::kInvalidArgument, why};
}

/// Part of one slice riding one chunk.
struct Piece {
  std::size_t slice;
  std::size_t offset;
  std::size_t count;
};

sorcer::ExertionPtr marshal_chunk(std::span<const SeriesSlice> slices,
                                  std::span<const Piece> pieces,
                                  const std::string& task_name) {
  // Size every column exactly before filling it.
  std::size_t readings = 0;
  std::size_t name_bytes = 0;
  bool all_good = true;
  for (const Piece& p : pieces) {
    readings += p.count;
    name_bytes += slices[p.slice].series.size() + 1;
    for (const sensor::Reading& r :
         slices[p.slice].readings.subspan(p.offset, p.count)) {
      all_good = all_good && r.quality == sensor::Quality::kGood;
    }
  }
  const bool multi = pieces.size() > 1;
  std::string names;
  std::vector<double> counts;
  std::vector<double> timestamps;
  std::vector<double> values;
  std::vector<double> qualities;
  names.reserve(name_bytes);
  if (multi) counts.reserve(pieces.size());
  timestamps.reserve(readings);
  values.reserve(readings);
  if (!all_good) qualities.reserve(readings);
  for (const Piece& p : pieces) {
    if (&p != pieces.data()) names.push_back('\n');
    names.append(slices[p.slice].series);
    if (multi) counts.push_back(static_cast<double>(p.count));
    for (const sensor::Reading& r :
         slices[p.slice].readings.subspan(p.offset, p.count)) {
      timestamps.push_back(static_cast<double>(r.timestamp));
      values.push_back(r.value);
      if (!all_good) qualities.push_back(encode_quality(r.quality));
    }
  }

  auto task = sorcer::Task::make(
      task_name, {core::kDataCollectionType, core::op::kAppendBatch, ""});
  sorcer::ServiceContext& ctx = task->context();
  ctx.reserve(7);  // up to 5 columns + the historian's 2 outputs
  ctx.put(core::path::kHistSensor, std::move(names),
          sorcer::PathDirection::kIn);
  if (multi) {
    ctx.put(core::path::kHistCounts, std::move(counts),
            sorcer::PathDirection::kIn);
  }
  ctx.put(core::path::kHistTimestamps, std::move(timestamps),
          sorcer::PathDirection::kIn);
  ctx.put(core::path::kHistValues, std::move(values),
          sorcer::PathDirection::kIn);
  if (!all_good) {
    ctx.put(core::path::kHistQualities, std::move(qualities),
            sorcer::PathDirection::kIn);
  }
  return task;
}

}  // namespace

std::vector<sorcer::ExertionPtr> make_append_batches(
    std::span<const SeriesSlice> slices, std::size_t max_batch,
    const std::string& task_name, std::vector<std::size_t>& first_chunk) {
  max_batch = std::max<std::size_t>(max_batch, 1);
  std::size_t readings = 0;
  for (const SeriesSlice& slice : slices) readings += slice.readings.size();
  // Plan: pieces in chunk order; chunk c is pieces [ends[c-1], ends[c]).
  // Every chunk but the last ends full or where a slice did not fit.
  std::vector<Piece> pieces;
  std::vector<std::size_t> ends;
  pieces.reserve(slices.size() + readings / max_batch);
  ends.reserve(slices.size() + readings / max_batch + 1);
  std::size_t used = 0;  // readings in the open chunk
  const auto close = [&] {
    if (used == 0) return;
    ends.push_back(pieces.size());
    used = 0;
  };
  first_chunk.assign(slices.size(), 0);
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const std::size_t n = slices[i].readings.size();
    if (n > max_batch - used) close();
    first_chunk[i] = ends.size();
    for (std::size_t offset = 0; offset < n; offset += max_batch) {
      const std::size_t take = std::min(max_batch, n - offset);
      pieces.push_back({i, offset, take});
      used += take;
      if (used == max_batch) close();
    }
  }
  close();

  std::vector<sorcer::ExertionPtr> chunks;
  chunks.reserve(ends.size());
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    chunks.push_back(marshal_chunk(
        slices, std::span<const Piece>(pieces).subspan(begin, end - begin),
        task_name));
    begin = end;
  }
  return chunks;
}

void decode_readings(std::span<const double> timestamps,
                     std::span<const double> values,
                     std::span<const double> qualities, std::size_t offset,
                     std::size_t n, std::vector<sensor::Reading>& out) {
  out.clear();
  out.reserve(n);
  for (std::size_t i = offset; i < offset + n; ++i) {
    sensor::Reading r;
    r.timestamp = static_cast<util::SimTime>(timestamps[i]);
    r.value = values[i];
    r.quality = i < qualities.size() ? decode_quality(qualities[i])
                                     : sensor::Quality::kGood;
    out.push_back(r);
  }
}

util::Status read_chunk_layout(const sorcer::ServiceContext& ctx,
                               ChunkLayout& out) {
  const auto names = ctx.peek_string(core::path::kHistSensor);
  if (!names) return invalid("appendBatch: missing sensor name");
  const auto* timestamps = ctx.peek_series(core::path::kHistTimestamps);
  if (timestamps == nullptr) {
    return invalid("appendBatch: missing timestamps series");
  }
  const auto* values = ctx.peek_series(core::path::kHistValues);
  if (values == nullptr) return invalid("appendBatch: missing values series");
  if (timestamps->size() != values->size()) {
    return invalid("appendBatch: timestamps/values length mismatch");
  }
  out = ChunkLayout{};
  out.names = *names;
  out.timestamps = *timestamps;
  out.values = *values;
  if (const auto* qualities = ctx.peek_series(core::path::kHistQualities)) {
    out.qualities = *qualities;
  }
  if (const auto* counts = ctx.peek_series(core::path::kHistCounts)) {
    const auto limit = static_cast<double>(timestamps->size());
    std::size_t sum = 0;
    for (const double c : *counts) {
      if (!(c >= 0.0 && c <= limit) || c != std::floor(c)) {
        return invalid("appendBatch: series count out of range");
      }
      sum += static_cast<std::size_t>(c);
    }
    const auto series = static_cast<std::size_t>(
        std::count(out.names.begin(), out.names.end(), '\n') + 1);
    if (series != counts->size() || sum != timestamps->size()) {
      return invalid("appendBatch: counts disagree with names or readings");
    }
    out.counts = *counts;
  }
  return util::Status::ok();
}

}  // namespace sensorcer::hist
