#pragma once
// The appendBatch wire format, both halves: the requestor-side builder the
// historian feeders and flow sinks marshal with, and the historian-side
// reader that walks a decoded chunk series by series.
//
// A chunk is columnar and carries one or many series in a fixed number of
// context entries, whatever the reading or series count:
//
//   hist/sensor      string   series names, '\n'-separated
//   hist/counts      series   readings per series, in name order — present
//                             only when the chunk carries two or more series
//   hist/timestamps  series   all readings' timestamps, series after series
//   hist/values      series   values, same order
//   hist/qualities   series   0 good / 1 suspect / 2 bad — omitted when every
//                             reading is good
//
// One name plus the three columns is the single-series form, so a chunk of
// one series is the original appendBatch request.

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sensor/reading.h"
#include "sorcer/context.h"
#include "sorcer/exertion.h"
#include "util/status.h"

namespace sensorcer::hist {

/// One series' readings in a flush.
struct SeriesSlice {
  std::string_view series;
  std::span<const sensor::Reading> readings;
};

/// Marshal `slices`, in order, into appendBatch tasks named `task_name` of
/// at most `max_batch` readings. A slice that fits in `max_batch` rides one
/// chunk, shared with its neighbours while there is room; a longer one
/// starts a fresh chunk and is cut every `max_batch`. Reading j of slice i
/// rides chunk first_chunk[i] + j / max_batch. Keeping a series whole
/// matters: the historian drops readings older than a series' newest, so a
/// failed chunk must not strand a series' older readings behind newer ones
/// that landed. Series names must not contain '\n'.
std::vector<sorcer::ExertionPtr> make_append_batches(
    std::span<const SeriesSlice> slices, std::size_t max_batch,
    const std::string& task_name, std::vector<std::size_t>& first_chunk);

/// Decode readings [offset, offset + n) of the parallel columns into `out`
/// (cleared first). Qualities past the end of their column read as good.
void decode_readings(std::span<const double> timestamps,
                     std::span<const double> values,
                     std::span<const double> qualities, std::size_t offset,
                     std::size_t n, std::vector<sensor::Reading>& out);

/// The validated columns of a decoded chunk.
struct ChunkLayout {
  std::string_view names;
  std::span<const double> counts;  // empty: one series
  std::span<const double> timestamps;
  std::span<const double> values;
  std::span<const double> qualities;  // empty: all good
};

/// Borrow the columns of an appendBatch context; kInvalidArgument when they
/// are missing or inconsistent.
util::Status read_chunk_layout(const sorcer::ServiceContext& ctx,
                               ChunkLayout& out);

/// Historian side: call `fn(series, readings)` once per series of a
/// validated chunk, in chunk order. `scratch` holds the current series'
/// decoded readings and is reused, so steady-state ingest allocates nothing.
template <typename Fn>
void for_each_series(const ChunkLayout& chunk,
                     std::vector<sensor::Reading>& scratch, Fn&& fn) {
  if (chunk.counts.empty()) {
    decode_readings(chunk.timestamps, chunk.values, chunk.qualities, 0,
                    chunk.timestamps.size(), scratch);
    fn(chunk.names, std::span<const sensor::Reading>(scratch));
    return;
  }
  std::string_view names = chunk.names;
  std::size_t offset = 0;
  for (const double count : chunk.counts) {
    const std::size_t cut = names.find('\n');
    const std::string_view name = names.substr(0, cut);
    names = cut == std::string_view::npos ? std::string_view()
                                          : names.substr(cut + 1);
    const auto n = static_cast<std::size_t>(count);
    decode_readings(chunk.timestamps, chunk.values, chunk.qualities, offset,
                    n, scratch);
    fn(name, std::span<const sensor::Reading>(scratch));
    offset += n;
  }
}

}  // namespace sensorcer::hist
