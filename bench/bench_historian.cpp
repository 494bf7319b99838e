// Historian storage bench (ISSUE 4 tentpole): ingest throughput of the
// sharded store and wide range-query latency, raw scan vs rollup rings, at
// 10^4–10^6 retained readings per series.
//
// The rollup path answers a wide aggregate from O(buckets) incremental
// state instead of walking every retained reading, so its cost is flat in
// the retained count while the raw path grows linearly — the acceptance
// bound is a ≥50x advantage at 10^5+ readings.
//
// The pipelined-ingest section measures the feeder's wire-mode push path:
// K appendBatch chunks leave as one scatter-gather batch, so K fabric
// round-trips overlap in virtual time instead of serializing.
//
// The compression section (ISSUE 10) measures Gorilla-sealed retention per
// byte against the flat 32-byte encoding — the acceptance bound is ≥5x on a
// steady quantized signal, asserted in smoke and full runs alike — plus the
// tier demotion path holding the full history queryable past raw capacity.
// The concurrent-query section drives a dashboard-style sweep through the
// read executor while an appender keeps writing (completion asserted, no
// wall-clock bounds: it must simply never deadlock or lose a query).
//
// `bench_historian smoke` runs a seconds-scale subset (CI under ASan/TSan).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "hist/read_executor.h"
#include "hist/series.h"
#include "hist/store.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace sensorcer;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Reading period: 10 Hz, so 10^6 readings span ~28 hours of virtual time.
constexpr util::SimDuration kDt = 100 * util::kMillisecond;

hist::SeriesConfig config_for(std::size_t retained) {
  // Rings sized to cover the whole retained raw span, so raw and rollup
  // paths answer the same window and the comparison is apples-to-apples.
  const auto span = static_cast<util::SimTime>(retained) * kDt;
  const auto buckets = [&](util::SimDuration res) {
    return static_cast<std::size_t>(span / res) + 8;
  };
  hist::SeriesConfig config;
  config.raw_capacity = retained;
  config.rings = {{1 * util::kSecond, buckets(1 * util::kSecond)},
                  {10 * util::kSecond, buckets(10 * util::kSecond)},
                  {60 * util::kSecond, buckets(60 * util::kSecond)}};
  return config;
}

sensor::Reading reading_at(std::size_t i) {
  return sensor::Reading{static_cast<util::SimTime>(i) * kDt,
                         20.0 + std::sin(static_cast<double>(i) * 0.01),
                         sensor::Quality::kGood, 0};
}

/// Wall-clock microseconds per call of `fn`, amortized over enough
/// iterations to get a stable figure.
template <typename Fn>
double us_per_call(std::size_t iters, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  return seconds_since(t0) * 1e6 / static_cast<double>(iters);
}

void bench_ingest(bool smoke) {
  std::puts("Ingest throughput (HistorianStore::append, one series):");
  const std::size_t total = smoke ? 20'000 : 1'000'000;
  std::vector<std::vector<std::string>> rows;
  for (std::size_t batch : {1u, 32u, 256u}) {
    hist::HistorianConfig config;
    config.series = config_for(total);
    hist::HistorianStore store(config);
    std::vector<sensor::Reading> readings;
    readings.reserve(batch);
    const auto t0 = Clock::now();
    std::size_t appended = 0;
    while (appended < total) {
      readings.clear();
      for (std::size_t i = 0; i < batch && appended + i < total; ++i) {
        readings.push_back(reading_at(appended + i));
      }
      appended += store.append("s", readings).accepted;
    }
    const double secs = seconds_since(t0);
    rows.push_back({std::to_string(batch),
                    util::format("%.2f", static_cast<double>(total) / secs / 1e6),
                    util::format("%.0f", secs * 1e9 / static_cast<double>(total))});
  }
  std::puts(util::render_table({"batch", "Mreadings/s", "ns/reading"}, rows)
                .c_str());
}

void bench_queries(bool smoke) {
  std::puts("Wide range-aggregate latency, raw path vs rollup rings");
  std::puts("(query = stats over the full retained span; rollup answers from");
  std::puts("the 60s ring, the raw path sums sealed-block footers and only");
  std::puts("walks the open active block):");
  std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{10'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  std::vector<std::vector<std::string>> rows;
  for (const std::size_t retained : sizes) {
    hist::SensorSeries series(config_for(retained));
    for (std::size_t i = 0; i < retained; ++i) series.append(reading_at(i));
    const auto span = static_cast<util::SimTime>(retained) * kDt;

    // Both paths must agree on the answer before we time them.
    const auto raw = series.stats(0, span, 0);
    const auto rollup = series.stats(0, span, 60 * util::kSecond);
    if (raw.stats.count != retained || rollup.stats.count != retained) {
      std::printf("FAIL: count mismatch raw=%llu rollup=%llu expected=%zu\n",
                  static_cast<unsigned long long>(raw.stats.count),
                  static_cast<unsigned long long>(rollup.stats.count),
                  retained);
      std::exit(1);
    }

    const std::size_t raw_iters = smoke ? 20 : (retained >= 1'000'000 ? 20 : 200);
    const double raw_us = us_per_call(raw_iters, [&] {
      (void)series.stats(0, span, 0);
    });
    const double rollup_us = us_per_call(smoke ? 200 : 2000, [&] {
      (void)series.stats(0, span, 60 * util::kSecond);
    });
    rows.push_back({std::to_string(retained), rollup.source,
                    util::format("%.1f", raw_us),
                    util::format("%.2f", rollup_us),
                    util::format("%.0fx", raw_us / rollup_us)});
  }
  std::puts(util::render_table({"retained", "rollup ring", "raw us/query",
                                "rollup us/query", "speedup"},
                               rows)
                .c_str());
  std::puts("Expected shape: both paths stay ~flat. Sealed-block footer");
  std::puts("aggregates collapsed the old linear raw scan (6.4ms/query at");
  std::puts("10^6 pre-compression) to O(blocks); the rollup rings' O(buckets)");
  std::puts("win now only shows on windows slicing into block interiors.");
}

void bench_downsample(bool smoke) {
  std::puts("Downsample-to-N-points latency (browser plot path, full span):");
  const std::size_t retained = smoke ? 10'000 : 1'000'000;
  hist::SensorSeries series(config_for(retained));
  for (std::size_t i = 0; i < retained; ++i) series.append(reading_at(i));
  const auto span = static_cast<util::SimTime>(retained) * kDt;
  std::vector<std::vector<std::string>> rows;
  for (std::size_t points : {16u, 64u, 512u}) {
    const double us = us_per_call(smoke ? 50 : 200, [&] {
      (void)series.downsample(0, span, points);
    });
    const auto result = series.downsample(0, span, points);
    rows.push_back({std::to_string(points),
                    std::to_string(result.points.size()), result.source,
                    util::format("%.1f", us)});
  }
  std::puts(util::render_table({"target", "points", "source", "us/query"},
                               rows)
                .c_str());
}

void bench_pipelined_ingest(bool smoke) {
  std::puts("Pipelined wire ingest (HistorianFeeder::flush, Transport::kWire):");
  std::puts("all K appendBatch chunks of one flush go out as a scatter-gather");
  std::puts("batch, so K fabric round-trips overlap in virtual time; the");
  std::puts("serial column is K x the calibrated one-chunk flush cost.");
  core::DeploymentConfig config;
  config.sampling.sample_period = 0;  // quiet fabric: we drive the feeder
  config.history_feed.flush_period = 0;
  config.history_feed.max_batch = 16;
  core::Deployment lab(config);
  auto esp = lab.add_temperature_sensor("Pipe-Sensor", 20.0);
  hist::HistorianFeeder* feeder = esp->history_feeder();
  if (feeder == nullptr || !feeder->bound()) {
    std::puts("FAIL: feeder did not bind to the historian");
    std::exit(1);
  }
  util::SimTime ts = 1;  // unique timestamps: the historian dedups replays
  const auto offer_n = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      feeder->offer({ts++, 20.0, sensor::Quality::kGood, 0});
    }
  };

  // Calibrate: one max_batch chunk = one appendBatch round-trip.
  offer_n(config.history_feed.max_batch);
  util::SimTime t0 = lab.now();
  std::size_t pushed = feeder->flush();
  const util::SimDuration single = lab.now() - t0;
  if (pushed != config.history_feed.max_batch || single <= 0) {
    std::puts("FAIL: calibration flush did not push one chunk");
    std::exit(1);
  }

  const std::vector<std::size_t> chunk_counts =
      smoke ? std::vector<std::size_t>{4} : std::vector<std::size_t>{2, 4, 8, 16};
  std::vector<std::vector<std::string>> rows;
  for (const std::size_t chunks : chunk_counts) {
    const std::size_t readings = chunks * config.history_feed.max_batch;
    offer_n(readings);
    t0 = lab.now();
    pushed = feeder->flush();
    const util::SimDuration pipelined = lab.now() - t0;
    if (pushed != readings) {
      std::puts("FAIL: pipelined flush dropped readings");
      std::exit(1);
    }
    rows.push_back(
        {std::to_string(chunks), std::to_string(readings),
         util::format_duration(static_cast<util::SimDuration>(chunks) * single),
         util::format_duration(pipelined),
         util::format("%.1fx", static_cast<double>(chunks) *
                                   static_cast<double>(single) /
                                   static_cast<double>(pipelined))});
  }
  std::puts(util::render_table({"chunks", "readings", "serial (K x single)",
                                "pipelined flush", "speedup"},
                               rows)
                .c_str());
  std::puts("Expected shape: pipelined flush stays ~flat in K (one overlapped");
  std::puts("round-trip window) while the serial cost grows linearly.");
}

void bench_compression(bool smoke) {
  std::puts("Sealed-block compression (Gorilla dod timestamps + XOR values):");
  std::puts("retention per byte vs the flat 32-byte reading encoding; the");
  std::puts("steady row is the acceptance bound (>=5x, asserted).");
  const std::size_t total = smoke ? 50'000 : 1'000'000;

  struct Pattern {
    const char* name;
    bool assert_5x;
  };
  const Pattern patterns[] = {
      {"constant", true}, {"steady (quantized sine)", true},
      {"random walk", false}};
  util::Rng rng(7);
  std::vector<std::vector<std::string>> rows;
  for (const Pattern& pattern : patterns) {
    hist::SeriesConfig config;
    config.raw_capacity = total;
    config.rings = {};  // isolate the sealed chain
    hist::SensorSeries series(config);
    double walk = 20.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < total; ++i) {
      double v = 21.5;
      if (std::strncmp(pattern.name, "steady", 6) == 0) {
        // A real sensor: fixed cadence, value quantized to 1/8 units.
        v = 20.0 + std::round(std::sin(static_cast<double>(i) * 0.01) * 8.0) / 8.0;
      } else if (std::strncmp(pattern.name, "random", 6) == 0) {
        walk += rng.next_double() - 0.5;  // full-mantissa worst case
        v = walk;
      }
      series.append(
          {static_cast<util::SimTime>(i) * kDt, v, sensor::Quality::kGood, 0});
    }
    const double ingest_secs = seconds_since(t0);
    const auto counters = series.counters();
    const auto fp = series.footprint();
    const std::size_t flat = counters.sealed_readings * sizeof(sensor::Reading);
    const double ratio =
        fp.sealed_bytes == 0
            ? 0.0
            : static_cast<double>(flat) / static_cast<double>(fp.sealed_bytes);
    const double bits = fp.sealed_bytes == 0
                            ? 0.0
                            : static_cast<double>(fp.sealed_bytes) * 8.0 /
                                  static_cast<double>(counters.sealed_readings);

    // Equivalence: the compressed chain answers exactly like flat storage.
    const auto span = static_cast<util::SimTime>(total) * kDt;
    const auto stats = series.stats(0, span, 0);
    if (stats.stats.count != total) {
      std::printf("FAIL: %s sealed-chain count %llu != %zu appended\n",
                  pattern.name,
                  static_cast<unsigned long long>(stats.stats.count), total);
      std::exit(1);
    }
    if (pattern.assert_5x && ratio < 5.0) {
      std::printf("FAIL: %s compressed only %.1fx (acceptance bound is 5x)\n",
                  pattern.name, ratio);
      std::exit(1);
    }
    rows.push_back({pattern.name, std::to_string(counters.sealed_readings),
                    std::to_string(fp.sealed_bytes),
                    util::format("%.1f", bits), util::format("%.1fx", ratio),
                    util::format("%.2f", static_cast<double>(total) /
                                             ingest_secs / 1e6)});
  }
  std::puts(util::render_table({"pattern", "sealed readings", "sealed bytes",
                                "bits/reading", "vs flat 32B", "Mappends/s"},
                               rows)
                .c_str());

  // Tier demotion: raw capacity for a quarter of the span; the rest must
  // survive as 1s/60s buckets and the whole history stays queryable.
  {
    hist::SeriesConfig config;
    config.raw_capacity = total / 4;
    config.rings = {};
    hist::SensorSeries series(config);
    for (std::size_t i = 0; i < total; ++i) {
      series.append({static_cast<util::SimTime>(i) * kDt,
                     20.0 + std::sin(static_cast<double>(i) * 0.01),
                     sensor::Quality::kGood, 0});
    }
    const auto counters = series.counters();
    const auto deep = series.deep_stats(
        0, static_cast<util::SimTime>(total) * kDt, 60 * util::kSecond);
    if (deep.stats.count != total || counters.tier_evicted != 0) {
      std::printf("FAIL: tiered history dropped readings (count=%llu/%zu, "
                  "tier_evicted=%llu)\n",
                  static_cast<unsigned long long>(deep.stats.count), total,
                  static_cast<unsigned long long>(counters.tier_evicted));
      std::exit(1);
    }
    const auto fp = series.footprint();
    std::printf("Tiered retention: %zu readings held in %zu bytes "
                "(raw would take %zu) — %.1fx the span per byte, "
                "%llu blocks demoted, full-history count intact.\n\n",
                total, fp.total(), total * sizeof(sensor::Reading),
                static_cast<double>(total * sizeof(sensor::Reading)) /
                    static_cast<double>(fp.total()),
                static_cast<unsigned long long>(counters.blocks_demoted));
  }
}

void bench_concurrent_queries(bool smoke) {
  std::puts("Concurrent dashboard sweep through the read executor");
  std::puts("(queries run on executor workers while an appender keeps");
  std::puts("writing; bounded queue sheds overflow to the caller — the");
  std::puts("assertion is completion, never wall-clock):");
  const std::size_t queries = smoke ? 200 : 1'000;
  const std::size_t preload = smoke ? 20'000 : 200'000;

  hist::HistorianConfig config;
  config.series.raw_capacity = preload / 4;
  config.series.block_readings = 512;
  config.series.rings = {{60 * util::kSecond, 4096}};
  config.max_bytes = 0;
  hist::HistorianStore store(config);
  std::vector<sensor::Reading> batch;
  for (std::size_t i = 0; i < preload; ++i) {
    batch.push_back(reading_at(i));
    if (batch.size() == 1024 || i + 1 == preload) {
      store.append("dash", batch);
      batch.clear();
    }
  }

  hist::ReadExecutor exec(hist::ReadExecutor::Config{4, 64});
  const auto served_before = obs::metrics().counter("hist.reads_served").value();
  std::thread appender([&store, preload, queries] {
    for (std::size_t i = 0; i < queries * 20; ++i) {
      store.append("dash", {reading_at(preload + i)});
    }
  });
  const auto span = static_cast<util::SimTime>(preload) * kDt;
  const auto t0 = Clock::now();
  std::vector<std::future<std::uint64_t>> results;
  results.reserve(queries);
  for (std::size_t q = 0; q < queries; ++q) {
    const util::SimTime from =
        static_cast<util::SimTime>(q % 7) * (span / 7);
    results.push_back(exec.submit([&store, from, span, q]() -> std::uint64_t {
      switch (q % 3) {
        case 0:
          return store.stats("dash", from, span, 60 * util::kSecond).stats.count;
        case 1:
          return store.downsample("dash", from, span, 64).points.size();
        default:
          return store.deep_stats("dash", 0, span, 60 * util::kSecond)
              .stats.count;
      }
    }));
  }
  std::uint64_t completed = 0;
  std::uint64_t nonempty = 0;
  for (auto& fut : results) {
    const std::uint64_t n = fut.get();
    ++completed;
    if (n > 0) ++nonempty;
  }
  const double secs = seconds_since(t0);
  appender.join();

  if (completed != queries || nonempty != queries) {
    std::printf("FAIL: %llu/%zu queries completed, %llu nonempty\n",
                static_cast<unsigned long long>(completed), queries,
                static_cast<unsigned long long>(nonempty));
    std::exit(1);
  }
  const auto served_delta =
      obs::metrics().counter("hist.reads_served").value() - served_before;
  if (served_delta + exec.inline_runs() < queries) {
    std::puts("FAIL: executor lost queries (served + inline < submitted)");
    std::exit(1);
  }
  std::vector<std::vector<std::string>> rows;
  rows.push_back({std::to_string(queries), std::to_string(exec.threads()),
                  std::to_string(served_delta),
                  std::to_string(exec.inline_runs()),
                  util::format("%.0f", static_cast<double>(queries) / secs),
                  util::format("%.1f", secs * 1e6 /
                                           static_cast<double>(queries))});
  std::puts(util::render_table({"queries", "workers", "served on workers",
                                "shed inline", "queries/s", "us/query"},
                               rows)
                .c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  std::printf("=== historian: ingest + range-query cost, raw vs rollup%s ===\n\n",
              smoke ? " (smoke)" : "");
  bench_ingest(smoke);
  bench_queries(smoke);
  bench_downsample(smoke);
  bench_pipelined_ingest(smoke);
  bench_compression(smoke);
  bench_concurrent_queries(smoke);
  return 0;
}
