// Tests for the federated sensor-data historian (src/hist/): rollup-ring
// correctness against brute force over randomized readings, retention and
// eviction accounting, the coarsest-ring query planner, wire-mode ingestion
// with byte accounting, the multi-series appendBatch format, the feeder hub
// (bind/unbind on historian transitions, partial-failure re-queueing, an
// in-phase fleet stored within one flush period), and the failover
// backfill leaving no gaps in recorded history.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "hist/append_batch.h"
#include "hist/feeder.h"
#include "hist/historian.h"
#include "hist/rollup.h"
#include "hist/series.h"
#include "hist/store.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace sensorcer::hist {
namespace {

using sensor::Quality;
using sensor::Reading;
using util::kSecond;

Reading make_reading(util::SimTime t, double v, Quality q = Quality::kGood) {
  return Reading{t, v, q, 0};
}

std::uint64_t counter(const std::string& name) {
  return obs::metrics().counter(name).value();
}

// --- RollupRing -----------------------------------------------------------------------------

TEST(RollupRing, BucketsAlignAndAggregate) {
  RollupRing ring(10, 8);  // 10-unit buckets
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.append(3, 1.0));
  EXPECT_TRUE(ring.append(7, 3.0));
  EXPECT_TRUE(ring.append(15, 10.0));
  EXPECT_FALSE(ring.empty());
  EXPECT_EQ(ring.newest_start(), 10);
  EXPECT_EQ(ring.retained_from(), 0);

  const auto all = ring.aggregate(0, 20);
  EXPECT_EQ(all.count, 3u);
  EXPECT_DOUBLE_EQ(all.min, 1.0);
  EXPECT_DOUBLE_EQ(all.max, 10.0);
  EXPECT_DOUBLE_EQ(all.sum, 14.0);
  EXPECT_DOUBLE_EQ(all.last, 10.0);

  // Window [0, 10) covers only the first bucket.
  const auto first = ring.aggregate(0, 10);
  EXPECT_EQ(first.count, 2u);
  EXPECT_DOUBLE_EQ(first.sum, 4.0);
  // An unaligned window widens to bucket boundaries: [0, 10).
  const auto widened = ring.aggregate(2, 8);
  EXPECT_EQ(widened.count, 2u);
}

TEST(RollupRing, EvictsOldBucketsAndCountsReadings) {
  RollupRing ring(10, 4);  // retains 4 buckets = 40 units
  for (util::SimTime t = 0; t < 60; t += 5) ring.append(t, 1.0);
  // Buckets 0 and 10 (2 readings each) aged out.
  EXPECT_EQ(ring.evicted_readings(), 4u);
  EXPECT_EQ(ring.retained_from(), 20);
  EXPECT_EQ(ring.newest_start(), 50);
  EXPECT_TRUE(ring.covers(20));
  EXPECT_FALSE(ring.covers(19));
  // A reading older than the retained window is rejected.
  EXPECT_FALSE(ring.append(5, 1.0));
  // An in-window out-of-order reading (backfill) lands in its bucket.
  EXPECT_TRUE(ring.append(25, 7.0));
  const auto b = ring.aggregate(20, 30);
  EXPECT_EQ(b.count, 3u);
  EXPECT_DOUBLE_EQ(b.max, 7.0);
}

TEST(RollupRing, JumpFarAheadResetsRing) {
  RollupRing ring(10, 4);
  ring.append(0, 1.0);
  ring.append(1000, 2.0);  // > capacity buckets ahead: everything before ages out
  EXPECT_EQ(ring.evicted_readings(), 1u);
  EXPECT_EQ(ring.retained_from(), 1000);
  const auto all = ring.aggregate(0, 2000);
  EXPECT_EQ(all.count, 1u);
  EXPECT_DOUBLE_EQ(all.last, 2.0);
}

TEST(RollupRing, RandomizedAggregateMatchesBruteForce) {
  util::Rng rng(1234);
  RollupRing ring(1 * kSecond, 4096);
  std::vector<Reading> all;
  util::SimTime t = 0;
  for (int i = 0; i < 3000; ++i) {
    t += rng.between(1, 900 * 1000);  // 1µs .. 0.9s steps: several per bucket
    const double v = rng.next_double() * 200.0 - 100.0;
    ring.append(t, v);
    all.push_back(make_reading(t, v));
  }
  ASSERT_TRUE(ring.covers(0)) << "test span must fit in the ring";

  for (int trial = 0; trial < 50; ++trial) {
    const util::SimTime from = rng.between(0, t);
    const util::SimTime to = from + rng.between(0, t - from);
    const auto got = ring.aggregate(from, to);
    // Brute force over the bucket-aligned window the ring answers.
    AggregateStats want;
    for (const auto& r : all) {
      if (r.timestamp >= ring.align(from) && r.timestamp < ring.align_up(to)) {
        want.add_sample(r.timestamp, r.value);
      }
    }
    ASSERT_EQ(got.count, want.count) << "trial " << trial;
    if (want.count > 0) {
      EXPECT_DOUBLE_EQ(got.min, want.min);
      EXPECT_DOUBLE_EQ(got.max, want.max);
      EXPECT_NEAR(got.sum, want.sum, 1e-6 * std::abs(want.sum) + 1e-9);
      EXPECT_DOUBLE_EQ(got.last, want.last);
      EXPECT_EQ(got.last_ts, want.last_ts);
    }
  }
}

TEST(RollupRing, WrapThenJumpPastTheWindowMatchesBruteForce) {
  // A small ring wraps many times, jumps past its whole window, then fills
  // again; every retained bucket must match a brute-force oracle over the
  // readings the ring still covers. Slots are built on first write, so this
  // also walks the lazily constructed storage through wrap and reset.
  util::Rng rng(99);
  RollupRing ring(10, 100);  // past the first storage slice: it grows once
  std::vector<Reading> all;
  util::SimTime t = 3;
  const auto append_run = [&](int n) {
    for (int i = 0; i < n; ++i) {
      t += rng.between(1, 25);
      const double v = rng.next_double() * 10.0;
      ASSERT_TRUE(ring.append(t, v));
      all.push_back(make_reading(t, v));
    }
  };
  const auto check = [&](const char* phase) {
    const util::SimTime hi = ring.newest_start() + ring.resolution();
    for (util::SimTime from = ring.retained_from(); from < hi; from += 10) {
      for (util::SimTime to = from + 10; to <= hi; to += 70) {
        AggregateStats want;
        for (const auto& r : all) {
          if (r.timestamp >= from && r.timestamp < to) {
            want.add_sample(r.timestamp, r.value);
          }
        }
        const auto got = ring.aggregate(from, to);
        ASSERT_EQ(got.count, want.count) << phase << " [" << from << ", " << to << ")";
        if (want.count > 0) {
          EXPECT_DOUBLE_EQ(got.min, want.min) << phase;
          EXPECT_DOUBLE_EQ(got.max, want.max) << phase;
          EXPECT_NEAR(got.sum, want.sum, 1e-9) << phase;
          EXPECT_EQ(got.last_ts, want.last_ts) << phase;
        }
      }
    }
  };

  append_run(30);  // partial: inside the first slice
  check("partial");
  append_run(1500);  // grows to capacity, then wraps many times
  check("wrapped");
  const std::size_t before_jump = all.size();
  t += 10 * 100 * 5;  // well past the whole window
  append_run(1);
  EXPECT_EQ(ring.retained_from(), ring.align(t));
  EXPECT_EQ(ring.evicted_readings(), before_jump);
  check("after jump");
  append_run(200);  // refills from the reset origin and wraps again
  check("refilled");
  EXPECT_EQ(ring.bytes(), 100 * sizeof(RollupBucket))
      << "budgets charge full capacity however few slots are built";
}

// --- SensorSeries ---------------------------------------------------------------------------

SeriesConfig wide_config() {
  // Rings wide enough to retain the whole randomized test span.
  SeriesConfig config;
  config.raw_capacity = 4096;
  config.rings = {{1 * kSecond, 8192}, {10 * kSecond, 1024}, {60 * kSecond, 256}};
  return config;
}

TEST(SensorSeries, RandomizedStatsMatchBruteForceOnEveryPath) {
  util::Rng rng(99);
  SensorSeries series(wide_config());
  std::vector<Reading> all;
  util::SimTime t = 0;
  for (int i = 0; i < 2500; ++i) {
    t += rng.between(1000, 2 * 1000 * 1000);  // 1ms..2s
    const double v = rng.next_double() * 50.0;
    const Quality q = rng.next_double() < 0.1 ? Quality::kBad : Quality::kGood;
    const auto outcome = series.append(make_reading(t, v, q));
    ASSERT_NE(outcome, SensorSeries::Append::kDuplicate);
    all.push_back(make_reading(t, v, q));
  }
  ASSERT_EQ(series.raw_evicted(), 0u) << "test span must fit in the raw ring";

  for (util::SimDuration max_res :
       {util::SimDuration{0}, 1 * kSecond, 10 * kSecond, 60 * kSecond}) {
    for (int trial = 0; trial < 30; ++trial) {
      const util::SimTime from = rng.between(0, t);
      const util::SimTime to = from + rng.between(0, t - from);
      const auto got = series.stats(from, to, max_res);
      // Brute force over the effective window the series reports, skipping
      // kBad readings (excluded from aggregates on every path).
      AggregateStats want;
      for (const auto& r : all) {
        if (r.quality != Quality::kBad && r.timestamp >= got.from_effective &&
            r.timestamp < got.to_effective) {
          want.add_sample(r.timestamp, r.value);
        }
      }
      ASSERT_EQ(got.stats.count, want.count)
          << "max_res=" << max_res << " trial=" << trial;
      if (want.count > 0) {
        EXPECT_DOUBLE_EQ(got.stats.min, want.min);
        EXPECT_DOUBLE_EQ(got.stats.max, want.max);
        EXPECT_NEAR(got.stats.sum, want.sum, 1e-6 * std::abs(want.sum) + 1e-9);
        EXPECT_DOUBLE_EQ(got.stats.last, want.last);
      }
      if (max_res == 0) {
        EXPECT_EQ(got.source, "raw");
      } else {
        EXPECT_TRUE(got.source.rfind("rollup:", 0) == 0) << got.source;
      }
    }
  }
}

TEST(SensorSeries, PlannerPicksCoarsestCoveringRing) {
  SensorSeries series;  // defaults: 1s x 600, 10s x 360, 60s x 240
  for (util::SimTime s = 0; s < 5000; ++s) {
    series.append(make_reading(s * kSecond, 1.0));
  }
  // Retention: 1s ring from 4400s, 10s ring from 1400s, 60s ring covers all.

  // Wide tolerance picks the coarsest ring.
  const RollupRing* ring = series.pick_ring(4900 * kSecond, 60 * kSecond);
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->resolution(), 60 * kSecond);

  // A 5s tolerance admits only the 1s ring.
  ring = series.pick_ring(4900 * kSecond, 5 * kSecond);
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->resolution(), 1 * kSecond);

  // Reaching back past the 1s ring's retention with a 10s tolerance
  // upgrades to the 10s ring, which still covers the window start.
  ring = series.pick_ring(2000 * kSecond, 10 * kSecond);
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->resolution(), 10 * kSecond);

  // A 5s tolerance cannot use the 10s ring and the 1s ring aged out: raw.
  EXPECT_EQ(series.pick_ring(2000 * kSecond, 5 * kSecond), nullptr);
  // max_resolution 0 always demands the raw path.
  EXPECT_EQ(series.pick_ring(4900 * kSecond, 0), nullptr);

  // stats() agrees with the planner.
  EXPECT_EQ(series.stats(4900 * kSecond, 5000 * kSecond, 60 * kSecond).resolution,
            60 * kSecond);
  EXPECT_EQ(series.stats(4900 * kSecond, 5000 * kSecond, 0).source, "raw");
}

TEST(SensorSeries, DedupsReplayedTimestamps) {
  SensorSeries series;
  EXPECT_EQ(series.append(make_reading(10, 1.0)), SensorSeries::Append::kAccepted);
  EXPECT_EQ(series.append(make_reading(20, 2.0)), SensorSeries::Append::kAccepted);
  EXPECT_EQ(series.append(make_reading(20, 9.0)), SensorSeries::Append::kDuplicate);
  EXPECT_EQ(series.append(make_reading(15, 9.0)), SensorSeries::Append::kDuplicate);
  EXPECT_EQ(series.raw().size(), 2u);
  EXPECT_EQ(series.last_timestamp(), 20);
  const auto stats = series.stats(0, 100, 0);
  EXPECT_EQ(stats.stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.stats.sum, 3.0);
}

TEST(SensorSeries, DownsampleCapsPoints) {
  SensorSeries series(wide_config());
  for (util::SimTime s = 0; s < 3600; ++s) {
    series.append(make_reading(s * kSecond, static_cast<double>(s)));
  }
  for (std::size_t target : {1u, 7u, 64u, 500u}) {
    const auto result = series.downsample(0, 3600 * kSecond, target);
    EXPECT_LE(result.points.size(), target) << "target=" << target;
    EXPECT_GT(result.points.size(), 0u);
    // Points come back oldest first.
    for (std::size_t i = 1; i < result.points.size(); ++i) {
      EXPECT_LT(result.points[i - 1].timestamp, result.points[i].timestamp);
    }
  }
  // Range queries report truncation when readings exceed max_points.
  const auto range = series.range(0, 3600 * kSecond, 10);
  EXPECT_EQ(range.points.size(), 10u);
  EXPECT_TRUE(range.truncated);
  EXPECT_EQ(range.source, "raw");
}

// --- sealed chain / tiering (PR 10) ---------------------------------------------------------

TEST(SensorSeries, SealedChainQueriesMatchUncompressedOracle) {
  // Small blocks force a long sealed chain; the raw tier keeps everything,
  // so every query must be value-identical to brute force over the
  // uncompressed readings.
  SeriesConfig config;
  config.raw_capacity = 100000;
  config.block_readings = 64;
  config.rings = {};  // no rollup rings: every query walks the chain
  SensorSeries series(config);

  util::Rng rng(2024);
  std::vector<Reading> all;
  util::SimTime t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.between(1000, 2 * 1000 * 1000);
    const double roll = rng.next_double();
    const Quality q = roll < 0.1    ? Quality::kBad
                      : roll < 0.2  ? Quality::kSuspect
                                    : Quality::kGood;
    const Reading r = make_reading(t, rng.next_double() * 50.0, q);
    ASSERT_NE(series.append(r), SensorSeries::Append::kDuplicate);
    all.push_back(r);
  }
  const auto counters = series.counters();
  EXPECT_GT(counters.blocks_sealed, 20u);
  EXPECT_EQ(counters.blocks_demoted, 0u);
  EXPECT_EQ(series.raw_evicted(), 0u);

  for (int trial = 0; trial < 40; ++trial) {
    const util::SimTime from = rng.between(0, t);
    const util::SimTime to = from + rng.between(0, t - from);

    // range(): every retained reading, bad ones included, oldest first.
    const auto got_range = series.range(from, to, all.size() + 1);
    std::vector<Reading> want_range;
    for (const auto& r : all) {
      if (r.timestamp >= from && r.timestamp < to) want_range.push_back(r);
    }
    ASSERT_EQ(got_range.points.size(), want_range.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want_range.size(); ++i) {
      EXPECT_EQ(got_range.points[i].timestamp, want_range[i].timestamp);
      EXPECT_DOUBLE_EQ(got_range.points[i].value, want_range[i].value);
    }

    // stats() on the exact path (footer fast path + partial-block decode).
    const auto got = series.stats(from, to, 0);
    AggregateStats want;
    for (const auto& r : all) {
      if (r.quality != Quality::kBad && r.timestamp >= from &&
          r.timestamp < to) {
        want.add_sample(r.timestamp, r.value);
      }
    }
    ASSERT_EQ(got.stats.count, want.count) << "trial " << trial;
    EXPECT_EQ(got.source, "raw");
    if (want.count > 0) {
      EXPECT_DOUBLE_EQ(got.stats.min, want.min);
      EXPECT_DOUBLE_EQ(got.stats.max, want.max);
      EXPECT_NEAR(got.stats.sum, want.sum, 1e-6 * std::abs(want.sum) + 1e-9);
      EXPECT_DOUBLE_EQ(got.stats.last, want.last);
    }
  }

  // Compressed retention really is smaller than what it replaced.
  const auto fp = series.footprint();
  EXPECT_GT(fp.sealed_bytes, 0u);
  EXPECT_LT(fp.sealed_bytes,
            counters.sealed_readings * sizeof(Reading) / 2);
}

TEST(SensorSeries, RawOverflowDemotesIntoTiersInsteadOfDropping) {
  SeriesConfig config;
  config.raw_capacity = 256;
  config.block_readings = 64;
  config.rings = {};
  SensorSeries series(config);

  // 2000 readings at 0.5s cadence; raw keeps ~256, the rest must survive
  // as 1s/60s tier buckets.
  std::vector<Reading> all;
  std::uint64_t good = 0;
  for (int i = 0; i < 2000; ++i) {
    const Quality q = i % 10 == 3 ? Quality::kBad : Quality::kGood;
    const Reading r =
        make_reading(static_cast<util::SimTime>(i) * kSecond / 2,
                     static_cast<double>(i % 100), q);
    series.append(r);
    all.push_back(r);
    if (q != Quality::kBad) ++good;
  }
  const auto counters = series.counters();
  EXPECT_GT(counters.blocks_demoted, 0u);
  EXPECT_EQ(counters.tier_evicted, 0u) << "tiers must absorb, not drop";
  EXPECT_GT(counters.tier_blocks, 0u);

  const auto ret = series.retention();
  ASSERT_GE(ret.raw_from, 0);
  ASSERT_GE(ret.tier_from, 0);
  EXPECT_LT(ret.tier_from, ret.raw_from);
  EXPECT_EQ(ret.tier_from, 0) << "oldest reading still represented";

  // The full-history deep aggregate sees every non-bad reading ever
  // appended: raw readings exactly, demoted ones through their buckets.
  const auto deep = series.deep_stats(0, sensor::kEndOfTime, 60 * kSecond);
  EXPECT_EQ(deep.source, "tiered");
  EXPECT_EQ(deep.stats.count, good);
  AggregateStats want;
  for (const auto& r : all) {
    if (r.quality != Quality::kBad) want.add_sample(r.timestamp, r.value);
  }
  EXPECT_DOUBLE_EQ(deep.stats.min, want.min);
  EXPECT_DOUBLE_EQ(deep.stats.max, want.max);
  EXPECT_NEAR(deep.stats.sum, want.sum, 1e-6 * std::abs(want.sum));
  EXPECT_DOUBLE_EQ(deep.stats.last, want.last);

  // range() serves the raw tier only — exactly [raw_from, end).
  const auto range = series.range(0, sensor::kEndOfTime, 100000);
  ASSERT_FALSE(range.points.empty());
  EXPECT_EQ(range.points.front().timestamp, ret.raw_from);
}

TEST(SensorSeries, ShedColdestFreesTiersBeforeSealedBlocks) {
  SeriesConfig config;
  config.raw_capacity = 256;
  config.block_readings = 64;
  config.rings = {};
  SensorSeries series(config);
  for (int i = 0; i < 2000; ++i) {
    series.append(make_reading(static_cast<util::SimTime>(i) * kSecond,
                               static_cast<double>(i)));
  }
  ASSERT_GT(series.footprint().tier_bytes, 0u);
  ASSERT_GT(series.footprint().sealed_bytes, 0u);

  // Shedding drains the cheap-to-lose tiers to zero before it touches a
  // single sealed (individually retrievable) block.
  while (series.footprint().tier_bytes > 0) {
    const std::size_t sealed_before = series.footprint().sealed_bytes;
    ASSERT_GT(series.shed_coldest(), 0u);
    EXPECT_EQ(series.footprint().sealed_bytes, sealed_before);
  }
  // Then sealed blocks go, oldest first.
  const std::size_t sealed_before = series.footprint().sealed_bytes;
  ASSERT_GT(series.shed_coldest(), 0u);
  EXPECT_LT(series.footprint().sealed_bytes, sealed_before);
  // Fully drained: only the active block remains; nothing left to shed.
  while (series.shed_coldest() > 0) {
  }
  EXPECT_EQ(series.footprint().sealed_bytes, 0u);
  EXPECT_EQ(series.footprint().tier_bytes, 0u);
}

TEST(SensorSeries, ConcurrentReadersNeverBlockOrTearWhileAppending) {
  // Readers race a live appender across seal and demotion boundaries; under
  // TSan this is the historian's reader/appender coordination proof.
  SeriesConfig config;
  config.raw_capacity = 512;
  config.block_readings = 64;
  config.rings = {{1 * kSecond, 64}};
  SensorSeries series(config);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&series, &done, &queries, r] {
      util::Rng rng(static_cast<std::uint64_t>(r) + 1);
      while (!done.load(std::memory_order_relaxed)) {
        const util::SimTime hi = series.last_timestamp();
        if (hi < 0) continue;
        const util::SimTime from = rng.between(0, hi);
        (void)series.stats(from, hi + 1, 0);
        // Every reading a racing range returns must lie in the window and
        // stay strictly ordered — a torn read would break both.
        const auto range = series.range(from, hi + 1, 100000);
        for (std::size_t i = 0; i < range.points.size(); ++i) {
          EXPECT_GE(range.points[i].timestamp, from);
          EXPECT_LE(range.points[i].timestamp, hi);
          if (i > 0) {
            EXPECT_LT(range.points[i - 1].timestamp,
                      range.points[i].timestamp);
          }
        }
        // A racing downsample fills per-thread bins and borrows a
        // per-thread active-block copy: at most 32 points, bucket starts
        // ascending and inside the window.
        const auto points = series.downsample(0, hi + 1, 32).points;
        EXPECT_LE(points.size(), 32u);
        for (std::size_t i = 0; i < points.size(); ++i) {
          EXPECT_GE(points[i].timestamp, 0);
          EXPECT_LE(points[i].timestamp, hi);
          if (i > 0) {
            EXPECT_LT(points[i - 1].timestamp, points[i].timestamp);
          }
        }
        (void)series.deep_stats(0, hi + 1, 60 * kSecond);
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 20000; ++i) {
    series.append(make_reading(static_cast<util::SimTime>(i) * 100'000,
                               static_cast<double>(i % 50),
                               i % 17 == 0 ? Quality::kBad : Quality::kGood));
  }
  // Let slow-starting readers overlap the full history before stopping.
  while (queries.load(std::memory_order_relaxed) < 8) {
    std::this_thread::yield();
  }
  done.store(true);
  for (auto& th : readers) th.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(series.appended(), 20000u);
}

// --- HistorianStore -------------------------------------------------------------------------

TEST(HistorianStore, CountsAppendsDuplicatesAndQueries) {
  HistorianStore store;
  const auto out1 = store.append("a", {make_reading(1, 1.0), make_reading(2, 2.0)});
  EXPECT_EQ(out1.accepted, 2u);
  EXPECT_EQ(out1.duplicates, 0u);
  const auto out2 = store.append("a", {make_reading(2, 2.0), make_reading(3, 3.0)});
  EXPECT_EQ(out2.accepted, 1u);
  EXPECT_EQ(out2.duplicates, 1u);
  EXPECT_EQ(store.last_timestamp("a"), 3);
  EXPECT_EQ(store.last_timestamp("missing"), -1);

  const auto snap = store.stats_snapshot();
  EXPECT_EQ(snap.series_count, 1u);
  EXPECT_EQ(snap.appended, 3u);
  EXPECT_EQ(snap.duplicates, 1u);
  EXPECT_GT(snap.bytes, 0u);
  EXPECT_EQ(store.sensors(), std::vector<std::string>{"a"});

  const auto raw_before = counter("hist.query_raw");
  const auto rollup_before = counter("hist.query_rollup");
  (void)store.stats("a", 0, 100, 0);
  (void)store.stats("a", 0, 100, 60 * kSecond);
  EXPECT_EQ(counter("hist.query_raw") - raw_before, 1u);
  EXPECT_EQ(counter("hist.query_rollup") - rollup_before, 1u);
}

TEST(HistorianStore, ByteBudgetEvictsLeastRecentlyAppendedSeries) {
  // Measure one segment's footprint with an unbounded store first.
  HistorianConfig probe_config;
  probe_config.series.raw_capacity = 32;
  probe_config.series.rings = {{1 * kSecond, 16}};
  probe_config.max_bytes = 0;
  HistorianStore probe(probe_config);
  probe.append("x", {make_reading(1, 1.0)});
  const std::size_t per_series = probe.stats_snapshot().bytes;
  ASSERT_GT(per_series, 0u);

  HistorianConfig config = probe_config;
  config.max_bytes = per_series * 5 / 2;  // room for two segments, not three
  config.shards = 1;
  HistorianStore store(config);
  store.append("a", {make_reading(1, 1.0)});
  store.append("b", {make_reading(1, 1.0)});
  store.append("a", {make_reading(2, 2.0)});  // "b" is now least recent
  store.append("c", {make_reading(1, 1.0)});  // past budget
  store.append("d", {make_reading(1, 1.0)});  // forces an eviction
  const auto snap = store.stats_snapshot();
  EXPECT_GE(snap.evicted_series, 1u);
  EXPECT_EQ(store.last_timestamp("b"), -1) << "LRU series should be shed";
  EXPECT_EQ(store.last_timestamp("a"), 2);
}

TEST(HistorianStore, ByteAccountingSplitsStorageClasses) {
  HistorianConfig config;
  config.series.raw_capacity = 256;
  config.series.block_readings = 64;
  config.series.rings = {{1 * kSecond, 32}};
  config.max_bytes = 0;
  HistorianStore store(config);
  std::vector<Reading> batch;
  for (int i = 0; i < 3000; ++i) {
    batch.push_back(make_reading(static_cast<util::SimTime>(i) * kSecond,
                                 static_cast<double>(i % 100)));
  }
  store.append("a", batch);
  store.append("b", batch);

  const auto snap = store.stats_snapshot();
  EXPECT_GT(snap.bytes_uncompressed, 0u);
  EXPECT_GT(snap.bytes_sealed, 0u);
  EXPECT_GT(snap.bytes_tiered, 0u);
  // The legacy total is exactly the storage-class split, nothing hidden.
  EXPECT_EQ(snap.bytes,
            snap.bytes_uncompressed + snap.bytes_sealed + snap.bytes_tiered);
  EXPECT_GT(snap.sealed_blocks, 0u);
  EXPECT_GT(snap.tier_blocks, 0u);
  EXPECT_GT(snap.blocks_sealed, snap.sealed_blocks)
      << "demotion must have consumed some sealed blocks";
  EXPECT_GT(snap.blocks_demoted, 0u);
  EXPECT_EQ(snap.tier_evicted, 0u);
  // Sealed storage carries more history per byte than the flat encoding.
  EXPECT_GE(snap.compression_ratio, 2.0);
  EXPECT_NEAR(snap.compression_ratio,
              static_cast<double>(snap.sealed_readings * sizeof(Reading)) /
                  static_cast<double>(snap.bytes_sealed),
              1e-9)
      << "ratio must be sealed readings' flat bytes over sealed bytes";
}

TEST(HistorianStore, BudgetEvictionShedsCompressedTiersBeforeSegments) {
  HistorianConfig config;
  config.series.raw_capacity = 128;
  config.series.block_readings = 32;
  config.series.rings = {};
  config.shards = 1;
  config.max_bytes = 0;
  HistorianStore probe(config);
  std::vector<Reading> batch;
  for (int i = 0; i < 1200; ++i) {
    batch.push_back(make_reading(static_cast<util::SimTime>(i) * kSecond,
                                 static_cast<double>(i)));
  }
  probe.append("x", batch);
  const auto full = probe.stats_snapshot();
  ASSERT_GT(full.bytes_sealed + full.bytes_tiered, 0u);

  // Budget for one full segment plus a little: the second sensor forces
  // shedding, which must drain the first's cold storage before any whole
  // segment is evicted.
  config.max_bytes = full.bytes + full.bytes / 4;
  HistorianStore store(config);
  store.append("a", batch);
  std::vector<Reading> batch2;
  for (int i = 0; i < 1200; ++i) {
    batch2.push_back(make_reading(static_cast<util::SimTime>(i) * kSecond,
                                  static_cast<double>(i) + 0.5));
  }
  store.append("b", batch2);

  const auto snap = store.stats_snapshot();
  EXPECT_LE(snap.bytes, config.max_bytes);
  EXPECT_EQ(snap.evicted_series, 0u)
      << "shedding compressed tiers must spare whole segments";
  EXPECT_EQ(snap.series_count, 2u);
  EXPECT_GE(store.last_timestamp("a"), 0) << "raw hot data must survive";
  EXPECT_GE(store.last_timestamp("b"), 0);
}

// --- Historian provider ---------------------------------------------------------------------

TEST(Historian, DecodeBatchMapsQualities) {
  const auto readings = Historian::decode_batch(
      {1.0, 2.0, 3.0}, {10.0, 20.0, 30.0}, {0.0, 1.0, 2.0});
  ASSERT_EQ(readings.size(), 3u);
  EXPECT_EQ(readings[0].quality, Quality::kGood);
  EXPECT_EQ(readings[1].quality, Quality::kSuspect);
  EXPECT_EQ(readings[2].quality, Quality::kBad);
  EXPECT_EQ(readings[1].timestamp, 2);
  EXPECT_DOUBLE_EQ(readings[2].value, 30.0);
  // Mismatched array lengths clamp to the shortest.
  EXPECT_EQ(Historian::decode_batch({1.0, 2.0}, {10.0}, {}).size(), 1u);
}

// --- multi-series appendBatch ----------------------------------------------------------------

std::vector<Reading> run(std::initializer_list<util::SimTime> timestamps,
                         Quality q = Quality::kGood) {
  std::vector<Reading> out;
  for (const util::SimTime t : timestamps) {
    out.push_back(make_reading(t, static_cast<double>(t) + 0.5, q));
  }
  return out;
}

std::vector<sorcer::ExertionPtr> batches(const std::vector<SeriesSlice>& slices,
                                         std::size_t max_batch) {
  std::vector<std::size_t> first_chunk;
  return make_append_batches(slices, max_batch, "t", first_chunk);
}

TEST(AppendBatch, ChunksShareRoomButKeepFittingSeriesWhole) {
  const auto a = run({1, 2});
  const auto b = run({1});
  const auto c = run({1, 2, 3});
  const auto d = run({1, 2, 3, 4, 5, 6});
  const auto e = run({9});
  const std::vector<SeriesSlice> slices{
      {"A", a}, {"B", b}, {"C", c}, {"D", d}, {"E", e}};
  std::vector<std::size_t> first_chunk;
  const auto chunks = make_append_batches(slices, 4, "t", first_chunk);
  // {A A B} | {C C C} — C fits a chunk, so it is not split across the
  // boundary — | {D D D D} | {D D E}: only D, longer than a chunk, is cut.
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(first_chunk, (std::vector<std::size_t>{0, 0, 1, 2, 3}));

  const auto& first = chunks[0]->context();
  EXPECT_EQ(first.get_string(core::path::kHistSensor).value(), "A\nB");
  EXPECT_EQ(first.get_series(core::path::kHistCounts).value(),
            (std::vector<double>{2, 1}));
  EXPECT_EQ(first.get_series(core::path::kHistTimestamps).value(),
            (std::vector<double>{1, 2, 1}));
  EXPECT_FALSE(first.has(core::path::kHistQualities)) << "all good: omitted";
  // A chunk of one series is the single-series form: no count column.
  const auto& second = chunks[1]->context();
  EXPECT_EQ(second.get_string(core::path::kHistSensor).value(), "C");
  EXPECT_FALSE(second.has(core::path::kHistCounts));
  EXPECT_EQ(second.get_series(core::path::kHistValues).value(),
            (std::vector<double>{1.5, 2.5, 3.5}));
  EXPECT_EQ(chunks[2]->context().get_string(core::path::kHistSensor).value(),
            "D");
  const auto& last = chunks[3]->context();
  EXPECT_EQ(last.get_string(core::path::kHistSensor).value(), "D\nE");
  EXPECT_EQ(last.get_series(core::path::kHistTimestamps).value(),
            (std::vector<double>{5, 6, 9}));

  // One non-good reading brings the quality column back for its chunk.
  const auto suspect = run({7}, Quality::kSuspect);
  const auto mixed = batches({{"A", a}, {"C", suspect}}, 256);
  ASSERT_EQ(mixed.size(), 1u);
  EXPECT_EQ(mixed[0]->context().get_series(core::path::kHistQualities).value(),
            (std::vector<double>{0, 0, 1}));
}

TEST(AppendBatch, HistorianDedupsTimestampsPerSeriesAcrossAChunk) {
  Historian historian("H");
  const auto push = [&](const std::vector<SeriesSlice>& slices) {
    auto chunks = batches(slices, 256);
    EXPECT_EQ(chunks.size(), 1u);
    (void)historian.service(chunks[0], nullptr);
    EXPECT_EQ(chunks[0]->status(), sorcer::ExertStatus::kDone);
    return std::pair{
        chunks[0]->context().get_double(core::path::kHistAccepted).value(),
        chunks[0]->context().get_double(core::path::kHistDuplicates).value()};
  };
  const auto a = run({1, 2, 3});
  const auto b = run({1, 2, 3});
  // Equal timestamps in different series are not duplicates of each other.
  EXPECT_EQ(push({{"A", a}, {"B", b}}), (std::pair{6.0, 0.0}));
  // A replayed chunk dedups per series: A3 and B2 were already stored.
  const auto a2 = run({3, 4});
  const auto b2 = run({2, 5});
  EXPECT_EQ(push({{"A", a2}, {"B", b2}}), (std::pair{2.0, 2.0}));
  const auto range_of = [&](const std::string& sensor) {
    std::vector<util::SimTime> out;
    for (const Point& p :
         historian.store().range(sensor, 0, sensor::kEndOfTime, 100).points) {
      out.push_back(p.timestamp);
    }
    return out;
  };
  EXPECT_EQ(range_of("A"), (std::vector<util::SimTime>{1, 2, 3, 4}));
  EXPECT_EQ(range_of("B"), (std::vector<util::SimTime>{1, 2, 3, 5}));

  // Counts that disagree with the names or the readings fail the chunk
  // before anything is stored.
  auto bad = batches({{"A", a2}, {"B", b2}}, 256);
  bad[0]->context().put(core::path::kHistCounts, std::vector<double>{1, 1},
                        sorcer::PathDirection::kIn);
  (void)historian.service(bad[0], nullptr);
  EXPECT_EQ(bad[0]->status(), sorcer::ExertStatus::kFailed);
  EXPECT_EQ(historian.store().stats_snapshot().appended, 8u);
}

/// A DataCollection stand-in that records what it stores and can fail every
/// chunk carrying a chosen series.
struct RecordingSink {
  std::shared_ptr<sorcer::ServiceProvider> provider =
      std::make_shared<sorcer::ServiceProvider>(
          "Sink", std::vector<std::string>{core::kDataCollectionType});
  std::map<std::string, std::vector<util::SimTime>> stored;
  std::string fail_series;
  std::vector<Reading> scratch;

  RecordingSink() {
    provider->add_operation(
        core::op::kAppendBatch, [this](sorcer::ServiceContext& ctx) {
          ChunkLayout chunk;
          if (auto ok = read_chunk_layout(ctx, chunk); !ok.is_ok()) return ok;
          bool fail = false;
          for_each_series(chunk, scratch,
                          [&](std::string_view name, std::span<const Reading>) {
                            fail = fail || name == fail_series;
                          });
          if (fail) return util::Status{util::ErrorCode::kInternal, "refused"};
          for_each_series(chunk, scratch,
                          [&](std::string_view name,
                              std::span<const Reading> readings) {
                            for (const Reading& r : readings) {
                              stored[std::string(name)].push_back(r.timestamp);
                            }
                          });
          return util::Status::ok();
        });
  }
};

TEST(FeederHub, FailedChunkRequeuesOnlyItsSensorsAtTheFront) {
  core::DeploymentConfig config;
  config.sampling.sample_period = 0;
  config.with_historian = false;
  core::Deployment lab(config);
  RecordingSink sink;
  sink.provider->attach_network(lab.network());
  ASSERT_TRUE(sink.provider->join(lab.lookups().front(), lab.lease_renewal(),
                                  30 * kSecond)
                  .is_ok());

  FeederConfig feed;
  feed.batch_size = 1000;  // flush only when told to
  feed.flush_period = 0;
  feed.max_batch = 2;
  FeederHub hub(lab.scheduler(), lab.accessor(), feed);
  hub.bind(lab.lookups().front(), lab.lease_renewal());
  ASSERT_TRUE(hub.bound());
  HistorianFeeder a("A", hub);
  HistorianFeeder b("B", hub);
  HistorianFeeder c("C", hub);
  a.offer(make_reading(1, 1.0));
  a.offer(make_reading(2, 2.0));
  b.offer(make_reading(1, 1.0));
  c.offer(make_reading(1, 1.0));

  // Chunks: {A1 A2} | {B1 C1}; the second is refused. Readings offered
  // while the batch is on the wire land behind the re-queued ones.
  sink.fail_series = "B";
  lab.scheduler().schedule_after(0, [&] {
    a.offer(make_reading(3, 3.0));
    c.offer(make_reading(2, 2.0));
  });
  EXPECT_EQ(a.flush(), 2u);
  EXPECT_EQ(a.pushed(), 2u);
  EXPECT_EQ(a.pending(), 1u);  // only A3, offered in flight
  EXPECT_EQ(a.failed_batches(), 0u);
  EXPECT_EQ(b.pending(), 1u);
  EXPECT_EQ(c.pending(), 2u);
  EXPECT_EQ(b.failed_batches(), 1u);
  EXPECT_EQ(c.failed_batches(), 1u);
  EXPECT_EQ(sink.stored["A"], (std::vector<util::SimTime>{1, 2}));
  EXPECT_TRUE(sink.stored["C"].empty());

  sink.fail_series.clear();
  EXPECT_EQ(hub.flush(), 4u);
  EXPECT_EQ(sink.stored["A"], (std::vector<util::SimTime>{1, 2, 3}));
  EXPECT_EQ(sink.stored["B"], (std::vector<util::SimTime>{1}));
  EXPECT_EQ(sink.stored["C"], (std::vector<util::SimTime>{1, 2}))
      << "the re-queued reading must go out ahead of the newer one";
  EXPECT_EQ(a.pending() + b.pending() + c.pending(), 0u);
}

TEST(FeederHub, InPhaseFleetIsStoredWithinOneFlushPeriod) {
  // 64 sensors booted together sample in the same instants over the wire.
  // Per-sensor flush timers used to fire each other's flushes on the stack
  // of a wire pump and starve past a nesting cap; the hub sends one
  // multi-series flush per sampling instant instead.
  core::DeploymentConfig config;
  config.with_flow = false;
  core::Deployment lab(config);
  constexpr int kSensors = 64;
  std::vector<std::shared_ptr<core::ElementarySensorProvider>> esps;
  std::vector<std::vector<util::SimTime>> sampled(kSensors);
  for (int i = 0; i < kSensors; ++i) {
    esps.push_back(
        lab.add_temperature_sensor("F" + std::to_string(i), 15.0 + i % 10));
    esps.back()->add_reading_tap(
        [&sampled, i](const Reading& r) { sampled[i].push_back(r.timestamp); });
  }
  ASSERT_EQ(lab.feeder_hub()->feeder_count(), static_cast<std::size_t>(kSensors));
  const util::SimDuration period = config.history_feed.flush_period;
  const auto wire_before = counter("invoke.wire_calls");

  for (int step = 0; step < 60; ++step) {
    lab.pump(kSecond);
    const util::SimTime now = lab.now();
    for (int i = 0; i < kSensors; ++i) {
      const auto* feeder = esps[i]->history_feeder();
      ASSERT_LE(feeder->pending(), 1u)
          << "feeder " << i << " holds more than one sampling instant at "
          << now;
      const util::SimTime last =
          lab.historian()->store().last_timestamp(esps[i]->provider_name());
      for (const util::SimTime t : sampled[i]) {
        if (t + period <= now) {
          ASSERT_LE(t, last) << "sensor " << i << " sampled at " << t
                             << " not stored by " << now;
        }
      }
    }
  }
  std::size_t total = 0;
  for (int i = 0; i < kSensors; ++i) {
    const auto stats = lab.historian()->store().stats(
        esps[i]->provider_name(), 0, lab.now() + 1, 0);
    EXPECT_EQ(stats.stats.count + esps[i]->history_feeder()->pending(),
              sampled[i].size());
    total += sampled[i].size();
  }
  EXPECT_GE(total, static_cast<std::size_t>(kSensors) * 59);
  // About one appendBatch call per sampling instant, not one per sensor.
  EXPECT_LT(counter("invoke.wire_calls") - wire_before, 3u * 60u + 60u);
}

// --- deployment integration -----------------------------------------------------------------

TEST(HistorianDeployment, SampledReadingsReachTheHistorianAndTheFacade) {
  core::DeploymentConfig config;
  config.history_feed.flush_period = 2 * kSecond;
  core::Deployment lab(config);
  lab.add_temperature_sensor("Fern-Sensor", 21.0);
  lab.pump(30 * kSecond);

  ASSERT_NE(lab.historian(), nullptr);
  const auto snap = lab.historian()->store().stats_snapshot();
  EXPECT_GE(snap.appended, 20u);
  EXPECT_EQ(snap.series_count, 1u);

  // Facade queries route through the invocation pipeline to the historian.
  const auto stats =
      lab.facade().query_stats("Fern-Sensor", 0, lab.now(), 60 * kSecond);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_GE(stats.value().stats.count, 20u);
  EXPECT_GT(stats.value().stats.mean(), 0.0);

  const auto series =
      lab.facade().query_downsample("Fern-Sensor", 0, lab.now(), 8);
  ASSERT_TRUE(series.is_ok());
  EXPECT_LE(series.value().points.size(), 8u);
  EXPECT_GT(series.value().points.size(), 0u);

  const auto range =
      lab.facade().query_range("Fern-Sensor", 0, lab.now(), 1024);
  ASSERT_TRUE(range.is_ok());
  EXPECT_EQ(range.value().points.size(), stats.value().stats.count);
}

TEST(HistorianDeployment, DashboardFanOutAnswersEachSensorPositionally) {
  core::DeploymentConfig config;
  config.history_feed.flush_period = 2 * kSecond;
  core::Deployment lab(config);
  lab.add_temperature_sensor("Oak-Sensor", 20.0);
  lab.add_temperature_sensor("Elm-Sensor", 22.0);
  lab.pump(30 * kSecond);
  ASSERT_NE(lab.historian(), nullptr);

  // One dashboard page: downsample every sensor in a single scatter-gather
  // batch, positional results.
  const auto page = lab.facade().query_downsample_many(
      {"Oak-Sensor", "Elm-Sensor", "no-such-sensor"}, 0, lab.now(), 16);
  ASSERT_EQ(page.size(), 3u);
  ASSERT_TRUE(page[0].is_ok());
  ASSERT_TRUE(page[1].is_ok());
  EXPECT_GT(page[0].value().points.size(), 0u);
  EXPECT_LE(page[0].value().points.size(), 16u);
  EXPECT_GT(page[1].value().points.size(), 0u);
  // Unknown sensors answer an empty series, not a batch failure.
  ASSERT_TRUE(page[2].is_ok());
  EXPECT_TRUE(page[2].value().points.empty());
}

/// A deployment whose historian is preloaded straight through its store:
/// three sensors with 3 h of 1 Hz history, one whose history ends an hour
/// before the queried windows, and nothing about "Ghost-Sensor". Façade
/// answers are checked against the store's own downsample.
class FacadeShellReuse : public ::testing::Test {
 protected:
  static constexpr util::SimTime kHistory = 3 * util::kHour;

  FacadeShellReuse() : lab(config()) {
    preload("Oak-Sensor", 0, kHistory, 20.0);
    preload("Elm-Sensor", 0, kHistory, 30.0);
    preload("Ash-Sensor", 0, kHistory, 40.0);
    preload("Quiet-Sensor", 0, kHistory - util::kHour, 50.0);
    lab.pump(kSecond);
  }

  static core::DeploymentConfig config() {
    core::DeploymentConfig c;
    c.with_flow = false;
    c.sampling.sample_period = 0;
    c.lease_duration = util::kHour;
    return c;
  }

  void preload(const std::string& sensor, util::SimTime from, util::SimTime to,
               double base) {
    std::vector<Reading> readings;
    for (util::SimTime t = from; t < to; t += kSecond) {
      readings.push_back(make_reading(
          t, base + static_cast<double>((t / kSecond) % 120) / 10.0));
    }
    lab.historian()->store().append(sensor, readings);
  }

  /// One façade page, each series compared with a direct store downsample.
  void expect_page(const std::vector<std::string>& sensors, util::SimTime from,
                   util::SimTime to, std::size_t points = 32) {
    const auto page =
        lab.facade().query_downsample_many(sensors, from, to, points);
    ASSERT_EQ(page.size(), sensors.size());
    for (std::size_t i = 0; i < sensors.size(); ++i) {
      SCOPED_TRACE(sensors[i]);
      ASSERT_TRUE(page[i].is_ok()) << page[i].status().message();
      const SeriesResult direct =
          lab.historian()->store().downsample(sensors[i], from, to, points);
      const SeriesResult& got = page[i].value();
      EXPECT_EQ(got.source, direct.source);
      ASSERT_EQ(got.points.size(), direct.points.size());
      for (std::size_t p = 0; p < got.points.size(); ++p) {
        EXPECT_EQ(got.points[p].timestamp, direct.points[p].timestamp);
        EXPECT_EQ(got.points[p].value, direct.points[p].value);
      }
    }
  }

  core::Deployment lab;
};

TEST_F(FacadeShellReuse, ConsecutivePagesNeverLeakAnEarlierAnswer) {
  const util::SimTime ring_from = kHistory - 30 * util::kMinute;
  const util::SimTime tier_from = kHistory - 6 * util::kHour;
  // Every shell holds points after the first page; the later pages reuse
  // them for overlapping and disjoint sensor sets, a sensor with nothing
  // in the window and one the historian has never heard of.
  expect_page({"Oak-Sensor", "Elm-Sensor", "Ash-Sensor"}, ring_from, kHistory);
  expect_page({"Ghost-Sensor", "Quiet-Sensor", "Oak-Sensor"}, ring_from,
              kHistory);
  expect_page({"Ash-Sensor", "Ghost-Sensor"}, tier_from, kHistory, 64);
  expect_page({"Quiet-Sensor", "Elm-Sensor", "Ghost-Sensor", "Oak-Sensor"},
              tier_from, kHistory);
  expect_page({"Ghost-Sensor"}, ring_from, kHistory);

  const auto ghost = lab.facade().query_downsample_many(
      {"Ghost-Sensor", "Quiet-Sensor"}, ring_from, kHistory, 32);
  ASSERT_EQ(ghost.size(), 2u);
  ASSERT_TRUE(ghost[0].is_ok());
  EXPECT_TRUE(ghost[0].value().points.empty());
  EXPECT_EQ(ghost[0].value().source, "none");
  ASSERT_TRUE(ghost[1].is_ok());
  EXPECT_TRUE(ghost[1].value().points.empty());

  // Single queries take the same shells and answer alike.
  const auto one = lab.facade().query_downsample("Elm-Sensor", ring_from,
                                                 kHistory, 16);
  ASSERT_TRUE(one.is_ok());
  EXPECT_EQ(one.value().points.size(),
            lab.historian()
                ->store()
                .downsample("Elm-Sensor", ring_from, kHistory, 16)
                .points.size());
  const auto none = lab.facade().query_range("Ghost-Sensor", ring_from,
                                             kHistory, 1024);
  ASSERT_TRUE(none.is_ok());
  EXPECT_TRUE(none.value().points.empty());
  EXPECT_EQ(none.value().source, "none");
}

TEST_F(FacadeShellReuse, PageThatTimesOutLeavesItsParkedShellsBehind) {
  const std::vector<std::string> sensors{"Oak-Sensor", "Elm-Sensor",
                                         "Ash-Sensor"};
  const util::SimTime from = kHistory - 30 * util::kMinute;
  expect_page(sensors, from, kHistory);  // three shells idle now
  const auto built = counter("facade.tasks_built");

  // The deadline passes while the page's requests are still parked on the
  // fabric: the one-way hop alone outlasts it.
  lab.invoker().set_call_timeout(lab.network().latency() / 2);
  const auto timed_out =
      lab.facade().query_downsample_many(sensors, from, kHistory, 32);
  ASSERT_EQ(timed_out.size(), sensors.size());
  for (const auto& series : timed_out) EXPECT_FALSE(series.is_ok());
  EXPECT_EQ(counter("facade.tasks_built"), built);

  // The next page follows at once, while the late requests run and their
  // replies land. The parked requests still hold the old shells, so this
  // page runs on fresh ones the late runs cannot write into.
  lab.invoker().set_call_timeout(sorcer::InvokeConfig{}.call_timeout);
  expect_page(sensors, from, kHistory);
  EXPECT_EQ(counter("facade.tasks_built"), built + sensors.size());

  // Nothing holds the fresh shells once their page lands: they are reused.
  expect_page(sensors, from, kHistory);
  EXPECT_EQ(counter("facade.tasks_built"), built + sensors.size());
}

TEST_F(FacadeShellReuse, ShellThatCarriedAHugeAnswerIsLetGo) {
  const util::SimTime ring_from = kHistory - 30 * util::kMinute;
  expect_page({"Oak-Sensor"}, ring_from, kHistory);  // one shell idle now
  const auto built = counter("facade.tasks_built");

  // A downsample into 100,000 points answers with every reading and
  // bucket the window holds, far past what a shell may keep.
  const auto huge =
      lab.facade().query_downsample("Oak-Sensor", 0, kHistory, 100'000);
  ASSERT_TRUE(huge.is_ok());
  EXPECT_GT(huge.value().points.size(), hist::kMaxKeptPoints);
  EXPECT_EQ(counter("facade.tasks_built"), built);

  // Its shell was let go, so the next request builds one; that one is an
  // ordinary size and stays.
  expect_page({"Oak-Sensor"}, ring_from, kHistory);
  EXPECT_EQ(counter("facade.tasks_built"), built + 1);
  expect_page({"Oak-Sensor"}, ring_from, kHistory);
  EXPECT_EQ(counter("facade.tasks_built"), built + 1);
}

TEST_F(FacadeShellReuse, FailedReadThenAGoodOneReturnsTheGoodValue) {
  lab.add_temperature_sensor("Fern-Sensor", 21.0);
  lab.pump(kSecond);
  const auto good = lab.facade().get_value("Fern-Sensor");
  ASSERT_TRUE(good.is_ok());
  // The shell that carried the good value serves the failing read, which
  // must fail rather than answer with the value left from before.
  const auto bad = lab.facade().get_value("no-such-sensor");
  EXPECT_FALSE(bad.is_ok());
  const auto again = lab.facade().get_value("Fern-Sensor");
  ASSERT_TRUE(again.is_ok());
  EXPECT_GT(again.value(), 16.0);
  EXPECT_LT(again.value(), 26.0);
  const auto values =
      lab.facade().get_values({"no-such-sensor", "Fern-Sensor"});
  ASSERT_EQ(values.size(), 2u);
  EXPECT_FALSE(values[0].is_ok());
  ASSERT_TRUE(values[1].is_ok());
  EXPECT_GT(values[1].value(), 16.0);
}

/// Threads of this process, one /proc/self/task entry each.
std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(HistorianDeployment, ServingADashboardPageStartsNoThread) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  }
  // Every query runs on the op thread; concurrency is round trips
  // overlapped on the fabric, so booting and serving adds no thread.
  const std::size_t before = process_threads();
  core::Deployment lab{core::DeploymentConfig{}};
  lab.add_temperature_sensor("Oak-Sensor", 20.0);
  lab.pump(10 * kSecond);
  const auto page = lab.facade().query_downsample_many({"Oak-Sensor"}, 0,
                                                       lab.now(), 16);
  ASSERT_EQ(page.size(), 1u);
  ASSERT_TRUE(page[0].is_ok());
  EXPECT_GT(page[0].value().points.size(), 0u);
  EXPECT_EQ(process_threads(), before);
}

TEST(HistorianDeployment, WireModeIngestionIsByteAccounted) {
  core::DeploymentConfig config;
  config.history_feed.flush_period = 2 * kSecond;
  core::Deployment lab(config);
  lab.add_temperature_sensor("Moss-Sensor", 19.0);
  lab.pump(kSecond);  // settle registrations

  lab.network().reset_stats();
  const auto wire_before = counter("invoke.wire_calls");
  const auto appended_before = counter("hist.appends");
  lab.pump(10 * kSecond);

  // appendBatch pushes really crossed the fabric as wire calls carrying
  // marshalled payload bytes.
  EXPECT_GT(counter("hist.appends") - appended_before, 0u);
  EXPECT_GT(counter("invoke.wire_calls") - wire_before, 0u);
  EXPECT_GT(lab.network().totals().payload_bytes_sent, 0u);
  EXPECT_GT(lab.network().totals().header_bytes_sent, 0u);

  // The pushed readings are queryable over the same wire pipeline.
  const auto stats =
      lab.facade().query_stats("Moss-Sensor", 0, lab.now(), 60 * kSecond);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_GT(stats.value().stats.count, 0u);
}

TEST(HistorianDeployment, PipelinedFlushOverlapsAppendBatchCalls) {
  core::DeploymentConfig config;
  config.sampling.sample_period = 0;  // quiet fabric: we drive the feeder
  config.history_feed.flush_period = 0;
  config.history_feed.max_batch = 16;
  core::Deployment lab(config);
  auto esp = lab.add_temperature_sensor("Pipe-Sensor", 20.0);
  auto* feeder = esp->history_feeder();
  ASSERT_NE(feeder, nullptr);
  ASSERT_TRUE(feeder->bound());

  const auto offer_n = [&](std::size_t n, util::SimTime base) {
    for (std::size_t i = 0; i < n; ++i) {
      feeder->offer({base + static_cast<util::SimTime>(i) * 1000, 20.0,
                     Quality::kGood, 0});
    }
  };

  // Calibrate: one chunk = one appendBatch round-trip in virtual time.
  offer_n(16, 1);
  util::SimTime t0 = lab.now();
  ASSERT_EQ(feeder->flush(), 16u);
  const util::SimDuration single = lab.now() - t0;
  ASSERT_GT(single, 0);

  // Four chunks pipelined as one scatter-gather batch cost ~one overlapped
  // round-trip, not four sequential ones.
  const auto saved_before = counter("invoke.overlap_saved_ns");
  offer_n(64, 1'000'000);
  t0 = lab.now();
  ASSERT_EQ(feeder->flush(), 64u);
  const util::SimDuration batch = lab.now() - t0;
  EXPECT_LT(batch, 3 * single);
  EXPECT_GT(counter("invoke.overlap_saved_ns") - saved_before, 0u);
  EXPECT_EQ(feeder->pending(), 0u);
  EXPECT_EQ(lab.historian()->store().stats_snapshot().appended, 80u);
}

TEST(HistorianDeployment, FeederUnbindsWhenHistorianLeavesAndRebinds) {
  core::Deployment lab;
  auto esp = lab.add_temperature_sensor("Ivy-Sensor", 20.0);
  ASSERT_NE(esp->history_feeder(), nullptr);
  EXPECT_TRUE(esp->history_feeder()->bound());
  lab.pump(10 * kSecond);
  const auto pushed_before = esp->history_feeder()->pushed();
  EXPECT_GT(pushed_before, 0u);

  // Historian departs: the registry transition unbinds the feeder, which
  // buffers readings instead of pushing into the void.
  lab.historian()->leave();
  EXPECT_FALSE(esp->history_feeder()->bound());
  lab.pump(10 * kSecond);
  EXPECT_EQ(esp->history_feeder()->pushed(), pushed_before);
  EXPECT_GT(esp->history_feeder()->pending(), 0u);

  // It comes back: the feeder rebinds and drains the buffer.
  for (const auto& lus : lab.lookups()) {
    ASSERT_TRUE(lab.historian()
                    ->join(lus, lab.lease_renewal(), 30 * kSecond)
                    .is_ok());
  }
  EXPECT_TRUE(esp->history_feeder()->bound());
  lab.pump(10 * kSecond);
  EXPECT_GT(esp->history_feeder()->pushed(), pushed_before);
  // Only the post-rebind sampling tail may still be in flight; the
  // disconnection backlog has drained.
  (void)esp->history_feeder()->flush();
  EXPECT_EQ(esp->history_feeder()->pending(), 0u);
}

TEST(HistorianDeployment, FailoverBackfillLeavesNoGaps) {
  core::DeploymentConfig config;
  config.history_feed.flush_period = 2 * kSecond;
  core::Deployment lab(config);
  ASSERT_TRUE(lab.provisioner()
                  .provision_elementary(
                      "Aster-Sensor",
                      [](const std::string& name) {
                        return sensor::make_temperature_probe(name, 7, 22.0);
                      },
                      rio::QosRequirement{})
                  .is_ok());
  lab.pump(15 * kSecond);
  const util::SimTime crash_time = lab.now();
  ASSERT_GT(lab.historian()->store().stats_snapshot().appended, 0u);

  // Kill the hosting cybernode; the monitor re-provisions the ESP, the
  // replacement adopts the predecessor's DataLog and backfills.
  rio::Cybernode* host = nullptr;
  for (const auto& node : lab.cybernodes()) {
    if (node->hosted_count() > 0) host = node.get();
  }
  ASSERT_NE(host, nullptr);
  host->fail();
  lab.pump(20 * kSecond);
  EXPECT_GE(lab.monitor().reprovision_count(), 1u);

  const auto instances = lab.monitor().deployed_instances("Aster-Sensor");
  ASSERT_EQ(instances.size(), 1u);
  auto* replacement =
      dynamic_cast<core::ElementarySensorProvider*>(instances[0].get());
  ASSERT_NE(replacement, nullptr);
  // The replacement adopted pre-crash history into its own log.
  ASSERT_FALSE(replacement->log().empty());
  EXPECT_LT(replacement->log().oldest().timestamp, crash_time);
  // Push the sampling tail still sitting in the feeder's batch buffer.
  ASSERT_NE(replacement->history_feeder(), nullptr);
  (void)replacement->history_feeder()->flush();

  // Every sample either incarnation ever logged made it into the historian:
  // the replay plus fresh pushes leave zero missing samples...
  const auto recorded = lab.historian()->store().range(
      "Aster-Sensor", 0, sensor::kEndOfTime, 100000);
  std::set<util::SimTime> have;
  for (const auto& p : recorded.points) have.insert(p.timestamp);
  std::size_t logged = 0;
  replacement->log().for_each(0, sensor::kEndOfTime,
                              [&](const Reading&) { ++logged; });
  std::size_t missing = 0;
  replacement->log().for_each(0, sensor::kEndOfTime, [&](const Reading& r) {
    if (!have.contains(r.timestamp)) ++missing;
  });
  EXPECT_GT(logged, 0u);
  EXPECT_EQ(missing, 0u) << "backfill left gaps in recorded history";
  // ...and the idempotent replay double-counted none of them.
  EXPECT_EQ(have.size(), recorded.points.size());
  EXPECT_GT(lab.historian()->store().stats_snapshot().duplicates, 0u)
      << "the backfill should have replayed already-recorded readings";
  // History spans the crash: readings from before and after it survive.
  EXPECT_LT(*have.begin(), crash_time);
  EXPECT_GT(*have.rbegin(), crash_time);
}

}  // namespace
}  // namespace sensorcer::hist
