// Unit tests for the util foundation: ids, status/result, scheduler, rng,
// stats, strings.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "util/ids.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/strings.h"

namespace sensorcer::util {
namespace {

// --- Uuid -------------------------------------------------------------------

TEST(Uuid, DefaultIsNil) {
  Uuid u;
  EXPECT_TRUE(u.is_nil());
}

TEST(Uuid, GeneratorNeverProducesNilOrDuplicates) {
  IdGenerator gen(7);
  std::set<std::string> seen;
  for (int i = 0; i < 10000; ++i) {
    Uuid u = gen.next();
    EXPECT_FALSE(u.is_nil());
    EXPECT_TRUE(seen.insert(u.to_string()).second) << "duplicate at " << i;
  }
}

TEST(Uuid, GeneratorsWithSameSeedAgree) {
  IdGenerator a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Uuid, ToStringHasCanonicalShape) {
  IdGenerator gen(1);
  const std::string s = gen.next().to_string();
  ASSERT_EQ(s.size(), 36u);
  EXPECT_EQ(s[8], '-');
  EXPECT_EQ(s[13], '-');
  EXPECT_EQ(s[18], '-');
  EXPECT_EQ(s[23], '-');
}

TEST(Uuid, ParseRoundTrips) {
  IdGenerator gen(99);
  for (int i = 0; i < 100; ++i) {
    const Uuid u = gen.next();
    EXPECT_EQ(Uuid::parse(u.to_string()), u);
  }
}

TEST(Uuid, ParseRejectsMalformedInput) {
  EXPECT_TRUE(Uuid::parse("").is_nil());
  EXPECT_TRUE(Uuid::parse("not-a-uuid").is_nil());
  EXPECT_TRUE(Uuid::parse("267c67a0-dd67-4b95-beb0-e6763e117bZZ").is_nil());
  EXPECT_TRUE(Uuid::parse("267c67a0dd674b95beb0e6763e117b03").is_nil());
}

TEST(Uuid, OrderingIsTotal) {
  Uuid a{1, 2}, b{1, 3}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
}

// --- Status / Result ----------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s{ErrorCode::kNotFound, "no such provider"};
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: no such provider");
}

TEST(Result, HoldsValue) {
  Result<int> r{42};
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r{ErrorCode::kTimeout, "too slow"};
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kTimeout);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_STRNE(error_code_name(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

// --- Scheduler ----------------------------------------------------------------

TEST(Scheduler, FiresInTimestampOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(300, [&] { order.push_back(3); });
  sched.schedule_at(100, [&] { order.push_back(1); });
  sched.schedule_at(200, [&] { order.push_back(2); });
  sched.run_until(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 1000);
}

TEST(Scheduler, EqualTimestampsFireFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sched.run_until(50);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(100, [&] { ++fired; });
  sched.schedule_at(200, [&] { ++fired; });
  EXPECT_EQ(sched.run_until(150), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, CancelPreventsFiring) {
  Scheduler sched;
  int fired = 0;
  const TimerId id = sched.schedule_at(100, [&] { ++fired; });
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
  sched.run_until(1000);
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, RecurringFiresEveryPeriod) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_every(10, [&] { ++fired; });
  sched.run_until(100);
  EXPECT_EQ(fired, 10);
}

TEST(Scheduler, RecurringCanBeCancelledMidStream) {
  Scheduler sched;
  int fired = 0;
  TimerId id = sched.schedule_every(10, [&] { ++fired; });
  sched.run_until(35);
  EXPECT_TRUE(sched.cancel(id));
  sched.run_until(1000);
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, CallbackCanScheduleMoreWork) {
  Scheduler sched;
  std::vector<SimTime> times;
  sched.schedule_at(10, [&] {
    times.push_back(sched.now());
    sched.schedule_after(5, [&] { times.push_back(sched.now()); });
  });
  sched.run_until(100);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Scheduler, PastEventsClampToNow) {
  Scheduler sched;
  sched.run_until(500);
  SimTime fired_at = -1;
  sched.schedule_at(100, [&] { fired_at = sched.now(); });
  sched.run_ready();
  EXPECT_EQ(fired_at, 500);
}

TEST(Scheduler, FormatDuration) {
  EXPECT_EQ(format_duration(17), "17us");
  EXPECT_EQ(format_duration(2500), "2.500ms");
  EXPECT_EQ(format_duration(3 * kSecond), "3.000s");
}

// --- Rng ------------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, GaussianMomentsAreClose) {
  Rng rng(13);
  StatAccumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.gaussian(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(Rng, BetweenIsInclusive) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    saw_lo |= v == 1;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// --- Stats ----------------------------------------------------------------------

TEST(Stats, AccumulatorBasics) {
  StatAccumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_NEAR(acc.variance(), 1.25, 1e-12);
}

TEST(Stats, EmptyAccumulatorIsZero) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.min(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(Stats, PercentilesNearestRank) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.add(i);
  EXPECT_DOUBLE_EQ(t.p50(), 50.0);
  EXPECT_DOUBLE_EQ(t.p90(), 90.0);
  EXPECT_DOUBLE_EQ(t.p99(), 99.0);
  EXPECT_DOUBLE_EQ(t.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(t.percentile(100), 100.0);
}

TEST(Stats, PercentileOnEmptyIsZero) {
  PercentileTracker t;
  EXPECT_EQ(t.p50(), 0.0);
}

// --- strings --------------------------------------------------------------------

TEST(Strings, SplitPreservesEmptySegments) {
  EXPECT_EQ(split("a/b//c", '/'),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", '/'), (std::vector<std::string>{""}));
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(split(join(parts, "/"), '/'), parts);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("sensor/value", "sensor"));
  EXPECT_FALSE(starts_with("sensor", "sensor/value"));
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%s=%d", "n", 3), "n=3");
}

TEST(Strings, RenderTableAligns) {
  const std::string table =
      render_table({"name", "value"}, {{"a", "1"}, {"longer", "22"}});
  EXPECT_NE(table.find("| name   | value |"), std::string::npos);
  EXPECT_NE(table.find("| longer | 22    |"), std::string::npos);
}

}  // namespace
}  // namespace sensorcer::util

namespace sensorcer::util {
namespace {

TEST(Result, MoveOutValue) {
  Result<std::string> r{std::string("payload")};
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

TEST(Log, LevelRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(before);
}

TEST(Scheduler, RunReadyFiresOnlyDueEvents) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(0, [&] { ++fired; });
  sched.schedule_at(10, [&] { ++fired; });
  EXPECT_EQ(sched.run_ready(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, FiredCountAccumulates) {
  Scheduler sched;
  for (int i = 0; i < 5; ++i) sched.schedule_at(i, [] {});
  sched.run_until(100);
  EXPECT_EQ(sched.fired_count(), 5u);
}

TEST(Scheduler, DestructorUnlinksEachEventBeforeDestroyingIt) {
  // A queued callable whose destructor re-enters the scheduler (the last
  // reference to an object that cancels its timers on the way out) must
  // find a consistent queue.
  struct Reentrant {
    Scheduler* sched;
    TimerId other;
    std::shared_ptr<int> alive = std::make_shared<int>(0);
    ~Reentrant() {
      if (alive.use_count() == 1) (void)sched->cancel(other);
    }
    void operator()() const {}
  };
  auto sched = std::make_unique<Scheduler>();
  const TimerId first = sched->schedule_at(50, [] {});
  // Event i cancels event i + 1 as it dies, which cancels the next, ...
  for (int i = 0; i < 8; ++i) {
    sched->schedule_at(100 + i, Reentrant{sched.get(), first + 2 + i});
  }
  sched.reset();  // ASan-checked: no use of a half-destroyed queue
  SUCCEED();
}

// --- Scheduler vs a reference model -----------------------------------------
//
// A seeded random walk drives the heap scheduler and a reference model side
// by side. The model is the ordering contract written out with a
// std::multimap keyed by (when, seq). What each fired callback does —
// cancel its own series, pump the scheduler recursively, schedule more work
// — comes from one per-token script that both sides replay, and after every
// op the fire logs, clocks and queue observers must agree. A divergence
// prints the seed's op trace.

enum class Act { kNone, kCancelSelf, kNested, kSchedule };
struct Script {
  Act act = Act::kNone;
  SimDuration arg = 0;
};

class ModelScheduler {
 public:
  std::function<void(int)> on_fire;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] SimTime next_event_time() const {
    return queue_.empty() ? kNever : queue_.begin()->first.first;
  }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t fired_count() const { return fired_; }

  TimerId schedule_at(SimTime when, int token) {
    return add(std::max(when, now_), token, 0);
  }
  TimerId schedule_after(SimDuration delay, int token) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), token);
  }
  TimerId schedule_every(SimDuration period, int token) {
    if (period <= 0) period = 1;
    return add(now_ + period, token, period);
  }
  bool cancel(TimerId id) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->second.id == id) {
        queue_.erase(it);
        return true;
      }
    }
    return false;
  }
  std::size_t run_until(SimTime deadline) {
    std::size_t count = 0;
    while (!queue_.empty() && queue_.begin()->first.first <= deadline) {
      auto it = queue_.begin();
      now_ = std::max(now_, it->first.first);
      const Event ev = it->second;
      queue_.erase(it);
      if (ev.period > 0) queue_.emplace(Key{now_ + ev.period, seq_++}, ev);
      on_fire(ev.token);
      ++fired_;
      ++count;
    }
    now_ = std::max(now_, deadline);
    return count;
  }

 private:
  struct Event {
    TimerId id;
    int token;
    SimDuration period;
  };
  using Key = std::pair<SimTime, std::uint64_t>;

  TimerId add(SimTime when, int token, SimDuration period) {
    const TimerId id = next_id_++;
    queue_.emplace(Key{when, seq_++}, Event{id, token, period});
    return id;
  }

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  TimerId next_id_ = 1;
  std::uint64_t fired_ = 0;
  std::multimap<Key, Event> queue_;
};

/// The real scheduler behind the model's token-based interface.
class RealScheduler {
 public:
  std::function<void(int)> on_fire;

  [[nodiscard]] SimTime now() const { return sched_.now(); }
  [[nodiscard]] SimTime next_event_time() const {
    return sched_.next_event_time();
  }
  [[nodiscard]] std::size_t pending() const { return sched_.pending(); }
  [[nodiscard]] std::uint64_t fired_count() const {
    return sched_.fired_count();
  }
  TimerId schedule_at(SimTime when, int token) {
    return sched_.schedule_at(when, [this, token] { on_fire(token); });
  }
  TimerId schedule_after(SimDuration delay, int token) {
    return sched_.schedule_after(delay, [this, token] { on_fire(token); });
  }
  TimerId schedule_every(SimDuration period, int token) {
    return sched_.schedule_every(period, [this, token] { on_fire(token); });
  }
  bool cancel(TimerId id) { return sched_.cancel(id); }
  std::size_t run_until(SimTime deadline) { return sched_.run_until(deadline); }

 private:
  Scheduler sched_;
};

/// One side of the comparison: a scheduler plus the log its callbacks
/// write while replaying the shared script.
template <class Sched>
struct Side {
  explicit Side(std::vector<Script>& script) : script(script) {
    sched.on_fire = [this](int token) { fire(token); };
  }
  Side(const Side&) = delete;
  Side& operator=(const Side&) = delete;

  void note(const std::string& line) { log.push_back(line); }

  void fire(int token) {
    note("fire " + std::to_string(token) + " @" +
         std::to_string(sched.now()));
    const Script s = script[static_cast<std::size_t>(token)];
    switch (s.act) {
      case Act::kNone:
        break;
      case Act::kCancelSelf:
        if (++fires[token] == s.arg) {
          note(" cancel self -> " + std::to_string(sched.cancel(ids[token])));
        }
        break;
      case Act::kNested:
        note(" nested run_until fired " +
             std::to_string(sched.run_until(sched.now() + s.arg)));
        break;
      case Act::kSchedule: {
        // Children replay no action, so both sides grow the script alike.
        const int child = static_cast<int>(script.size());
        script.push_back({});
        ids[child] = sched.schedule_after(s.arg, child);
        note(" child " + std::to_string(child) + " id " +
             std::to_string(ids[child]));
        break;
      }
    }
  }

  Sched sched;
  std::vector<Script>& script;
  std::vector<std::string> log;
  std::map<int, TimerId> ids;
  std::map<int, SimDuration> fires;
};

class SchedulerModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerModelTest, HeapMatchesMultimapModel) {
  Rng rng(GetParam());
  // Each side appends children to its own copy of the script; the two
  // copies stay identical exactly as long as the sides agree.
  std::vector<Script> real_script;
  std::vector<Script> model_script;
  Side<RealScheduler> real(real_script);
  Side<ModelScheduler> model(model_script);
  std::vector<std::string> ops;

  const auto dump = [&] {
    std::string out = "seed " + std::to_string(GetParam()) + " op trace:\n";
    for (const auto& op : ops) out += "  " + op + "\n";
    return out;
  };
  const auto new_token = [&](bool recurring) {
    Script s;
    const double dice = rng.next_double();
    if (dice < 0.15) {
      s = {Act::kCancelSelf, rng.between(1, 3)};
    } else if (dice < 0.27 && !recurring) {
      // A recurring nested pump would re-fire itself forever.
      s = {Act::kNested, rng.between(0, 300)};
    } else if (dice < 0.40) {
      s = {Act::kSchedule, rng.between(0, 300)};
    }
    real_script.push_back(s);
    model_script.push_back(s);
    return static_cast<int>(real_script.size() - 1);
  };
  const auto offset = [](SimDuration d) {
    return (d < 0 ? "" : "+") + std::to_string(d);
  };
  const auto known_id = [&]() -> TimerId {
    if (real.ids.empty() || rng.chance(0.05)) return 1'000'000;  // unknown
    auto it = real.ids.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.below(real.ids.size())));
    return it->second;
  };

  for (int step = 0; step < 300; ++step) {
    std::string op;
    std::string real_out;
    std::string model_out;
    const auto op_kind = rng.below(7);
    if (op_kind <= 2) {
      const int token = new_token(op_kind == 2);
      const auto arg = op_kind == 2 ? rng.between(10, 200)
                                    : rng.between(-50, 500);
      TimerId rid = 0;
      TimerId mid = 0;
      if (op_kind == 0) {
        op = "schedule_at(now" + offset(arg) + ")";
        rid = real.sched.schedule_at(real.sched.now() + arg, token);
        mid = model.sched.schedule_at(model.sched.now() + arg, token);
      } else if (op_kind == 1) {
        op = "schedule_after(" + std::to_string(arg) + ")";
        rid = real.sched.schedule_after(arg, token);
        mid = model.sched.schedule_after(arg, token);
      } else {
        op = "schedule_every(" + std::to_string(arg) + ")";
        rid = real.sched.schedule_every(arg, token);
        mid = model.sched.schedule_every(arg, token);
      }
      real.ids[token] = rid;
      model.ids[token] = mid;
      real_out = std::to_string(rid);
      model_out = std::to_string(mid);
    } else if (op_kind == 3) {
      const TimerId id = known_id();
      op = "cancel(" + std::to_string(id) + ")";
      real_out = std::to_string(real.sched.cancel(id));
      model_out = std::to_string(model.sched.cancel(id));
    } else {
      // Deadlines: behind the clock, at it, and ahead of it.
      const auto span = op_kind == 6 ? 0 : rng.between(-10, 400);
      op = "run_until(now" + offset(span) + ")";
      real_out = std::to_string(real.sched.run_until(real.sched.now() + span));
      model_out =
          std::to_string(model.sched.run_until(model.sched.now() + span));
    }
    op += " -> " + real_out;
    ops.push_back(op);

    ASSERT_EQ(real_out, model_out) << dump();
    ASSERT_EQ(real.log, model.log) << dump();
    ASSERT_EQ(real.sched.now(), model.sched.now()) << dump();
    ASSERT_EQ(real.sched.pending(), model.sched.pending()) << dump();
    ASSERT_EQ(real.sched.next_event_time(), model.sched.next_event_time())
        << dump();
    ASSERT_EQ(real.sched.fired_count(), model.sched.fired_count()) << dump();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233));

TEST(Rng, ExponentialMeanIsClose) {
  Rng rng(23);
  StatAccumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.exponential(4.0));
  EXPECT_NEAR(acc.mean(), 4.0, 0.1);
  EXPECT_GE(acc.min(), 0.0);
}

}  // namespace
}  // namespace sensorcer::util
