// Allocation gates for the event loop and the composite read: once warm,
// scheduling and firing a timer (one-shot or recurring), an untraced send +
// deliver on the fabric, a BufferPool acquire/release and refilling a
// cleared context allocate nothing, and a composite read over the wire
// allocates no more than its span names and message bodies need. This
// executable replaces the global operator new with a counting one
// (alloc_counter.cpp); each test counts the allocations its calling thread
// makes inside a measured window.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "core/deployment.h"
#include "simnet/network.h"
#include "sorcer/codec.h"
#include "util/scheduler.h"

// The counting operator new (alloc_counter.cpp).
namespace alloc_counter {
void start();
std::uint64_t stop();
}  // namespace alloc_counter

namespace sensorcer {
namespace {

/// Allocations `body` makes on this thread.
template <class Body>
std::uint64_t allocations_in(Body&& body) {
  alloc_counter::start();
  body();
  return alloc_counter::stop();
}

TEST(AllocationGate, WarmScheduleAndFireAllocatesNothing) {
  util::Scheduler sched;
  int fired = 0;
  // A burst of one-shots plus a recurring series that re-arms (a copy of
  // its callable, a fresh seq) every period — the sample-timer pattern.
  sched.schedule_every(5, [&fired] { ++fired; });
  const auto cycle = [&] {
    for (int i = 0; i < 8; ++i) {
      sched.schedule_after(i, [&fired] { ++fired; });
    }
    sched.run_for(10);
  };
  for (int i = 0; i < 16; ++i) cycle();  // warm: the heap reaches capacity
  const int before = fired;
  EXPECT_EQ(allocations_in([&] {
              for (int i = 0; i < 1000; ++i) cycle();
            }),
            0u);
  EXPECT_EQ(fired - before, 1000 * (8 + 2));
}

TEST(AllocationGate, WarmUntracedSendAndDeliverAllocatesNothing) {
  util::Scheduler sched;
  simnet::Network net(sched);
  const simnet::Address a = util::new_uuid();
  const simnet::Address b = util::new_uuid();
  std::uint64_t delivered = 0;
  net.attach(a, [](simnet::Message&) {});
  net.attach(b, [&delivered](simnet::Message& m) {
    delivered += m.payload_bytes;
  });
  const auto round = [&] {
    for (int i = 0; i < 8; ++i) {  // eight in flight at once
      simnet::Message msg;
      msg.source = a;
      msg.destination = b;
      msg.topic = "invoke.request";
      msg.payload_bytes = 100;
      msg.protocol = simnet::Protocol::kTcp;
      (void)net.send(std::move(msg));
    }
    sched.run_for(net.latency());
  };
  for (int i = 0; i < 16; ++i) round();  // warm: slab, heap and stats rows
  ASSERT_FALSE(obs::current_context().valid());
  EXPECT_EQ(allocations_in([&] {
              for (int i = 0; i < 1000; ++i) round();
            }),
            0u);
  EXPECT_EQ(delivered, (16 + 1000) * 8 * 100u);
}

TEST(AllocationGate, WarmBufferPoolAcquireReleaseAllocatesNothing) {
  sorcer::BufferPool pool;
  const auto cycle = [&pool] {
    sorcer::WireBuffer buf = pool.acquire();
    buf.assign(512, 0x5a);
    pool.release(std::move(buf));
  };
  cycle();  // the one cold acquisition
  EXPECT_EQ(allocations_in([&] {
              for (int i = 0; i < 1000; ++i) cycle();
            }),
            0u);
  EXPECT_EQ(pool.retained(), 1u);
}

TEST(AllocationGate, ClearedContextRefillsWithoutAllocating) {
  using sorcer::PathDirection;
  sorcer::ServiceContext ctx;
  // The paths a sensor read fills in, one of them past the 15-character
  // small-string buffer, in the order the provider puts them.
  const auto fill = [&ctx] {
    ctx.put("sensor/value", 21.5, PathDirection::kOut);
    ctx.put("sensor/timestamp", std::int64_t{7}, PathDirection::kOut);
    ctx.put("sensor/quality", std::string("GOOD"), PathDirection::kOut);
    ctx.put("sensor/unit", std::string("C"), PathDirection::kOut);
  };
  fill();
  ctx.clear();
  EXPECT_EQ(allocations_in([&] {
              fill();
              ctx.clear();
              fill();
            }),
            0u);
  EXPECT_EQ(ctx.size(), 4u);

  // A decode that shrinks the context and then grows it back reuses the
  // dropped entries: their long path and their long string value.
  sorcer::ServiceContext full;
  full.put("sensor/log/values", std::vector<double>{1, 2, 3});
  full.put("sensor/timestamp", std::int64_t{7});
  full.put("sensor/unit", std::string("degrees Celsius, calibrated"));
  sorcer::ServiceContext shrunk;
  shrunk.put("sensor/log/values", std::vector<double>{4});
  sorcer::PathInternTable encode_table;
  sorcer::PathInternTable decode_table;
  sorcer::WireBuffer full_bytes;
  sorcer::WireBuffer shrunk_bytes;
  sorcer::encode_context(full, encode_table, full_bytes);
  sorcer::encode_context(shrunk, encode_table, shrunk_bytes);
  sorcer::ServiceContext into;
  const auto decode = [&](const sorcer::WireBuffer& bytes) {
    EXPECT_TRUE(sorcer::decode_context(bytes.data(), bytes.size(),
                                       decode_table, into)
                    .is_ok());
  };
  decode(full_bytes);
  decode(shrunk_bytes);  // warm: the spare list reaches its size
  decode(full_bytes);
  EXPECT_EQ(allocations_in([&] {
              decode(shrunk_bytes);
              decode(full_bytes);
            }),
            0u);
  EXPECT_EQ(into.size(), 3u);
  EXPECT_EQ(into.get_string("sensor/unit").value(),
            "degrees Celsius, calibrated");
}

TEST(AllocationGate, WarmCompositeReadStaysUnderItsBudget) {
  // A direct 4-leaf composite read over the wire: the collection job's
  // call to the Jobber and its four leaf calls — 5 wire calls, 10
  // messages. With the job renewed and every context refilled in place,
  // what remains per read is span names and message bodies: 10 `net.recv:`
  // names, 4 `invoke:` names and the job's `rpc:` name (the leaf `rpc:`
  // and every `exert:` name fit the small-string buffer), plus 10
  // std::any bodies.
  core::DeploymentConfig config;
  config.with_historian = false;
  config.with_flow = false;
  config.sampling.sample_period = 0;
  config.lease_duration = util::kHour;
  core::Deployment lab(config);
  for (const char* name : {"S0", "S1", "S2", "S3"}) {
    lab.add_temperature_sensor(name, 20.0);
  }
  lab.pump(util::kSecond);
  auto csp = lab.manager().create_composite("C");
  for (const char* name : {"S0", "S1", "S2", "S3"}) {
    ASSERT_TRUE(csp->add_component(name).is_ok());
  }
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(csp->get_value().is_ok());

  constexpr std::uint64_t kReads = 100;
  constexpr std::uint64_t kPerRead = 25;
  bool all_ok = true;
  const std::uint64_t allocations = allocations_in([&] {
    for (std::uint64_t i = 0; i < kReads; ++i) {
      all_ok = csp->get_value().is_ok() && all_ok;
    }
  });
  EXPECT_TRUE(all_ok);
  EXPECT_LE(allocations, kReads * kPerRead)
      << static_cast<double>(allocations) / kReads << " per read";
}

}  // namespace
}  // namespace sensorcer
