// Allocation gates for the event loop and the composite read: once warm,
// scheduling and firing a timer (one-shot or recurring), a send + deliver
// on the fabric (untraced, or traced with a request-shaped body), a
// BufferPool acquire/release, refilling a cleared context and a composite
// read over the wire allocate nothing. This executable replaces the global
// operator new with a counting one (alloc_counter.cpp); each test counts
// the allocations its calling thread makes inside a measured window.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/deployment.h"
#include "obs/trace.h"
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

TEST(AllocationGate, WarmTracedSendAndDeliverAllocatesNothing) {
  // The untraced loop under a valid trace, so every delivery starts a
  // `net.recv:` span, with a body shaped like a wire request: a shared
  // pointer plus a payload buffer, held in the message and never copied.
  // Buffers circulate as through the codec's BufferPool: the sender moves
  // one into the body and the receiver hands it back.
  struct RequestLike {
    std::shared_ptr<int> exertion;
    std::vector<std::uint8_t> payload;
  };
  util::Scheduler sched;
  simnet::Network net(sched);
  const simnet::Address a = util::new_uuid();
  const simnet::Address b = util::new_uuid();
  const auto exertion = std::make_shared<int>(7);
  std::vector<std::vector<std::uint8_t>> spare(
      8, std::vector<std::uint8_t>(100, 0x5a));
  std::uint64_t delivered = 0;
  net.attach(a, [](simnet::Message&) {});
  net.attach(b, [&](simnet::Message& m) {
    if (auto* body = m.body.get_if<RequestLike>()) {
      delivered += body->payload.size();
      spare.push_back(std::move(body->payload));
    }
  });
  const auto round = [&] {
    for (int i = 0; i < 8; ++i) {  // eight in flight at once
      simnet::Message msg;
      msg.source = a;
      msg.destination = b;
      msg.topic = "invoke.request";
      msg.body = RequestLike{exertion, std::move(spare.back())};
      spare.pop_back();
      msg.payload_bytes = 100;
      msg.protocol = simnet::Protocol::kTcp;
      (void)net.send(std::move(msg));
    }
    sched.run_for(net.latency());
  };
  obs::Span request = obs::tracer().start_span("client.request");
  obs::ContextGuard guard(request.context());
  for (int i = 0; i < 16; ++i) round();  // warm: slab, heap and stats rows
  const std::uint64_t spans_before = obs::span_collector().recorded();
  EXPECT_EQ(allocations_in([&] {
              for (int i = 0; i < 1000; ++i) round();
            }),
            0u);
  EXPECT_EQ(obs::span_collector().recorded() - spans_before, 1000 * 8u);
  EXPECT_EQ(delivered, (16 + 1000) * 8 * 100u);
  EXPECT_EQ(exertion.use_count(), 1);  // every delivered body was destroyed
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

TEST(AllocationGate, WarmCompositeReadAllocatesNothing) {
  // A direct 4-leaf composite read over the wire: the collection job's
  // call to the Jobber and its four leaf calls — 5 wire calls, 10
  // messages, each call traced by `exert:`, `rpc:`, two `net.recv:` and
  // (at a leaf) an `invoke:` span. With the job renewed, every context
  // refilled in place, span names held inline and message bodies held in
  // their messages, a warm read allocates nothing.
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
  constexpr std::uint64_t kPerRead = 0;
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
