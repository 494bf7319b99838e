// Allocation gates for the event loop: once warm, scheduling and firing a
// timer (one-shot or recurring), an untraced send + deliver on the fabric,
// and a BufferPool acquire/release allocate nothing. This executable
// replaces the global operator new with a counting one (alloc_counter.cpp);
// each test counts the allocations its calling thread makes inside a
// measured window.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

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

}  // namespace
}  // namespace sensorcer
