// Unit tests for the simulated network fabric: protocol cost model,
// unicast/multicast delivery, latency, loss, partitions, byte accounting.

#include <gtest/gtest.h>

#include <any>
#include <string>
#include <vector>

#include "simnet/network.h"
#include "util/scheduler.h"

namespace sensorcer::simnet {
namespace {

using util::Scheduler;

class NetworkTest : public ::testing::Test {
 protected:
  Scheduler sched;
  Network net{sched, /*seed=*/1};
  Address a = util::new_uuid();
  Address b = util::new_uuid();
};

// --- protocol model --------------------------------------------------------------

TEST(Protocol, HeaderSizes) {
  EXPECT_EQ(header_bytes(Protocol::kUdp), 38u + 20u + 8u);
  EXPECT_EQ(header_bytes(Protocol::kMulticast), header_bytes(Protocol::kUdp));
  EXPECT_EQ(header_bytes(Protocol::kTcp), 38u + 20u + 20u);
  // A full TCP session pays 6 extra control segments.
  EXPECT_EQ(header_bytes(Protocol::kTcpSession),
            header_bytes(Protocol::kTcp) * 7);
}

TEST(Protocol, PacketCountFragmentsAtMtu) {
  EXPECT_EQ(packet_count(0), 1u);
  EXPECT_EQ(packet_count(1), 1u);
  EXPECT_EQ(packet_count(kMtuPayload), 1u);
  EXPECT_EQ(packet_count(kMtuPayload + 1), 2u);
  EXPECT_EQ(packet_count(10 * kMtuPayload), 10u);
}

TEST(Protocol, WireBytesChargesHeaderPerFragment) {
  const std::size_t h = header_bytes(Protocol::kUdp);
  EXPECT_EQ(wire_bytes(Protocol::kUdp, 100), 100 + h);
  EXPECT_EQ(wire_bytes(Protocol::kUdp, 3000), 3000 + 3 * h);
}

TEST(Protocol, SmallPayloadOverheadDominates) {
  // Motivation §II.1: one 21-byte sensor reading per UDP datagram is mostly
  // header.
  const double payload = 21.0;
  const double total = static_cast<double>(wire_bytes(Protocol::kUdp, 21));
  EXPECT_GT((total - payload) / total, 0.7);
}

// --- delivery ----------------------------------------------------------------------

TEST_F(NetworkTest, UnicastDeliversAfterLatency) {
  net.set_latency(500);
  std::vector<std::string> got;
  net.attach(b, [&](const Message& m) { got.push_back(m.topic); });

  Message msg;
  msg.source = a;
  msg.destination = b;
  msg.topic = "hello";
  msg.payload_bytes = 10;
  ASSERT_TRUE(net.send(msg).is_ok());

  EXPECT_TRUE(got.empty());  // not yet delivered
  sched.run_until(499);
  EXPECT_TRUE(got.empty());
  sched.run_until(500);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "hello");
}

TEST_F(NetworkTest, SendToUnknownDestinationFails) {
  Message msg;
  msg.source = a;
  msg.destination = b;  // never attached
  EXPECT_EQ(net.send(msg).code(), util::ErrorCode::kNotFound);
}

TEST_F(NetworkTest, DetachDropsInFlightMessages) {
  int got = 0;
  net.attach(b, [&](const Message&) { ++got; });
  Message msg;
  msg.source = a;
  msg.destination = b;
  ASSERT_TRUE(net.send(msg).is_ok());
  net.detach(b);
  sched.run_until(util::kSecond);
  EXPECT_EQ(got, 0);
}

TEST_F(NetworkTest, MulticastReachesAllMembersExceptSender) {
  const Address group = util::new_uuid();
  int got_a = 0, got_b = 0;
  net.attach(a, [&](const Message&) { ++got_a; });
  net.attach(b, [&](const Message&) { ++got_b; });
  net.join_group(group, a);
  net.join_group(group, b);

  Message msg;
  msg.source = a;
  msg.topic = "announce";
  EXPECT_EQ(net.multicast(group, msg), 1u);
  sched.run_until(util::kSecond);
  EXPECT_EQ(got_a, 0);  // sender excluded
  EXPECT_EQ(got_b, 1);
}

TEST_F(NetworkTest, LeaveGroupStopsDelivery) {
  const Address group = util::new_uuid();
  int got = 0;
  net.attach(b, [&](const Message&) { ++got; });
  net.join_group(group, b);
  net.leave_group(group, b);
  Message msg;
  msg.source = a;
  EXPECT_EQ(net.multicast(group, msg), 0u);
}

TEST_F(NetworkTest, PartitionBlocksBothDirections) {
  int got_a = 0, got_b = 0;
  net.attach(a, [&](const Message&) { ++got_a; });
  net.attach(b, [&](const Message&) { ++got_b; });
  net.partition(a, b);

  Message ab;
  ab.source = a;
  ab.destination = b;
  EXPECT_TRUE(net.send(ab).is_ok());  // datagram "sent", silently lost
  Message ba;
  ba.source = b;
  ba.destination = a;
  EXPECT_TRUE(net.send(ba).is_ok());
  sched.run_until(util::kSecond);
  EXPECT_EQ(got_a, 0);
  EXPECT_EQ(got_b, 0);

  net.heal(a, b);
  EXPECT_TRUE(net.send(ab).is_ok());
  sched.run_until(2 * util::kSecond);
  EXPECT_EQ(got_b, 1);
}

TEST_F(NetworkTest, LossRateDropsRoughlyThatFraction) {
  net.set_loss_rate(0.3);
  int got = 0;
  net.attach(b, [&](const Message&) { ++got; });
  for (int i = 0; i < 2000; ++i) {
    Message msg;
    msg.source = a;
    msg.destination = b;
    ASSERT_TRUE(net.send(msg).is_ok());
  }
  sched.run_until(util::kMinute);
  EXPECT_NEAR(got, 1400, 80);
  EXPECT_NEAR(static_cast<double>(net.totals().messages_dropped), 600, 80);
}

// --- accounting -----------------------------------------------------------------

TEST_F(NetworkTest, SenderChargedPayloadAndHeaders) {
  net.attach(b, [](const Message&) {});
  Message msg;
  msg.source = a;
  msg.destination = b;
  msg.payload_bytes = 100;
  msg.protocol = Protocol::kUdp;
  ASSERT_TRUE(net.send(msg).is_ok());

  const TrafficStats& s = net.stats_for(a);
  EXPECT_EQ(s.messages_sent, 1u);
  EXPECT_EQ(s.payload_bytes_sent, 100u);
  EXPECT_EQ(s.header_bytes_sent, header_bytes(Protocol::kUdp));
  EXPECT_EQ(s.wire_bytes_sent(), 100u + header_bytes(Protocol::kUdp));
}

TEST_F(NetworkTest, FragmentedPayloadChargedPerPacketHeaders) {
  net.attach(b, [](const Message&) {});
  Message msg;
  msg.source = a;
  msg.destination = b;
  msg.payload_bytes = 3 * kMtuPayload;
  ASSERT_TRUE(net.send(msg).is_ok());
  EXPECT_EQ(net.stats_for(a).header_bytes_sent,
            3 * header_bytes(Protocol::kUdp));
}

TEST_F(NetworkTest, DroppedMessagesStillChargeTheSender) {
  // The bytes went on the wire even if nobody received them.
  net.attach(b, [](const Message&) {});
  net.partition(a, b);
  Message msg;
  msg.source = a;
  msg.destination = b;
  msg.payload_bytes = 50;
  ASSERT_TRUE(net.send(msg).is_ok());
  EXPECT_EQ(net.stats_for(a).payload_bytes_sent, 50u);
  EXPECT_EQ(net.stats_for(a).messages_dropped, 1u);
}

TEST_F(NetworkTest, AccountRpcChargesBothSides) {
  net.attach(a, [](const Message&) {});
  net.attach(b, [](const Message&) {});
  net.account_rpc(a, b, 200, 1000, Protocol::kTcp);
  EXPECT_EQ(net.stats_for(a).payload_bytes_sent, 200u);
  EXPECT_EQ(net.stats_for(b).payload_bytes_sent, 1000u);
  EXPECT_EQ(net.totals().payload_bytes_sent, 1200u);
  EXPECT_EQ(net.totals().messages_sent, 2u);
}

TEST_F(NetworkTest, ResetStatsClearsCounters) {
  net.attach(b, [](const Message&) {});
  Message msg;
  msg.source = a;
  msg.destination = b;
  msg.payload_bytes = 10;
  ASSERT_TRUE(net.send(msg).is_ok());
  net.reset_stats();
  EXPECT_EQ(net.totals().messages_sent, 0u);
  EXPECT_EQ(net.stats_for(a).messages_sent, 0u);
}

TEST_F(NetworkTest, TotalsAggregateAcrossSenders) {
  net.attach(a, [](const Message&) {});
  net.attach(b, [](const Message&) {});
  Message m1;
  m1.source = a;
  m1.destination = b;
  m1.payload_bytes = 10;
  Message m2;
  m2.source = b;
  m2.destination = a;
  m2.payload_bytes = 20;
  ASSERT_TRUE(net.send(m1).is_ok());
  ASSERT_TRUE(net.send(m2).is_ok());
  EXPECT_EQ(net.totals().payload_bytes_sent, 30u);
  EXPECT_EQ(net.totals().messages_sent, 2u);
}

// --- parameterized: batching amortizes headers (the §II.1 claim in miniature) ---

class BatchingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchingTest, BytesPerReadingShrinkWithBatchSize) {
  const std::size_t batch = GetParam();
  const std::size_t reading = 21;  // sensor::Reading::kWireBytes
  const double batched =
      static_cast<double>(wire_bytes(Protocol::kUdp, batch * reading)) /
      static_cast<double>(batch);
  const double single =
      static_cast<double>(wire_bytes(Protocol::kUdp, reading));
  EXPECT_LE(batched, single);
  if (batch >= 8) {
    EXPECT_LT(batched, single / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchingTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));

}  // namespace
}  // namespace sensorcer::simnet

namespace sensorcer::simnet {
namespace {

TEST(Bandwidth, DefaultIsInfinite) {
  util::Scheduler sched;
  Network net(sched);
  net.set_latency(100);
  EXPECT_EQ(net.delivery_delay(Protocol::kUdp, 0), 100);
  EXPECT_EQ(net.delivery_delay(Protocol::kUdp, 1'000'000), 100);
}

TEST(Bandwidth, SerializationDelayProportionalToWireBytes) {
  util::Scheduler sched;
  Network net(sched);
  net.set_latency(100);
  net.set_bandwidth(1'000'000);  // 1 MB/s
  // 1400-byte payload + 66 UDP headers = 1466 wire bytes => 1466us.
  EXPECT_EQ(net.delivery_delay(Protocol::kUdp, kMtuPayload), 100 + 1466);
  // Small messages barely pay anything beyond propagation.
  EXPECT_LT(net.delivery_delay(Protocol::kUdp, 8), 100 + 100);
}

// --- fabric-owned messages ------------------------------------------------------

TEST_F(NetworkTest, HandlerCanSendWhileItsOwnMessageIsDelivered) {
  // The receiver owns its message for the call, so sends from inside the
  // handler — enough to reuse the delivering slot and grow the in-flight
  // slab — leave it intact.
  const std::string body(64, 'x');  // heap-backed: a dangling copy would show
  int echoes = 0;
  net.attach(a, [&](const Message& m) {
    EXPECT_EQ(m.topic, "echo");
    ++echoes;
  });
  net.attach(b, [&](Message& m) {
    for (int i = 0; i < 16; ++i) {
      Message echo;
      echo.source = b;
      echo.destination = a;
      echo.topic = "echo";
      echo.body = std::any_cast<std::string>(m.body);
      ASSERT_TRUE(net.send(std::move(echo)).is_ok());
      EXPECT_EQ(m.topic, "ping");
      EXPECT_EQ(std::any_cast<const std::string&>(m.body), body);
    }
  });
  Message ping;
  ping.source = a;
  ping.destination = b;
  ping.topic = "ping";
  ping.body = body;
  ASSERT_TRUE(net.send(std::move(ping)).is_ok());
  sched.run_for(util::kSecond);
  EXPECT_EQ(echoes, 16);
  EXPECT_EQ(net.totals().messages_received, 17u);
}

TEST_F(NetworkTest, SendAfterEvaluatesTheDestinationAtSendTime) {
  int got = 0;
  net.attach(b, [&](const Message&) { ++got; });
  Message msg;
  msg.source = a;
  msg.destination = b;
  msg.payload_bytes = 100;
  net.send_after(1000, msg);
  sched.schedule_after(500, [&] { net.detach(b); });
  sched.run_for(400);
  EXPECT_EQ(net.totals().messages_sent, 0u);  // nothing charged yet
  sched.run_for(util::kSecond);
  // Detached during the delay: refused at send time, uncharged, undelivered.
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.totals().messages_sent, 0u);
  EXPECT_EQ(net.totals().messages_dropped, 0u);

  // The converse: not attached when deferred, attached by send time.
  const Address c = util::new_uuid();
  int got_c = 0;
  msg.destination = c;
  net.send_after(1000, msg);
  sched.schedule_after(500, [&] {
    net.attach(c, [&](const Message&) { ++got_c; });
  });
  sched.run_for(util::kSecond);
  EXPECT_EQ(got_c, 1);
  EXPECT_EQ(net.totals().messages_sent, 1u);
}

TEST_F(NetworkTest, SendAfterIntoAPartitionIsChargedAndDroppedAtSendTime) {
  int got = 0;
  net.attach(b, [&](const Message&) { ++got; });
  Message msg;
  msg.source = a;
  msg.destination = b;
  msg.payload_bytes = 100;
  msg.protocol = Protocol::kTcp;
  net.send_after(1000, std::move(msg));
  sched.schedule_after(500, [&] { net.partition(a, b); });
  sched.run_for(util::kSecond);
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.totals().messages_sent, 1u);
  EXPECT_EQ(net.totals().messages_dropped, 1u);
  EXPECT_EQ(net.totals().wire_bytes_sent(), wire_bytes(Protocol::kTcp, 100));
}

TEST(Bandwidth, DeliveryTimeReflectsMessageSize) {
  util::Scheduler sched;
  Network net(sched, 1);
  net.set_latency(100);
  net.set_bandwidth(100'000);  // 100 KB/s: 10us per byte
  Address a = util::new_uuid(), b = util::new_uuid();
  util::SimTime small_at = -1, big_at = -1;
  net.attach(b, [&](const Message& m) {
    (m.topic == "small" ? small_at : big_at) = sched.now();
  });
  Message small;
  small.source = a;
  small.destination = b;
  small.topic = "small";
  small.payload_bytes = 10;
  Message big = small;
  big.topic = "big";
  big.payload_bytes = 10'000;
  ASSERT_TRUE(net.send(small).is_ok());
  ASSERT_TRUE(net.send(big).is_ok());
  sched.run_for(util::kSecond);
  ASSERT_GT(small_at, 0);
  ASSERT_GT(big_at, 0);
  EXPECT_GT(big_at, small_at + 90'000);  // ~10k bytes at 10us/byte
}

}  // namespace
}  // namespace sensorcer::simnet
