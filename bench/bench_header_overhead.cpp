// Experiment CLM-1 (§II.1): "To transfer this small amount of data over the
// network, header overhead of the current IP protocol is relatively high."
//
// Measures on-wire bytes per sensor reading when readings are collected one
// datagram at a time (UDP / TCP / per-poll TCP sessions) versus batched
// through an elementary sensor provider's getLog operation, as a function of
// batch size. Expected shape: per-reading cost of polling is constant and
// header-dominated; batched cost falls hyperbolically and crosses below
// polling immediately, approaching the raw payload size.

#include <cstdio>

#include "util/strings.h"
#include "core/deployment.h"

using namespace sensorcer;

namespace {

/// Wire bytes to poll `n` readings one at a time: request (16-byte query) +
/// response (one reading) per poll.
std::size_t poll_bytes(simnet::Protocol p, std::size_t n) {
  return n * (simnet::wire_bytes(p, 16) +
              simnet::wire_bytes(p, sensor::Reading::kWireBytes));
}

/// Wire bytes to fetch `n` readings as one getLog batch.
std::size_t batch_bytes(simnet::Protocol p, std::size_t n) {
  return simnet::wire_bytes(p, 24) +  // request with window parameter
         simnet::wire_bytes(p, n * sensor::Reading::kWireBytes);
}

}  // namespace

int main() {
  std::puts("=== CLM-1: protocol header overhead vs aggregation (§II.1) ===\n");
  std::printf("reading payload: %zu bytes; UDP header stack: %zu bytes; "
              "TCP: %zu; TCP session: %zu\n\n",
              sensor::Reading::kWireBytes,
              simnet::header_bytes(simnet::Protocol::kUdp),
              simnet::header_bytes(simnet::Protocol::kTcp),
              simnet::header_bytes(simnet::Protocol::kTcpSession));

  std::puts("Analytical model — bytes per reading:");
  std::vector<std::vector<std::string>> rows;
  for (std::size_t batch : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u,
                            512u, 1024u}) {
    const auto per = [&](std::size_t total) {
      return util::format("%.1f", static_cast<double>(total) /
                                      static_cast<double>(batch));
    };
    rows.push_back(
        {std::to_string(batch),
         per(poll_bytes(simnet::Protocol::kUdp, batch)),
         per(poll_bytes(simnet::Protocol::kTcp, batch)),
         per(poll_bytes(simnet::Protocol::kTcpSession, batch)),
         per(batch_bytes(simnet::Protocol::kTcp, batch))});
  }
  std::puts(util::render_table({"readings", "poll/UDP B/r", "poll/TCP B/r",
                                "poll/TCP-sess B/r", "getLog batch B/r"},
                               rows)
                .c_str());

  // Measured end to end: every getValue/getLog exertion is a real
  // request/response Message pair on the fabric, so each reading also pays
  // the response envelope plus trace-propagation headers. The aggregation
  // shape must survive that.
  std::puts("Measured over the wire (getValue polls vs one getLog batch):");
  std::vector<std::vector<std::string>> wired;
  for (std::size_t batch : {1u, 8u, 64u, 512u}) {
    core::DeploymentConfig config;
    config.sampling.sample_period = 100 * util::kMillisecond;
    config.sampling.log_capacity = 4096;
    core::Deployment lab(config);
    lab.add_temperature_sensor("Metered");
    lab.pump(static_cast<util::SimDuration>(batch) * 100 *
             util::kMillisecond);

    lab.network().reset_stats();
    for (std::size_t i = 0; i < batch; ++i) {
      auto task = sorcer::Task::make(
          "t", sorcer::Signature{core::kSensorDataAccessorType,
                                 core::op::kGetValue, "Metered"});
      (void)sorcer::exert(task, lab.accessor());
    }
    const double polled =
        static_cast<double>(lab.network().totals().payload_bytes_sent +
                            lab.network().totals().header_bytes_sent) /
        static_cast<double>(batch);

    lab.network().reset_stats();
    auto log_task = sorcer::Task::make(
        "t", sorcer::Signature{core::kSensorDataAccessorType,
                               core::op::kGetLog, "Metered"});
    log_task->context().put(core::path::kLogSince, 0.0);
    (void)sorcer::exert(log_task, lab.accessor());
    const double batched =
        static_cast<double>(lab.network().totals().payload_bytes_sent +
                            lab.network().totals().header_bytes_sent) /
        static_cast<double>(batch);

    wired.push_back({std::to_string(batch),
                     util::format("%.1f", polled),
                     util::format("%.1f", batched),
                     util::format("%.1fx", polled / batched)});
  }
  std::puts(util::render_table(
                {"readings", "polled B/r", "aggregated B/r", "win"},
                wired)
                .c_str());
  std::puts("Expected shape: polling cost flat and header-dominated; "
            "aggregated cost falls with batch size (the paper's aggregation "
            "argument holds end to end).");
  return 0;
}
