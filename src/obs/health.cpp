#include "obs/health.h"

#include "util/sim_time.h"
#include "util/strings.h"

namespace sensorcer::obs {

namespace {

std::string us(double v) {
  return util::format_duration(static_cast<util::SimDuration>(v));
}

std::string latency_row(const Snapshot& snap, const std::string& name) {
  const HistogramSnapshot* h = snap.histogram(name);
  if (h == nullptr || h->count == 0) return "n=0";
  return util::format("n=%llu p50=%s p99=%s max=%s",
                      static_cast<unsigned long long>(h->count),
                      us(h->p50).c_str(), us(h->p99).c_str(),
                      us(h->max).c_str());
}

}  // namespace

std::string render_federation_health(const Snapshot& snap) {
  std::string out = "Federation Health\n=================\n";
  out += "as of sim time " + util::format_duration(snap.sim_time) + "\n\n";

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"registry", "services registered",
                  util::format("%.0f", snap.gauge_or("registry.services"))});
  rows.push_back({"registry", "lookups served",
                  std::to_string(snap.counter_or("registry.lookups"))});
  rows.push_back(
      {"registry", "lease renewals / expirations",
       std::to_string(snap.counter_or("registry.renewals")) + " / " +
           std::to_string(snap.counter_or("registry.expirations"))});
  // Federated registry (PR 8): shard balance of the most recently active
  // federation and the batched renewAll traffic that replaced per-lease
  // renewal messages.
  {
    std::string balance;
    for (const auto& [name, value] : snap.gauges) {
      if (!name.starts_with("registry.shard_services.")) continue;
      if (!balance.empty()) balance += " ";
      balance += util::format("%.0f", value);
    }
    rows.push_back(
        {"registry", "shards / balance / imbalance",
         util::format("%.0f", snap.gauge_or("registry.shards")) + " / [" +
             balance + "] / " +
             util::format("%.2f", snap.gauge_or("registry.shard_imbalance"))});
  }
  {
    const auto batches = snap.counter_or("registry.renew_batches");
    const auto leases = snap.counter_or("registry.renew_batch_leases");
    rows.push_back(
        {"registry", "renew batches / leases per batch",
         std::to_string(batches) + " / " +
             (batches == 0 ? std::string("n/a")
                           : util::format("%.1f", static_cast<double>(leases) /
                                                      static_cast<double>(
                                                          batches)))});
    rows.push_back({"registry", "batch renewals denied",
                    std::to_string(snap.counter_or("registry.renew_denied"))});
  }
  rows.push_back({"discovery", "latency",
                  latency_row(snap, "discovery.latency_us")});
  rows.push_back({"discovery", "announcements / discovered",
                  std::to_string(snap.counter_or("discovery.announcements")) +
                      " / " +
                      std::to_string(snap.counter_or("discovery.discovered"))});
  rows.push_back({"accessor", "cache hit / miss",
                  std::to_string(snap.counter_or("accessor.cache_hits")) +
                      " / " +
                      std::to_string(snap.counter_or("accessor.cache_misses"))});
  rows.push_back({"exertion", "tasks dispatched",
                  std::to_string(snap.counter_or("sorcer.task.invocations"))});
  rows.push_back({"exertion", "task latency",
                  latency_row(snap, "sorcer.task.latency_us")});
  rows.push_back({"exertion", "job latency",
                  latency_row(snap, "sorcer.job.latency_us")});
  rows.push_back({"exertion", "failures / substitutions",
                  std::to_string(snap.counter_or("sorcer.exert_failures")) +
                      " / " +
                      std::to_string(snap.counter_or("sorcer.substitutions"))});
  rows.push_back({"invoke", "wire calls",
                  std::to_string(snap.counter_or("invoke.wire_calls"))});
  rows.push_back({"invoke", "timeouts / late responses",
                  std::to_string(snap.counter_or("invoke.timeouts")) + " / " +
                      std::to_string(snap.counter_or("invoke.late_responses"))});
  rows.push_back({"invoke", "wire round-trip",
                  latency_row(snap, "invoke.rtt_us")});
  rows.push_back(
      {"invoke", "outstanding / idle waits",
       util::format("%.0f", snap.gauge_or("invoke.outstanding")) + " / " +
           std::to_string(snap.counter_or("invoke.idle_waits"))});
  rows.push_back({"invoke", "overlap saved",
                  util::format("%.3f ms",
                               static_cast<double>(snap.counter_or(
                                   "invoke.overlap_saved_ns")) /
                                   1e6)});
  // Wire-path codec health: how warm the zero-copy marshalling machinery
  // runs (sorcer/codec.h). Hit/reuse rates near 1.0 mean steady-state calls
  // ship interned ids and recycled buffers only.
  {
    const auto hits = snap.counter_or("invoke.intern_hits");
    const auto misses = snap.counter_or("invoke.intern_misses");
    const double rate =
        hits + misses == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(hits + misses);
    rows.push_back({"wire", "path intern hit rate",
                    util::format("%.1f%% (%llu/%llu)", 100.0 * rate,
                                 static_cast<unsigned long long>(hits),
                                 static_cast<unsigned long long>(hits + misses))});
  }
  {
    // invoke.pool_acquires counts cold acquisitions only, so every
    // acquisition is either cold or a reuse.
    const auto cold = snap.counter_or("invoke.pool_acquires");
    const auto reuse = snap.counter_or("invoke.pool_reuse");
    const auto total = reuse + cold;
    const double rate = total == 0 ? 0.0
                                   : static_cast<double>(reuse) /
                                         static_cast<double>(total);
    rows.push_back({"wire", "buffer pool reuse rate",
                    util::format("%.1f%% (%llu/%llu)", 100.0 * rate,
                                 static_cast<unsigned long long>(reuse),
                                 static_cast<unsigned long long>(total))});
  }
  {
    const auto wire_calls = snap.counter_or("invoke.wire_calls");
    const auto arena = snap.counter_or("invoke.arena_bytes");
    rows.push_back(
        {"wire", "arena bytes total / per call",
         wire_calls == 0
             ? std::to_string(arena) + " / n/a"
             : std::to_string(arena) + " / " +
                   util::format("%.1f", static_cast<double>(arena) /
                                            static_cast<double>(wire_calls))});
  }
  rows.push_back({"collection", "CSP collection latency",
                  latency_row(snap, "csp.collection_latency_us")});
  rows.push_back({"mailbox", "discarded / expired",
                  std::to_string(snap.counter_or("mailbox.discarded")) +
                      " / " +
                      std::to_string(snap.counter_or("mailbox.expired"))});
  rows.push_back({"historian", "readings appended / duplicates",
                  std::to_string(snap.counter_or("hist.appends")) + " / " +
                      std::to_string(snap.counter_or("hist.duplicates"))});
  rows.push_back({"historian", "evicted readings / series",
                  std::to_string(snap.counter_or("hist.evicted")) + " / " +
                      std::to_string(snap.counter_or("hist.series_evicted"))});
  rows.push_back(
      {"historian", "queries rollup / tiered / raw",
       std::to_string(snap.counter_or("hist.query_rollup")) + " / " +
           std::to_string(snap.counter_or("hist.query_tiered")) + " / " +
           std::to_string(snap.counter_or("hist.query_raw"))});
  // Compressed retention: sealed-chain compression and the
  // storage-class byte split.
  rows.push_back(
      {"historian", "compression ratio / sealed blocks",
       util::format("%.1fx", snap.gauge_or("hist.compression_ratio")) + " / " +
           util::format("%.0f", snap.gauge_or("hist.sealed_blocks"))});
  rows.push_back(
      {"historian", "bytes raw / sealed / tiered",
       util::format("%.0f / %.0f / %.0f",
                    snap.gauge_or("hist.bytes_uncompressed"),
                    snap.gauge_or("hist.bytes_sealed"),
                    snap.gauge_or("hist.bytes_tiered"))});
  rows.push_back({"historian", "feeder pushed / dropped",
                  std::to_string(snap.counter_or("hist.feeder_pushed")) +
                      " / " +
                      std::to_string(snap.counter_or("hist.feeder_dropped"))});
  rows.push_back({"flow", "active flows",
                  util::format("%.0f", snap.gauge_or("flow.flows"))});
  rows.push_back({"flow", "readings in / emitted",
                  std::to_string(snap.counter_or("flow.readings_in")) + " / " +
                      std::to_string(snap.counter_or("flow.emitted"))});
  rows.push_back(
      {"flow", "filtered out / duplicates dropped",
       std::to_string(snap.counter_or("flow.filtered_out")) + " / " +
           std::to_string(snap.counter_or("flow.duplicates_dropped"))});
  rows.push_back({"flow", "frames pushed / requeued",
                  std::to_string(snap.counter_or("flow.frames_pushed")) +
                      " / " +
                      std::to_string(snap.counter_or("flow.frames_requeued"))});
  rows.push_back({"flow", "sink pushed / failures",
                  std::to_string(snap.counter_or("flow.sink_pushed")) + " / " +
                      std::to_string(snap.counter_or("flow.sink_failures"))});
  rows.push_back({"provisioning", "provisions / re-provisions",
                  std::to_string(snap.counter_or("rio.provisions")) + " / " +
                      std::to_string(snap.counter_or("rio.reprovisions"))});
  rows.push_back(
      {"provisioning", "failed placements / cascade restarts",
       std::to_string(snap.counter_or("rio.failed_placements")) + " / " +
           std::to_string(snap.counter_or("rio.cascades"))});
  rows.push_back(
      {"provisioning", "placement dedups / degrade events",
       std::to_string(snap.counter_or("rio.placement_dedup")) + " / " +
           std::to_string(snap.counter_or("rio.degrade_events"))});
  rows.push_back(
      {"provisioning", "dependency edges / degraded / unplaced",
       std::to_string(static_cast<std::uint64_t>(
           snap.gauge_or("rio.dep_edges"))) +
           " / " +
           std::to_string(
               static_cast<std::uint64_t>(snap.gauge_or("rio.degraded"))) +
           " / " +
           std::to_string(
               static_cast<std::uint64_t>(snap.gauge_or("rio.unplaced")))});
  rows.push_back({"network", "messages sent / dropped",
                  std::to_string(snap.counter_or("simnet.messages_sent")) +
                      " / " +
                      std::to_string(snap.counter_or("simnet.messages_dropped"))});
  rows.push_back(
      {"network", "payload / header bytes",
       std::to_string(snap.counter_or("simnet.payload_bytes_sent")) + " / " +
           std::to_string(snap.counter_or("simnet.header_bytes_sent"))});
  rows.push_back(
      {"network", "wire bytes UDP/TCP/sess/mcast",
       std::to_string(snap.counter_or("simnet.wire_bytes.udp")) + " / " +
           std::to_string(snap.counter_or("simnet.wire_bytes.tcp")) + " / " +
           std::to_string(snap.counter_or("simnet.wire_bytes.tcp_session")) +
           " / " +
           std::to_string(snap.counter_or("simnet.wire_bytes.multicast"))});
  rows.push_back({"network", "tracing header bytes",
                  std::to_string(snap.counter_or("simnet.trace_bytes_sent"))});

  out += util::render_table({"layer", "metric", "value"}, rows);
  return out;
}

}  // namespace sensorcer::obs
