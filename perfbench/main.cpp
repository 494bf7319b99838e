// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload tree_read|dashboard|ingest --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--stamp KEY=VALUE]...
//
// Runs one workload against a wire-transport core::Deployment, checks its
// outputs, prints every metric by name with its unit, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the JSON metrics are the end-to-end set, measured untraced; with
// --trace 1 they are the per-layer set from a separate traced pass.
// Workloads, loop shapes and metric definitions: perfbench/README.md.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

using perfbench::Outcome;

struct CatalogEntry {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json's end_to_end list. The wall-clock and CPU costs
// (op_wall_us.p50/.p99, ops_per_s, cpu_us_per_op) are report lines only:
// on a shared 4-core VM the host's speed swung up to 1.6x for minutes at a
// time, and across ten consecutive 30 s runs their spread (interquartile
// range over median) reached 0.27-0.43 on unchanged code, past the largest
// bound a gate may use. setup_s is the one wall-clock metric kept, as the
// gate requires it.
constexpr CatalogEntry kEndToEnd[] = {
    {"setup_s", "s"},           {"virt_ms.p50", "ms"},
    {"virt_ms.p99", "ms"},      {"wire_bytes_per_op", "B"},
    {"allocs_per_op", "count"}, {"peak_rss_mb", "MB"},
};

// Mirrors BENCHMARK.json's per_layer list. Layers a workload does not
// cross report 0 for their counts and shares; every time-valued entry is
// measured on every workload.
constexpr CatalogEntry kPerLayer[] = {
    {"core.csp_read_share", "ratio"},
    {"core.facade_hop_share", "ratio"},
    {"core.collections_per_op", "count"},
    {"sorcer.leaf_exert_us", "us"},
    {"sorcer.resolve_us", "us"},
    {"sorcer.invoke_us", "us"},
    {"sorcer.encode_ns", "ns"},
    {"sorcer.decode_ns", "ns"},
    {"sorcer.call_overhead_us", "us"},
    {"sorcer.calls_per_op", "count"},
    {"sorcer.marshal_us_per_op", "us"},
    {"sorcer.accessor_hit_ratio", "ratio"},
    {"sorcer.intern_hit_ratio", "ratio"},
    {"sorcer.buffer_reuse_ratio", "ratio"},
    {"sorcer.timeouts_per_op", "count"},
    {"sorcer.substitutions_per_op", "count"},
    {"sorcer.wire_share", "ratio"},
    {"sorcer.codec_share", "ratio"},
    {"sorcer.resolve_share", "ratio"},
    {"simnet.msgs_per_op", "count"},
    {"simnet.payload_bytes_per_op", "B"},
    {"simnet.header_bytes_per_op", "B"},
    {"simnet.trace_bytes_per_op", "B"},
    {"simnet.dropped_per_op", "count"},
    {"util.events_per_op", "count"},
    {"util.queue_len", "count"},
    {"obs.spans_per_op", "count"},
    {"obs.span_ns", "ns"},
    {"obs.span_share", "ratio"},
    {"expr.evals_per_op", "count"},
    {"expr.eval_share", "ratio"},
    {"hist.work_share", "ratio"},
    {"hist.ring_share", "ratio"},
    {"hist.tier_share", "ratio"},
    {"hist.raw_share", "ratio"},
    {"hist.read_wait_share", "ratio"},
    {"hist.read_inline_ratio", "ratio"},
    {"hist.readings_per_batch", "count"},
    {"hist.feeder_pending", "count"},
    {"hist.feeder_dropped", "count"},
    {"hist.blocks_sealed_per_op", "count"},
    {"hist.blocks_demoted_per_op", "count"},
    {"hist.bytes_per_series", "B"},
    {"hist.compression_ratio", "ratio"},
    {"flow.readings_in_per_op", "count"},
    {"flow.emitted_ratio", "ratio"},
    {"flow.sink_failures", "count"},
    {"registry.lookups_per_op", "count"},
    {"registry.renew_batches_per_op", "count"},
    {"registry.renew_leases_per_op", "count"},
    {"registry.renew_denied", "count"},
    {"rio.pings_per_op", "count"},
    {"rio.reprovisions", "count"},
    {"sensor.probe_reads_per_op", "count"},
    {"sensor.samples_per_op", "count"},
    {"trace.overhead_us", "us"},
    {"unexplained_share", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tree_read|dashboard|ingest --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--stamp KEY=VALUE]...\n",
               why);
  std::exit(2);
}

std::string build_type() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::g_process_start_ns = perfbench::wall_ns();

  perfbench::Options options;
  std::vector<std::string> stamps;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--stamp") {
      stamps.push_back(value);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) usage("--seed needs a whole number");
  if (!have_seconds) usage("--seconds needs a positive number");
  if (!have_trace) usage("--trace needs 0 or 1");

  Outcome out;
  if (options.workload == "tree_read") {
    out = perfbench::run_tree_read(options);
  } else if (options.workload == "dashboard") {
    out = perfbench::run_dashboard(options);
  } else if (options.workload == "ingest") {
    out = perfbench::run_ingest(options);
  } else {
    usage(("unknown workload '" + options.workload + "'").c_str());
  }

  // The JSON set, in catalog order. A metric the workload did not report is
  // a benchmark bug: counts and shares of layers the workload does not
  // cross are 0, but a missing time means a probe never ran.
  const auto* begin = options.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const auto* end = options.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::string json;
  for (const auto* e = begin; e != end; ++e) {
    auto it = out.metrics.find(e->name);
    const std::string unit = e->unit;
    if (it == out.metrics.end()) {
      const bool time = unit == "s" || unit == "ms" || unit == "us" || unit == "ns";
      if (time || !options.trace) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n", e->name);
        return 1;
      }
      it = out.metrics.emplace(e->name, perfbench::Metric{0, unit}).first;
    }
    if (!std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", e->name);
      return 1;
    }
    if (!json.empty()) json += ", ";
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  e->name, it->second.value, e->unit);
    json += buf;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("stamp host=%s nproc=%u build_type=%s compiler=\"%s\"",
              host_name().c_str(), std::thread::hardware_concurrency(),
              build_type().c_str(), __VERSION__);
  for (const std::string& s : stamps) std::printf(" %s", s.c_str());
  std::printf("\n");
  for (const auto& [name, metric] : out.metrics) {
    std::printf("  %-32s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& note : out.notes) std::printf("note: %s\n", note.c_str());
  for (const std::string& f : out.failures) std::printf("FAILED: %s\n", f.c_str());
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), json.c_str());
  return 0;
}
