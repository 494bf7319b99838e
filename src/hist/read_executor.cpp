#include "hist/read_executor.h"

#include "obs/metrics.h"

namespace sensorcer::hist {

namespace {

struct ReadMetrics {
  obs::Gauge& queue_depth;
  obs::Counter& wait_ns;
  obs::Histogram& wait_us;
  obs::Counter& served;
  obs::Counter& inline_runs;
};

ReadMetrics& read_metrics() {
  static ReadMetrics m{
      obs::metrics().gauge("hist.read_queue_depth"),
      obs::metrics().counter("hist.read_wait_ns", obs::Clock::kWall),
      obs::metrics().histogram("hist.read_wait_us", {}, obs::Clock::kWall),
      obs::metrics().counter("hist.reads_served"),
      obs::metrics().counter("hist.read_inline"),
  };
  return m;
}

}  // namespace

ReadExecutor::ReadExecutor(Config config)
    : config_(config),
      pool_(config.threads == 0 ? 1 : config.threads) {
  if (config_.threads == 0) config_.threads = 1;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
}

ReadExecutor::~ReadExecutor() = default;

void ReadExecutor::note_depth(std::size_t depth) {
  read_metrics().queue_depth.set(static_cast<double>(depth));
}

void ReadExecutor::note_inline() {
  inline_.fetch_add(1, std::memory_order_relaxed);
  read_metrics().inline_runs.add();
}

void ReadExecutor::note_start(std::chrono::steady_clock::time_point enqueued) {
  const auto waited = std::chrono::steady_clock::now() - enqueued;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count();
  const std::size_t depth =
      depth_.fetch_sub(1, std::memory_order_relaxed) - 1;
  ReadMetrics& m = read_metrics();
  m.queue_depth.set(static_cast<double>(depth));
  m.wait_ns.add(static_cast<std::uint64_t>(ns > 0 ? ns : 0));
  m.wait_us.observe(static_cast<double>(ns) / 1000.0);
}

void ReadExecutor::note_done() {
  served_.fetch_add(1, std::memory_order_relaxed);
  read_metrics().served.add();
}

}  // namespace sensorcer::hist
