// Experiment CLM-6 (§IV.D): exertion federation — jobs over tasks under the
// two control strategies. Every dispatch is a request/response message pair
// on the simnet fabric. Sweeps job fan-out and reports elapsed requestor
// time (virtual) for sequential push, parallel push (Jobber) and pull with a
// worker crew (Spacer), then sweeps the pull crew size. Parallel push
// scatters all children and gathers them with one shared scheduler pump, so
// N round-trips overlap in virtual time instead of serializing. Expected
// shape: sequence grows linearly with fan-out; parallel stays flat; pull
// interpolates by crew size.
//
// `bench_exertion wire` runs just the fan-out sweep; `bench_exertion smoke`
// runs a seconds-scale subset (marshalling table + sweep, CI under ASan).
// The marshalling micro-table compares the legacy string envelope against
// the flat interned codec (PERF-5) on real wall-clock time, payload bytes
// and heap allocations per call.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "registry/lease_renewal.h"
#include "simnet/network.h"
#include "sorcer/codec.h"
#include "sorcer/exert.h"
#include "sorcer/invoke.h"
#include "sorcer/jobber.h"
#include "sorcer/spacer.h"
#include "util/strings.h"

// Counting allocator: every global new/delete bumps a relaxed counter so the
// marshalling table can report allocs/call. Delegates to malloc/free, so the
// sanitizers still see every allocation.
static std::atomic<std::uint64_t> g_alloc_count{0};

// Kept out of line: with one side inlined GCC pairs a malloc() or free() it
// can see with an operator new/delete it cannot and reports a mismatched
// new/delete (-Wmismatched-new-delete), though both sides are replaced here.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace sensorcer;
using namespace sensorcer::sorcer;

namespace {

std::shared_ptr<Job> make_job(std::size_t fanout, Flow flow, Access access) {
  auto job = Job::make("job", {flow, access, true});
  for (std::size_t i = 0; i < fanout; ++i) {
    job->add(Task::make("t" + std::to_string(i),
                        Signature{type::kTasker, "work", ""}));
  }
  return job;
}

// A small federation whose every service-to-service dispatch crosses the
// simnet fabric as a request/response message pair.
struct WireFixture {
  util::Scheduler sched;
  simnet::Network net{sched};
  std::shared_ptr<registry::LookupService> lus =
      std::make_shared<registry::LookupService>("lus", sched);
  registry::LeaseRenewalManager lrm{sched};
  ServiceAccessor accessor;
  ExertSpace space;
  RemoteInvoker invoker{net};
  std::shared_ptr<Tasker> tasker;
  std::shared_ptr<Jobber> jobber;
  std::shared_ptr<Spacer> spacer;

  explicit WireFixture(std::size_t spacer_workers) {
    accessor.add_lookup(lus);
    accessor.set_invoker(&invoker);
    tasker = std::make_shared<Tasker>("Worker");
    tasker->add_operation(
        "work", [](ServiceContext&) { return util::Status::ok(); },
        10 * util::kMillisecond);
    tasker->attach_network(net);
    (void)tasker->join(lus, lrm, 3600 * util::kSecond);
    jobber = std::make_shared<Jobber>("Jobber", accessor);
    jobber->attach_network(net);
    (void)jobber->join(lus, lrm, 3600 * util::kSecond);
    spacer = std::make_shared<Spacer>("Spacer", accessor, space,
                                      spacer_workers);
    spacer->attach_network(net);
    (void)spacer->join(lus, lrm, 3600 * util::kSecond);
  }
};

// Fan-out sweep: elapsed fabric (virtual) time at the requestor, so
// overlapped round-trips show up directly. Sequence serializes one
// round-trip per child; scatter-gather parallel push overlaps them all in
// one shared scheduler pump, so the batch costs ~the slowest child.
void run_wire_section(bool smoke) {
  std::puts("Fan-out sweep (10ms per-task service time, 200us one-way fabric "
            "latency; elapsed requestor time in virtual fabric time):");
  const std::vector<std::size_t> fanouts =
      smoke ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};
  std::vector<std::vector<std::string>> rows;
  for (std::size_t fanout : fanouts) {
    WireFixture fx(4);
    auto run = [&](Flow flow, Access access) -> util::SimDuration {
      auto job = make_job(fanout, flow, access);
      const util::SimTime t0 = fx.sched.now();
      (void)exert(job, fx.accessor);
      if (job->status() != ExertStatus::kDone) {
        std::puts("FAILED to execute job");
        std::exit(1);
      }
      return fx.sched.now() - t0;
    };
    const auto seq = run(Flow::kSequence, Access::kPush);
    const auto par = run(Flow::kParallel, Access::kPush);
    const auto pull = run(Flow::kParallel, Access::kPull);
    rows.push_back({std::to_string(fanout), util::format_duration(seq),
                    util::format_duration(par), util::format_duration(pull),
                    util::format("%.1fx", static_cast<double>(seq) /
                                              static_cast<double>(par))});
  }
  std::puts(util::render_table({"tasks", "sequence push", "scatter-gather par",
                                "pull (4 workers)", "par speedup"},
                               rows)
                .c_str());
  std::puts("Expected shape: sequence ~ N x (RTT + 10ms service time); "
            "scatter-gather parallel push ~ one slowest child plus one "
            "batch-dispatch overhead (>= 4x speedup by N=8); pull tracks the "
            "4-worker makespan model over the fabric.\n");
}

// Pull crew-size sweep at fixed fan-out: the Spacer's makespan model over
// the fabric, from sequential (1 worker) to fully parallel (32 workers).
void run_crew_section() {
  std::puts("Pull makespan vs worker-crew size (32 tasks):");
  std::vector<std::vector<std::string>> rows;
  for (std::size_t workers : {1u, 2u, 4u, 8u, 16u, 32u}) {
    WireFixture fx(workers);
    auto job = make_job(32, Flow::kParallel, Access::kPull);
    (void)exert(job, fx.accessor);
    if (job->status() != ExertStatus::kDone) {
      std::puts("FAILED to execute pull job");
      std::exit(1);
    }
    rows.push_back(
        {std::to_string(workers), util::format_duration(job->latency())});
  }
  std::puts(util::render_table({"workers", "makespan"}, rows).c_str());
  std::puts("Expected shape: makespan ~ ceil(32 / workers) x (10ms service "
            "time + RTT + two space operations).\n");
}

// --- PERF-5 marshalling micro-table -----------------------------------------
// Wall-clock encode+decode round trips for representative contexts, legacy
// string envelope vs flat interned codec. Legacy models the pre-flat wire
// path faithfully: a fresh payload buffer and a fresh decode target per call
// (nothing was pooled), full path strings on every entry, map-staged decode,
// 64-byte envelope. Flat runs warm: pooled buffer, per-pair intern tables,
// in-place reload into a recycled context, 28-byte envelope.

struct MarshalStats {
  double ns_per_call = 0;
  double bytes_per_call = 0;  // payload + envelope
  double allocs_per_call = 0;
};

template <typename Fn>
MarshalStats time_marshal(std::size_t iters, Fn&& per_call) {
  MarshalStats s;
  double bytes = 0;
  const std::uint64_t allocs0 =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) bytes += per_call();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs1 =
      g_alloc_count.load(std::memory_order_relaxed);
  const double n = static_cast<double>(iters);
  s.ns_per_call =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / n;
  s.bytes_per_call = bytes / n;
  s.allocs_per_call = static_cast<double>(allocs1 - allocs0) / n;
  return s;
}

MarshalStats marshal_legacy(const ServiceContext& src, std::size_t iters) {
  return time_marshal(iters, [&]() -> double {
    WireBuffer buf;
    encode_context_legacy(src, buf);
    ServiceContext dst;
    if (!decode_context_legacy(buf.data(), buf.size(), dst).is_ok()) {
      std::puts("FAILED: legacy decode error in marshalling table");
      std::exit(1);
    }
    return static_cast<double>(buf.size() + wire::kRequestEnvelopeBytes);
  });
}

MarshalStats marshal_flat(const ServiceContext& src, std::size_t iters) {
  auto pool = BufferPool::make();
  PathInternTable encode_side;
  PathInternTable decode_side;
  ServiceContext dst;
  // One warm-up round trip: interns every path on both sides and sizes the
  // recycled buffer/context, exactly like the second call on a live pair.
  {
    BufferPool::Handle buf = pool->acquire();
    encode_context(src, encode_side, *buf);
    (void)decode_context(buf->data(), buf->size(), decode_side, dst);
  }
  return time_marshal(iters, [&]() -> double {
    BufferPool::Handle buf = pool->acquire();
    encode_context(src, encode_side, *buf);
    if (!decode_context(buf->data(), buf->size(), decode_side, dst).is_ok()) {
      std::puts("FAILED: flat decode error in marshalling table");
      std::exit(1);
    }
    return static_cast<double>(buf->size() + wire::kFlatRequestEnvelopeBytes);
  });
}

void run_marshal_section(bool smoke) {
  std::puts("Marshalling micro-bench (PERF-5): encode+decode round trip per "
            "call, wall clock.");
  std::puts("legacy = string envelope, fresh buffer+context per call, +64B "
            "envelope; flat = warm interned codec, pooled buffer, recycled "
            "context, +28B envelope.");
  const std::size_t iters = smoke ? 20000 : 200000;

  // Representative wire payloads, smallest to largest.
  ServiceContext fanout("task");
  fanout.put("task/op", std::string("work"), PathDirection::kIn);
  fanout.put("task/arg/window", std::int64_t{64}, PathDirection::kIn);
  fanout.put("task/arg/threshold", 0.75, PathDirection::kIn);
  fanout.put("task/out/value", ContextValue{}, PathDirection::kOut);

  ServiceContext reply("read-reply");
  reply.put("sensor/name", std::string("building-3/floor-2/hvac/temp-11"),
            PathDirection::kIn);
  reply.put("sensor/value", 21.625);
  reply.put("sensor/timestamp", std::int64_t{1722470400123456});
  reply.put("sensor/quality", 0.98);
  reply.put("sensor/unit", std::string("celsius"));
  reply.put("sensor/stale", false);

  ServiceContext batch("append-batch");
  {
    std::vector<double> ts(64), vals(64), quals(64);
    for (std::size_t i = 0; i < 64; ++i) {
      ts[i] = 1.7e15 + 1e4 * static_cast<double>(i);
      vals[i] = 20.0 + 0.01 * static_cast<double>(i);
      quals[i] = 1.0;
    }
    batch.put("hist/sensor", std::string("building-3/floor-2/hvac/temp-11"),
              PathDirection::kIn);
    batch.put("hist/timestamps", std::move(ts), PathDirection::kIn);
    batch.put("hist/values", std::move(vals), PathDirection::kIn);
    batch.put("hist/qualities", std::move(quals), PathDirection::kIn);
  }

  struct Row {
    const char* label;
    const ServiceContext* ctx;
    bool asserted;  // the wire fan-out row carries the regression gate
  };
  const Row bench_rows[] = {{"fan-out task (4 entries)", &fanout, true},
                            {"sensor-read reply (6 entries)", &reply, false},
                            {"appendBatch (3x64-double series)", &batch,
                             false}};

  std::vector<std::vector<std::string>> rows;
  for (const Row& r : bench_rows) {
    const MarshalStats legacy = marshal_legacy(*r.ctx, iters);
    const MarshalStats flat = marshal_flat(*r.ctx, iters);
    const double ns_ratio = legacy.ns_per_call / flat.ns_per_call;
    const double byte_ratio = legacy.bytes_per_call / flat.bytes_per_call;
    rows.push_back(
        {r.label, util::format("%.0f", legacy.ns_per_call),
         util::format("%.0f", flat.ns_per_call),
         util::format("%.1fx", ns_ratio),
         util::format("%.0f", legacy.bytes_per_call),
         util::format("%.0f", flat.bytes_per_call),
         util::format("%.2fx", byte_ratio),
         util::format("%.1f", legacy.allocs_per_call),
         util::format("%.1f", flat.allocs_per_call)});
    if (r.asserted && (ns_ratio < 1.5 || byte_ratio < 1.25)) {
      std::printf("FAILED: flat codec regression on '%s' — need >=1.5x ns "
                  "and >=1.25x bytes over legacy, got %.2fx ns / %.2fx "
                  "bytes\n",
                  r.label, ns_ratio, byte_ratio);
      std::exit(1);
    }
  }
  std::puts(util::render_table({"context", "legacy ns", "flat ns", "ns ratio",
                                "legacy B", "flat B", "B ratio",
                                "legacy allocs", "flat allocs"},
                               rows)
                .c_str());
  std::puts("Expected shape: warm flat calls intern every path to a 1-byte "
            "id and reuse buffer/context storage, so allocs/call drop to ~0 "
            "and small-payload bytes shrink well past the 64B->28B envelope "
            "saving; the series row narrows in ns (raw 8-byte copies "
            "dominate both codecs) but still wins on bytes.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  std::puts("=== CLM-6: exertion federation over the wire ===\n");
  if (mode == "wire" || mode == "smoke") {
    // `wire` for the fan-out sweep alone, `smoke` for the seconds-scale
    // CI/ASan subset (which also gates on the marshalling table so the
    // codec perf floor is CI-enforced).
    if (mode == "smoke") run_marshal_section(true);
    run_wire_section(mode == "smoke");
    return 0;
  }
  run_wire_section(false);
  run_crew_section();
  run_marshal_section(false);
  return 0;
}
