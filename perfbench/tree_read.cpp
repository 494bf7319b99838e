// tree_read: the paper's Fig-3 operation scaled up so per-hop framework
// cost dominates. One client reads the root of a 3-level composite tree
// (4-way fan-out, 21 CSPs each averaging its children, 64 zero-noise leaf
// ESPs with distinct base values) through SensorcerFacade::get_value over
// the wire transport. Freshness 0, no sampling, no historian, no flow, and
// hour-long leases, so each read is pure federation work: resolve, exert,
// invoke, codec, simnet, provider dispatch and expression evaluation.

#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "closed_loop.h"
#include "expr/evaluator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sensor/probe.h"
#include "sorcer/codec.h"
#include "sorcer/exert.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {

namespace sc = sensorcer;

namespace {

constexpr std::size_t kFanout = 4;
constexpr std::size_t kLevels = 3;
constexpr std::size_t kLeaves = 64;  // kFanout ^ kLevels
constexpr const char* kAverage = "(a + b + c + d) / 4";
constexpr const char* kRoot = "Root";
// The diurnal signal moves < 1e-5 over one read's virtual time, while two
// leaves' base values differ by >= 0.1.
constexpr double kTolerance = 1e-4;
// Calls per span for the sub-microsecond probes.
constexpr std::size_t kInner = 16;

class TreeRead final : public ClosedLoopWorkload {
 public:
  explicit TreeRead(std::uint64_t seed) : seed_(seed) {
    sc::util::Rng rng(seed);
    // The LAN's one-way latency is an input like the sensor values.
    latency_ = static_cast<sc::util::SimDuration>(rng.between(195, 205)) *
               sc::util::kMicrosecond;
    std::vector<std::size_t> order(kLeaves);
    for (std::size_t i = 0; i < kLeaves; ++i) order[i] = i;
    for (std::size_t i = kLeaves - 1; i > 0; --i) {
      std::swap(order[i], order[rng.below(i + 1)]);
    }
    for (std::size_t i = 0; i < kLeaves; ++i) {
      bases_.push_back(12.0 + 0.25 * static_cast<double>(order[i]) +
                       rng.uniform(0.0, 0.1));
    }
  }

  void setup() override {
    sc::core::DeploymentConfig config;
    config.invoke.transport = sc::sorcer::Transport::kWire;
    config.network_latency = latency_;
    config.seed = seed_;
    config.worker_threads = 1;
    config.with_historian = false;
    config.with_flow = false;
    config.sampling.sample_period = 0;
    config.collection.freshness = 0;
    config.lease_duration = sc::util::kHour;
    lab_ = std::make_unique<sc::core::Deployment>(config);

    probes_.clear();
    std::vector<std::string> level;
    for (std::size_t i = 0; i < kLeaves; ++i) {
      const std::string name = sc::util::format("L%02zu", i);
      sc::sensor::SignalModel model;
      model.base = bases_[i];
      model.amplitude = 6.0;
      model.period = 24 * sc::util::kHour;
      model.noise_stddev = 0.0;
      auto probe = std::make_unique<sc::sensor::SimulatedProbe>(
          sc::sensor::SimulatedDevice(
              sc::sensor::make_sunspot_temperature(name, seed_).teds(), model,
              seed_ + i));
      probes_.push_back(probe.get());
      lab_->add_sensor(name, std::move(probe));
      level.push_back(name);
    }
    for (std::size_t depth = kLevels; depth > 0; --depth) {
      std::vector<std::string> parents;
      for (std::size_t p = 0; p < level.size() / kFanout; ++p) {
        const std::string name =
            depth == 1 ? std::string(kRoot)
                       : sc::util::format("C%zu-%02zu", depth - 1, p);
        auto csp = lab_->facade().create_local_service(name);
        const std::vector<std::string> children(
            level.begin() + static_cast<std::ptrdiff_t>(p * kFanout),
            level.begin() + static_cast<std::ptrdiff_t>((p + 1) * kFanout));
        (void)lab_->facade().compose_service(name, children);
        (void)lab_->facade().add_expression(name, kAverage);
        if (depth == 1) root_ = csp;
        parents.push_back(name);
      }
      level = std::move(parents);
    }
    lab_->pump(sc::util::kSecond);

    leaf_signatures_.clear();
    for (std::size_t i = 0; i < kLeaves; ++i) {
      leaf_signatures_.push_back(sc::sorcer::Signature{
          sc::core::kSensorDataAccessorType, sc::core::op::kGetValue,
          sc::util::format("L%02zu", i)});
    }
    const std::vector<std::string> slots = {"a", "b", "c", "d"};
    program_ = sc::expr::Expression::compile(kAverage).value().bind(slots).value();
    probe_state_ = ProbeState{};
  }

  void teardown() override {
    root_.reset();
    probes_.clear();
    lab_.reset();
  }

  sc::core::Deployment& lab() override { return *lab_; }
  [[nodiscard]] std::size_t warm_block() const override { return 50; }
  [[nodiscard]] const char* op_span() const override {
    return "core.facade_get_value";
  }

  void call(std::size_t) override {
    started_ = lab_->now();
    result_ = lab_->facade().get_value(kRoot);
  }

  void check(std::size_t, Outcome& out) override {
    if (!result_.is_ok()) {
      out.fail("tree_read: " + result_.status().message());
      return;
    }
    double expected = 0;
    for (sc::sensor::SimulatedProbe* probe : probes_) {
      expected += probe->device().truth(started_);
    }
    expected /= static_cast<double>(probes_.size());
    if (std::fabs(result_.value() - expected) > kTolerance) {
      out.fail(sc::util::format("tree_read: root %.6f, leaf mean %.6f",
                                result_.value(), expected));
    }
  }

  void probe(std::size_t i, SpanLog& log) override {
    sc::sorcer::ServiceAccessor& accessor = lab_->accessor();
    const sc::sorcer::Signature& sig = leaf_signatures_[i % kLeaves];
    {
      SpanLog::Scope span(log, "core.csp_read", i);
      (void)root_->get_value();
    }
    {
      SpanLog::Scope span(log, "sorcer.leaf_exert", i);
      (void)sc::sorcer::exert(sc::sorcer::Task::make("perfbench.leaf", sig),
                              accessor);
    }
    std::shared_ptr<sc::sorcer::Servicer> servicer;
    {
      SpanLog::Scope span(log, "sorcer.resolve", i);
      servicer = accessor.find_servicer(sig).value();
    }
    auto task = sc::sorcer::Task::make("perfbench.invoke", sig);
    const std::uint64_t spans0 = sc::obs::span_collector().recorded();
    const std::uint64_t marshal0 = marshal_ns().value();
    {
      SpanLog::Scope span(log, "sorcer.invoke", i);
      (void)lab_->invoker().invoke(servicer, task, nullptr);
    }
    probe_state_.invoke_spans += sc::obs::span_collector().recorded() - spans0;
    probe_state_.invoke_marshal_ns += marshal_ns().value() - marshal0;
    ++probe_state_.invokes;

    if (probe_state_.reply.size() == 0) {
      // Capture one leaf reply and prime both intern tables with it.
      probe_state_.reply = task->context();
      sc::sorcer::encode_context(probe_state_.reply, probe_state_.encoder,
                                 probe_state_.buffer);
      (void)sc::sorcer::decode_context(probe_state_.buffer.data(),
                                       probe_state_.buffer.size(),
                                       probe_state_.decoder,
                                       probe_state_.decoded);
    }
    {
      SpanLog::Scope span(log, "sorcer.encode", i);
      for (std::size_t k = 0; k < kInner; ++k) {
        sc::sorcer::encode_context(probe_state_.reply, probe_state_.encoder,
                                   probe_state_.buffer);
      }
    }
    {
      SpanLog::Scope span(log, "sorcer.decode", i);
      for (std::size_t k = 0; k < kInner; ++k) {
        (void)sc::sorcer::decode_context(probe_state_.buffer.data(),
                                         probe_state_.buffer.size(),
                                         probe_state_.decoder,
                                         probe_state_.decoded);
      }
    }
    // One bottom composite's inputs: four sibling leaves' base values.
    const std::span<const double> values(
        bases_.data() + (i % (kLeaves / kFanout)) * kFanout, kFanout);
    double sink = 0;
    {
      SpanLog::Scope span(log, "expr.eval", i);
      for (std::size_t k = 0; k < kInner; ++k) {
        sink += program_.evaluate(values).value();
      }
    }
    probe_state_.eval_sink += sink;
  }

  void layer_metrics(Outcome& out, const SpanLog& log, const Counters& d,
                     double ops, double op_wall_us) override {
    const double op_us = log.mean_self_ns(op_span()) / 1e3;
    const double csp_us = log.mean_self_ns("core.csp_read") / 1e3;
    out.set("core.csp_read_us", csp_us, "us");
    out.set("core.facade_hop_us", op_us - csp_us, "us");
    out.set("core.csp_read_share", csp_us / op_wall_us, "ratio");
    out.set("core.facade_hop_share", (op_us - csp_us) / op_wall_us, "ratio");

    const double invoke_us = log.mean_self_ns("sorcer.invoke") / 1e3;
    const double resolve_us = log.mean_self_ns("sorcer.resolve") / 1e3;
    const double eval_ns =
        log.mean_self_ns("expr.eval") / static_cast<double>(kInner);
    out.set("sorcer.leaf_exert_us", log.mean_self_ns("sorcer.leaf_exert") / 1e3,
            "us");
    out.set("sorcer.resolve_us", resolve_us, "us");
    out.set("sorcer.invoke_us", invoke_us, "us");
    out.set("sorcer.encode_ns",
            log.mean_self_ns("sorcer.encode") / static_cast<double>(kInner),
            "ns");
    out.set("sorcer.decode_ns",
            log.mean_self_ns("sorcer.decode") / static_cast<double>(kInner),
            "ns");
    out.set("expr.eval_ns", eval_ns, "ns");
    // One expression evaluation per composite read.
    const double evals = d.get("csp.reads") / ops;
    out.set("expr.evals_per_op", evals, "count");

    const auto invokes = static_cast<double>(probe_state_.invokes);
    set_call_shares(out, d, ops, op_wall_us, invoke_us, resolve_us,
                    static_cast<double>(probe_state_.invoke_spans) / invokes,
                    static_cast<double>(probe_state_.invoke_marshal_ns) /
                        invokes / 1e3);
    out.set("expr.eval_share", evals * eval_ns / 1e3 / op_wall_us, "ratio");
  }

 private:
  struct ProbeState {
    sc::sorcer::ServiceContext reply;
    sc::sorcer::ServiceContext decoded;
    sc::sorcer::PathInternTable encoder;
    sc::sorcer::PathInternTable decoder;
    sc::sorcer::WireBuffer buffer;
    std::uint64_t invokes = 0;
    std::uint64_t invoke_spans = 0;
    std::uint64_t invoke_marshal_ns = 0;
    double eval_sink = 0;
  };

  static sc::obs::Counter& marshal_ns() {
    static sc::obs::Counter& c =
        sc::obs::metrics().counter("invoke.marshal_ns");
    return c;
  }

  std::uint64_t seed_;
  sc::util::SimDuration latency_ = 0;
  std::vector<double> bases_;
  std::unique_ptr<sc::core::Deployment> lab_;
  std::shared_ptr<sc::core::CompositeSensorProvider> root_;
  // Owned by their ESPs, which the deployment keeps alive.
  std::vector<sc::sensor::SimulatedProbe*> probes_;
  std::vector<sc::sorcer::Signature> leaf_signatures_;
  sc::expr::CompiledProgram program_;
  ProbeState probe_state_;
  sc::util::SimTime started_ = 0;
  sc::util::Result<double> result_{0.0};
};

}  // namespace

Outcome run_tree_read(const Options& options) {
  TreeRead workload(options.seed);
  // Every read is the same request, so a short cycle already walks the
  // whole op sequence; 1000 reads give p99 ten samples beyond it.
  return run_closed_loop(options, workload, 1000);
}

}  // namespace perfbench
