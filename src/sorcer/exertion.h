#pragma once
// Exertions — SORCER's service requests (§IV.D).
//
// A Task is an elementary request bound to one provider via its Signature.
// A Job composes tasks and other jobs under a ControlStrategy (sequential or
// parallel flow; push or pull access). Exertions carry their own service
// context and collect results, a latency account and an execution trace as
// the federation runs them.

#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "sorcer/context.h"
#include "util/ids.h"
#include "util/sim_time.h"
#include "util/status.h"

namespace sensorcer::sorcer {

/// Interface type + operation selector + optional provider pin.
struct Signature {
  std::string service_type;   // provider interface name, e.g. "SensorDataAccessor"
  std::string selector;       // operation, e.g. "getValue"
  std::string provider_name;  // empty = any provider of the type

  [[nodiscard]] std::string to_string() const {
    std::string out = service_type + "#" + selector;
    if (!provider_name.empty()) out += "@" + provider_name;
    return out;
  }
};

enum class Flow { kSequence, kParallel };
enum class Access { kPush, kPull };

/// A job's collaboration control strategy.
struct ControlStrategy {
  Flow flow = Flow::kSequence;
  Access access = Access::kPush;
  bool fail_fast = true;  // sequence flow: stop at the first failed child
};

enum class ExertStatus { kInitial, kRunning, kDone, kFailed };

const char* exert_status_name(ExertStatus status);

class Exertion;
using ExertionPtr = std::shared_ptr<Exertion>;

class Exertion {
 public:
  enum class Kind { kTask, kJob };

  virtual ~Exertion() = default;

  [[nodiscard]] virtual Kind kind() const = 0;

  [[nodiscard]] const util::Uuid& id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  ServiceContext& context() { return context_; }
  [[nodiscard]] const ServiceContext& context() const { return context_; }

  [[nodiscard]] ExertStatus status() const { return status_; }
  void set_status(ExertStatus status) { status_ = status; }

  [[nodiscard]] const util::Status& error() const { return error_; }
  void set_error(util::Status error) {
    error_ = std::move(error);
    status_ = ExertStatus::kFailed;
  }

  /// Clear status and error so the exertion can be re-submitted (used by
  /// service substitution when an equivalent provider is retried). The
  /// latency account and trace are kept as an audit of all attempts.
  void reset() {
    status_ = ExertStatus::kInitial;
    error_ = util::Status::ok();
  }

  /// Accumulated modeled service latency (virtual time).
  [[nodiscard]] util::SimDuration latency() const { return latency_; }
  void add_latency(util::SimDuration d) { latency_ += d; }
  void set_latency(util::SimDuration d) { latency_ = d; }

  /// Names of providers that executed (in completion order).
  [[nodiscard]] const std::vector<std::string>& trace() const { return trace_; }
  void add_trace(std::string provider) { trace_.push_back(std::move(provider)); }

  /// Observability trace context this exertion executes under. Before
  /// dispatch it is the parent context (stamped by the submitter so the
  /// link survives a scatter-gather batch, where no thread-local context is
  /// current per child); exert() replaces it with the
  /// exertion's own span context, which children and providers inherit.
  [[nodiscard]] const obs::TraceContext& trace_context() const {
    return trace_ctx_;
  }
  void set_trace_context(const obs::TraceContext& ctx) { trace_ctx_ = ctx; }

 protected:
  explicit Exertion(std::string name)
      : id_(util::new_uuid()), name_(std::move(name)) {}

 private:
  util::Uuid id_;
  std::string name_;
  ServiceContext context_;
  ExertStatus status_ = ExertStatus::kInitial;
  util::Status error_;
  util::SimDuration latency_ = 0;
  std::vector<std::string> trace_;
  obs::TraceContext trace_ctx_{};
};

/// Elementary request executed by a single provider.
class Task final : public Exertion {
 public:
  Task(std::string name, Signature signature)
      : Exertion(std::move(name)), signature_(std::move(signature)) {}

  [[nodiscard]] Kind kind() const override { return Kind::kTask; }
  [[nodiscard]] const Signature& signature() const { return signature_; }

  static std::shared_ptr<Task> make(std::string name, Signature signature) {
    return std::make_shared<Task>(std::move(name), std::move(signature));
  }

 private:
  Signature signature_;
};

/// Composite request executed by a federation under a control strategy.
class Job final : public Exertion {
 public:
  Job(std::string name, ControlStrategy strategy)
      : Exertion(std::move(name)), strategy_(strategy) {}

  [[nodiscard]] Kind kind() const override { return Kind::kJob; }
  [[nodiscard]] const ControlStrategy& strategy() const { return strategy_; }

  void add(ExertionPtr child) { children_.push_back(std::move(child)); }
  [[nodiscard]] const std::vector<ExertionPtr>& children() const {
    return children_;
  }

  static std::shared_ptr<Job> make(std::string name,
                                   ControlStrategy strategy = {}) {
    return std::make_shared<Job>(std::move(name), strategy);
  }

 private:
  ControlStrategy strategy_;
  std::vector<ExertionPtr> children_;
};

}  // namespace sensorcer::sorcer
