#pragma once
// Exertion space — the JavaSpaces-style tuple space behind PULL access.
//
// Under the pull strategy a rendezvous peer writes task envelopes into the
// space and worker threads take them, execute, and write results back. The
// space is the only fully thread-safe rendezvous structure in the stack.

#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "sorcer/exertion.h"
#include "util/ids.h"

namespace sensorcer::sorcer {

class ExertSpace {
 public:
  /// A task written into the space awaiting a worker.
  struct Envelope {
    util::Uuid id;
    std::shared_ptr<Task> task;
  };

  /// Write a task; returns its envelope id.
  util::Uuid write(std::shared_ptr<Task> task);

  /// Atomically remove and return the oldest pending envelope, if any.
  std::optional<Envelope> take();

  /// Mark a taken envelope as executed.
  void complete(const util::Uuid& envelope_id);

  /// Return a taken envelope to pending (worker failed before executing).
  void requeue(const util::Uuid& envelope_id);

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::size_t in_flight() const;

  [[nodiscard]] std::uint64_t total_written() const { return written_; }
  [[nodiscard]] std::uint64_t total_completed() const { return completed_; }

 private:
  mutable std::mutex mu_;
  std::deque<Envelope> queue_;
  std::unordered_map<util::Uuid, Envelope> taken_;
  std::uint64_t written_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace sensorcer::sorcer
