#pragma once
// Deterministic virtual-time event scheduler.
//
// Every timed behaviour in the stack — lease expiry sweeps, renewal timers,
// multicast announcements, heartbeats, sensor sampling — is a scheduled
// callback. Tests and benches advance time explicitly with run_until /
// run_for, so a "30 second lease" experiment is instantaneous and repeatable.

#include <cstdint>
#include <functional>
#include <vector>

#include "util/sim_time.h"

namespace sensorcer::util {

/// Handle for cancelling a scheduled event.
using TimerId = std::uint64_t;

/// Sentinel returned by Scheduler::next_event_time() on an empty queue.
inline constexpr SimTime kNever = INT64_MAX;

class Scheduler {
 public:
  ~Scheduler();

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Timestamp of the earliest queued event, or kNever when the queue is
  /// empty. Lets a blocking caller (e.g. an RPC awaiting its response) pump
  /// the queue event-by-event up to a deadline without overshooting it.
  [[nodiscard]] SimTime next_event_time() const {
    return heap_.empty() ? kNever : heap_.front().when;
  }

  /// Run `fn` at absolute virtual time `when` (clamped to now).
  TimerId schedule_at(SimTime when, std::function<void()> fn);

  /// Run `fn` after `delay` microseconds of virtual time.
  TimerId schedule_after(SimDuration delay, std::function<void()> fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Run `fn` every `period`, starting after one period. Returns the id of
  /// the recurring series; cancel() stops future firings.
  TimerId schedule_every(SimDuration period, std::function<void()> fn);

  /// Cancel a pending (or recurring) event. Returns false if already fired
  /// or unknown.
  bool cancel(TimerId id);

  /// Advance virtual time to `deadline`, firing all events due on the way
  /// (in timestamp order; FIFO among equal timestamps). Returns the number
  /// of events fired.
  std::size_t run_until(SimTime deadline);

  /// Advance by `span` from the current time.
  std::size_t run_for(SimDuration span) { return run_until(now_ + span); }

  /// Fire everything already due at the current instant (no time advance).
  std::size_t run_ready() { return run_until(now_); }

  /// Events still queued (recurring series count as one).
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Total events fired since construction.
  [[nodiscard]] std::uint64_t fired_count() const { return fired_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // scheduling order: FIFO among equal timestamps
    TimerId id;
    SimDuration period;  // >0 for recurring events
    std::function<void()> fn;
  };

  static bool earlier(const Event& a, const Event& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  void push(Event ev);
  /// Unlink heap_[i], restore the heap property, and hand the event back so
  /// the caller destroys it only once the queue is consistent again.
  Event take(std::size_t i);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  TimerId next_id_ = 1;
  std::uint64_t fired_ = 0;
  // Binary min-heap on (when, seq). The vector keeps its capacity, so a
  // warm schedule/fire cycle allocates nothing here.
  std::vector<Event> heap_;
};

}  // namespace sensorcer::util
