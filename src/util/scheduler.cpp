#include "util/scheduler.h"

#include <algorithm>
#include <cstdio>

namespace sensorcer::util {

std::string format_duration(SimDuration d) {
  char buf[48];
  if (d >= kSecond || d <= -kSecond) {
    std::snprintf(buf, sizeof buf, "%.3fs", static_cast<double>(d) / kSecond);
  } else if (d >= kMillisecond || d <= -kMillisecond) {
    std::snprintf(buf, sizeof buf, "%.3fms",
                  static_cast<double>(d) / kMillisecond);
  } else {
    std::snprintf(buf, sizeof buf, "%lldus", static_cast<long long>(d));
  }
  return buf;
}

Scheduler::~Scheduler() {
  // A queued callback can own the last reference to an object (a provider
  // captured by a timer, say) whose destructor calls cancel() back into
  // this scheduler. Unlink each event before destroying it so those
  // re-entrant calls see a consistent heap: dropping the last element of a
  // heap leaves a heap.
  while (!heap_.empty()) {
    Event ev = std::move(heap_.back());
    heap_.pop_back();
  }  // the event (and its captures) dies here, heap_ intact
}

void Scheduler::sift_up(std::size_t i) {
  Event ev = std::move(heap_[i]);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(ev, heap_[parent])) break;
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  }
  heap_[i] = std::move(ev);
}

void Scheduler::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Event ev = std::move(heap_[i]);
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], ev)) break;
    heap_[i] = std::move(heap_[child]);
    i = child;
  }
  heap_[i] = std::move(ev);
}

void Scheduler::push(Event ev) {
  heap_.push_back(std::move(ev));
  sift_up(heap_.size() - 1);
}

Scheduler::Event Scheduler::take(std::size_t i) {
  Event ev = std::move(heap_[i]);
  if (i + 1 < heap_.size()) {
    heap_[i] = std::move(heap_.back());
    heap_.pop_back();
    // The moved-in tail may belong above or below slot i.
    sift_down(i);
    sift_up(i);
  } else {
    heap_.pop_back();
  }
  return ev;
}

TimerId Scheduler::schedule_at(SimTime when, std::function<void()> fn) {
  const TimerId id = next_id_++;
  push(Event{std::max(when, now_), seq_++, id, 0, std::move(fn)});
  return id;
}

TimerId Scheduler::schedule_every(SimDuration period, std::function<void()> fn) {
  const TimerId id = next_id_++;
  if (period <= 0) period = 1;  // a zero period would never let time advance
  push(Event{now_ + period, seq_++, id, period, std::move(fn)});
  return id;
}

bool Scheduler::cancel(TimerId id) {
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (heap_[i].id == id) {
      Event gone = take(i);
      return true;  // `gone` dies after the heap is whole again
    }
  }
  return false;
}

std::size_t Scheduler::run_until(SimTime deadline) {
  std::size_t count = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    now_ = std::max(now_, heap_.front().when);
    Event ev = take(0);
    if (ev.period > 0) {
      // Re-arm before firing so the callback can cancel its own series and
      // a nested pump sees the next occurrence already queued.
      push(Event{now_ + ev.period, seq_++, ev.id, ev.period, ev.fn});
    }
    ev.fn();
    ++fired_;
    ++count;
  }
  now_ = std::max(now_, deadline);
  return count;
}

}  // namespace sensorcer::util
