#include "sorcer/exertion.h"

#include <algorithm>

namespace sensorcer::sorcer {

const char* exert_status_name(ExertStatus status) {
  switch (status) {
    case ExertStatus::kInitial: return "INITIAL";
    case ExertStatus::kRunning: return "RUNNING";
    case ExertStatus::kDone: return "DONE";
    case ExertStatus::kFailed: return "FAILED";
  }
  return "?";
}

void Job::start() {
  set_status(ExertStatus::kRunning);
  for (const auto& child : children_) {
    if (!child->trace_context().valid()) {
      child->set_trace_context(trace_context());
    }
  }
}

void Job::conclude() {
  if (strategy_.fail_fast) {
    for (const auto& child : children_) {
      if (child->status() == ExertStatus::kFailed) {
        set_error({util::ErrorCode::kAborted,
                   "child '" + child->name() +
                       "' failed: " + child->error().message()});
        return;
      }
    }
  } else if (!children_.empty() &&
             std::none_of(children_.begin(), children_.end(),
                          [](const ExertionPtr& c) {
                            return c->status() == ExertStatus::kDone;
                          })) {
    set_error({util::ErrorCode::kAborted, "all children failed"});
    return;
  }
  // The requestor reads one context: child paths merge under
  // "<child-name>/".
  for (const auto& child : children_) {
    for (const auto& path : child->context().paths()) {
      auto v = child->context().get(path);
      if (v.is_ok()) {
        context().put(child->name() + "/" + path, std::move(v).value());
      }
    }
  }
  set_status(ExertStatus::kDone);
}

}  // namespace sensorcer::sorcer
