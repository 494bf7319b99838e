#include "sorcer/exertion.h"

#include <algorithm>
#include <string>

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

void Exertion::renew() {
  status_ = ExertStatus::kInitial;
  error_ = util::Status::ok();
  latency_ = 0;
  trace_.clear();
  trace_ctx_ = {};
  context_.clear();
}

void Exertion::rename(std::initializer_list<std::string_view> parts) {
  name_.clear();  // capacity retained
  for (std::string_view part : parts) name_ += part;
}

void Task::resign(std::string_view service_type, std::string_view selector,
                  std::string_view provider_name) {
  signature_.service_type.assign(service_type);
  signature_.selector.assign(selector);
  signature_.provider_name.assign(provider_name);
}

void Job::renew() {
  Exertion::renew();
  for (const auto& child : children_) child->renew();
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
  // "<child-name>/". Walk entry views and build each key in one per-thread
  // buffer (the merge never re-enters conclude), so the merge copies only
  // the values themselves.
  ServiceContext& merged = context();
  std::size_t total = merged.size();
  for (const auto& child : children_) total += child->context().size();
  merged.reserve(total);
  thread_local std::string key;
  for (const auto& child : children_) {
    const ServiceContext& from = child->context();
    key.assign(child->name());
    key += '/';
    const std::size_t prefix = key.size();
    for (std::size_t i = 0; i < from.size(); ++i) {
      const ServiceContext::EntryView e = from.entry_at(i);
      key.resize(prefix);
      key += e.path;
      merged.put(key, e.value);
    }
  }
  set_status(ExertStatus::kDone);
}

}  // namespace sensorcer::sorcer
