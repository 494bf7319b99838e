#include "sorcer/context.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "util/strings.h"

namespace sensorcer::sorcer {

namespace {

std::string path_str(std::string_view path) { return std::string(path); }

}  // namespace

std::string context_value_to_string(const ContextValue& value) {
  struct Visitor {
    std::string operator()(std::monostate) const { return "<none>"; }
    std::string operator()(double d) const {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%g", d);
      return buf;
    }
    std::string operator()(std::int64_t i) const { return std::to_string(i); }
    std::string operator()(bool b) const { return b ? "true" : "false"; }
    std::string operator()(const std::string& s) const { return s; }
    std::string operator()(const std::vector<double>& v) const {
      std::string out = "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) out += ", ";
        char buf[48];
        std::snprintf(buf, sizeof buf, "%g", v[i]);
        out += buf;
      }
      return out + "]";
    }
  };
  return std::visit(Visitor{}, value);
}

const ServiceContext::Entry* ServiceContext::find_entry(
    std::string_view path) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), path,
      [](const Entry& e, std::string_view p) { return e.path < p; });
  if (it == entries_.end() || it->path != path) return nullptr;
  return &*it;
}

void ServiceContext::put(std::string_view path, ContextValue value,
                         PathDirection direction) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), path,
      [](const Entry& e, std::string_view p) { return e.path < p; });
  if (it == entries_.end() || it->path != path) {
    it = insert_at(it, path, direction);
  }
  it->value = std::move(value);
  it->direction = direction;
}

std::vector<ServiceContext::Entry>::iterator ServiceContext::insert_at(
    std::vector<Entry>::iterator at, std::string_view path,
    PathDirection direction) {
  if (spare_.empty()) {
    return entries_.insert(at,
                           Entry{std::string(path), ContextValue{}, direction});
  }
  // Prefer the spare that held this very path: its string already fits.
  auto match = std::find_if(spare_.rbegin(), spare_.rend(),
                            [path](const Entry& e) { return e.path == path; });
  if (match != spare_.rend() && match != spare_.rbegin()) {
    std::iter_swap(match, spare_.rbegin());
  }
  Entry& reused = spare_.back();
  reused.path.assign(path);
  reused.direction = direction;
  at = entries_.insert(at, std::move(reused));
  spare_.pop_back();
  return at;
}

void ServiceContext::drop_tail(std::size_t from) {
  const std::size_t need = spare_.size() + (entries_.size() - from);
  if (need > spare_.capacity()) {
    spare_.reserve(std::max(need, 2 * spare_.capacity()));
  }
  for (std::size_t i = entries_.size(); i > from; --i) {
    spare_.push_back(std::move(entries_[i - 1]));
  }
  entries_.resize(from);
}

util::Result<ContextValue> ServiceContext::get(std::string_view path) const {
  const Entry* e = find_entry(path);
  if (e == nullptr) {
    return util::Status{
        util::ErrorCode::kNotFound,
        util::format("no context path '%s'", path_str(path).c_str())};
  }
  return e->value;
}

const ContextValue* ServiceContext::find(std::string_view path) const {
  const Entry* e = find_entry(path);
  return e == nullptr ? nullptr : &e->value;
}

std::optional<std::string_view> ServiceContext::peek_string(
    std::string_view path) const {
  const ContextValue* v = find(path);
  if (v == nullptr) return std::nullopt;
  const auto* s = std::get_if<std::string>(v);
  if (s == nullptr) return std::nullopt;
  return std::string_view(*s);
}

const std::vector<double>* ServiceContext::peek_series(
    std::string_view path) const {
  const ContextValue* v = find(path);
  if (v == nullptr) return nullptr;
  return std::get_if<std::vector<double>>(v);
}

util::Result<double> ServiceContext::get_double(std::string_view path) const {
  auto v = get(path);
  if (!v.is_ok()) return v.status();
  if (const auto* d = std::get_if<double>(&v.value())) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v.value())) {
    return static_cast<double>(*i);
  }
  return util::Status{util::ErrorCode::kInvalidArgument,
                      util::format("context path '%s' is not numeric",
                                   path_str(path).c_str())};
}

util::Result<std::string> ServiceContext::get_string(
    std::string_view path) const {
  auto v = get(path);
  if (!v.is_ok()) return v.status();
  if (const auto* s = std::get_if<std::string>(&v.value())) return *s;
  return util::Status{util::ErrorCode::kInvalidArgument,
                      util::format("context path '%s' is not a string",
                                   path_str(path).c_str())};
}

util::Result<std::vector<double>> ServiceContext::get_series(
    std::string_view path) const {
  auto v = get(path);
  if (!v.is_ok()) return v.status();
  if (const auto* s = std::get_if<std::vector<double>>(&v.value())) return *s;
  return util::Status{util::ErrorCode::kInvalidArgument,
                      util::format("context path '%s' is not a series",
                                   path_str(path).c_str())};
}

bool ServiceContext::remove(std::string_view path) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), path,
      [](const Entry& e, std::string_view p) { return e.path < p; });
  if (it == entries_.end() || it->path != path) return false;
  spare_.push_back(std::move(*it));
  entries_.erase(it);
  return true;
}

void ServiceContext::clear() { drop_tail(0); }

std::vector<std::string> ServiceContext::paths() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.path);
  return out;
}

std::vector<std::string> ServiceContext::paths_with(PathDirection d) const {
  std::vector<std::string> out;
  for (const Entry& e : entries_) {
    if (e.direction == d) out.push_back(e.path);
  }
  return out;
}

void ServiceContext::merge(const ServiceContext& other) {
  entries_.reserve(entries_.size() + other.entries_.size());
  for (const Entry& e : other.entries_) put(e.path, e.value, e.direction);
}

std::string ServiceContext::to_string() const {
  std::string out = "context";
  if (!name_.empty()) out += " '" + name_ + "'";
  out += ":\n";
  for (const Entry& e : entries_) {
    out += "  " + e.path + " = " + context_value_to_string(e.value) + "\n";
  }
  return out;
}

void ServiceContext::reload_begin(std::string_view name) {
  name_.assign(name);
  reload_count_ = 0;
}

ContextValue& ServiceContext::reload_slot(std::string_view path,
                                          PathDirection direction) {
  // Encoder iterates sorted, so decode appends stay sorted by construction.
  assert(reload_count_ == 0 || entries_[reload_count_ - 1].path < path);
  if (reload_count_ < entries_.size()) {
    Entry& e = entries_[reload_count_++];
    e.path.assign(path);
    e.direction = direction;
    return e.value;
  }
  ++reload_count_;
  return insert_at(entries_.end(), path, direction)->value;
}

ContextValue& ServiceContext::merge_slot(std::string_view path,
                                         PathDirection direction) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), path,
      [](const Entry& e, std::string_view p) { return e.path < p; });
  if (it == entries_.end() || it->path != path) {
    it = insert_at(it, path, direction);
  }
  it->direction = direction;
  return it->value;
}

void ServiceContext::reload_end() { drop_tail(reload_count_); }

}  // namespace sensorcer::sorcer
