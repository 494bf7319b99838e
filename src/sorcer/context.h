#pragma once
// Service context — the hierarchical data an exertion's collaboration works
// on ("the metaprogram data", §IV.D). Paths are slash-separated strings;
// values are the small set of types sensor collaborations exchange.
//
// Storage is a flat sorted vector of entries: hot-path lookups are a binary
// search over contiguous memory instead of red-black-tree chasing, iteration
// is a linear scan, and the wire codec (sorcer/codec.h) can bulk-reload a
// context in place, reusing the entry vector's (and each entry's string /
// series) capacity so steady-state decode allocates nothing.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/status.h"

namespace sensorcer::sorcer {

using ContextValue =
    std::variant<std::monostate, double, std::int64_t, bool, std::string,
                 std::vector<double>>;

/// Render a value for traces and browser output.
std::string context_value_to_string(const ContextValue& value);

/// Direction markers: requestors mark which paths carry inputs to the
/// provider and which the provider must fill in.
enum class PathDirection { kIn, kOut, kInOut };

class ServiceContext {
 public:
  ServiceContext() = default;
  explicit ServiceContext(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  // --- values ---------------------------------------------------------------

  void put(std::string_view path, ContextValue value,
           PathDirection direction = PathDirection::kInOut);

  [[nodiscard]] util::Result<ContextValue> get(std::string_view path) const;

  /// Typed getters; wrong type yields kInvalidArgument.
  [[nodiscard]] util::Result<double> get_double(std::string_view path) const;
  [[nodiscard]] util::Result<std::string> get_string(
      std::string_view path) const;
  [[nodiscard]] util::Result<std::vector<double>> get_series(
      std::string_view path) const;

  // --- copy-free peeks ------------------------------------------------------
  // Pointers/views remain valid only until the next mutation (put / remove /
  // merge / reload): entries live in one contiguous vector that may move.

  /// The stored value, or nullptr when the path is absent.
  [[nodiscard]] const ContextValue* find(std::string_view path) const;

  /// View of a string value; nullopt when absent or not a string.
  [[nodiscard]] std::optional<std::string_view> peek_string(
      std::string_view path) const;

  /// Borrowed series; nullptr when absent or not a series.
  [[nodiscard]] const std::vector<double>* peek_series(
      std::string_view path) const;

  [[nodiscard]] bool has(std::string_view path) const {
    return find(path) != nullptr;
  }
  bool remove(std::string_view path);

  /// All paths, sorted.
  [[nodiscard]] std::vector<std::string> paths() const;

  /// Paths with the given direction marker.
  [[nodiscard]] std::vector<std::string> paths_with(PathDirection d) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Borrowed view of the i-th entry in sorted path order; same lifetime
  /// rules as the peeks above. Lets the wire codec walk a context without
  /// materializing path lists.
  struct EntryView {
    std::string_view path;
    const ContextValue& value;
    PathDirection direction;
  };
  [[nodiscard]] EntryView entry_at(std::size_t i) const {
    const Entry& e = entries_[i];
    return {e.path, e.value, e.direction};
  }

  /// Merge every value of `other` into this context (other wins on clash).
  void merge(const ServiceContext& other);

  /// Multi-line "path = value" rendering.
  [[nodiscard]] std::string to_string() const;

  // --- codec bulk reload ----------------------------------------------------
  // The wire codec rebuilds a decoded context in place: reload_begin() resets
  // the logical size, reload_slot() appends entries in sorted path order
  // (the encoder iterates sorted, so decode needs no re-sort) reusing the
  // retained entry storage, reload_end() trims leftovers. The returned
  // ContextValue& lets the decoder assign into an existing series/string
  // alternative so steady-state decode reuses its heap capacity.

  void reload_begin(std::string_view name);
  ContextValue& reload_slot(std::string_view path, PathDirection direction);
  void reload_end();

  /// A decoded reply updates the context instead: the entry at `path`
  /// (inserted when absent) with its direction set, value left for the
  /// decoder to overwrite in place. Entries the reply omits are untouched.
  ContextValue& merge_slot(std::string_view path, PathDirection direction);

 private:
  struct Entry {
    std::string path;
    ContextValue value;
    PathDirection direction = PathDirection::kInOut;
  };

  [[nodiscard]] const Entry* find_entry(std::string_view path) const;

  std::string name_;
  std::vector<Entry> entries_;  // sorted by path
  std::size_t reload_count_ = 0;
};

}  // namespace sensorcer::sorcer
