#include "util/ids.h"

#include <array>
#include <cstdio>
#include <mutex>

namespace sensorcer::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string Uuid::to_string() const {
  std::array<char, 37> buf{};
  std::snprintf(buf.data(), buf.size(), "%08x-%04x-%04x-%04x-%012llx",
                static_cast<unsigned>(hi >> 32),
                static_cast<unsigned>((hi >> 16) & 0xffff),
                static_cast<unsigned>(hi & 0xffff),
                static_cast<unsigned>(lo >> 48),
                static_cast<unsigned long long>(lo & 0xffff'ffff'ffffull));
  return std::string(buf.data());
}

Uuid Uuid::parse(const std::string& text) {
  if (text.size() != 36) return {};
  Uuid out;
  int bit = 0;
  for (char c : text) {
    if (c == '-') continue;
    const int nib = hex_nibble(c);
    if (nib < 0 || bit >= 128) return {};
    if (bit < 64) {
      out.hi = (out.hi << 4) | static_cast<std::uint64_t>(nib);
    } else {
      out.lo = (out.lo << 4) | static_cast<std::uint64_t>(nib);
    }
    bit += 4;
  }
  return bit == 128 ? out : Uuid{};
}

Uuid IdGenerator::next() {
  // Mix the counter in so a generator never repeats even if splitmix cycles
  // (it cannot within 2^64 draws, but the counter documents the invariant).
  Uuid u;
  u.hi = splitmix64(state_);
  u.lo = splitmix64(state_) ^ ++counter_;
  if (u.is_nil()) u.lo = 1;  // reserve nil as "no id"
  return u;
}

IdGenerator& global_id_generator() {
  static IdGenerator gen{0xc0ffee'5e45'0123ull};
  return gen;
}

Uuid new_uuid() {
  static std::mutex mu;
  std::lock_guard lock(mu);
  return global_id_generator().next();
}

}  // namespace sensorcer::util
