#pragma once
// Unique identifiers for services, leases, exertions, transactions.
//
// Jini uses java.rmi ServiceID (128-bit). We mirror that with a 128-bit Uuid
// produced by a deterministic per-generator counter mixed through SplitMix64,
// so test runs are reproducible while ids remain unique within a process.

#include <cstdint>
#include <functional>
#include <string>

namespace sensorcer::util {

/// 128-bit identifier, printable in the canonical 8-4-4-4-12 hex form.
struct Uuid {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Uuid&, const Uuid&) = default;
  friend auto operator<=>(const Uuid&, const Uuid&) = default;

  /// True for the all-zero ("null") id.
  [[nodiscard]] bool is_nil() const { return hi == 0 && lo == 0; }

  /// Canonical lowercase hex rendering, e.g. 267c67a0-dd67-4b95-beb0-e6763e117b03.
  [[nodiscard]] std::string to_string() const;

  /// Parse the canonical form; returns the nil uuid on malformed input.
  static Uuid parse(const std::string& text);
};

/// Deterministic Uuid source. Two generators seeded identically produce the
/// same id stream; distinct seeds give disjoint streams with overwhelming
/// probability.
class IdGenerator {
 public:
  explicit IdGenerator(std::uint64_t seed = 0x5e45'0c3a'9d2b'71e1ull) : state_(seed) {}

  /// Next unique id.
  Uuid next();

 private:
  std::uint64_t state_;
  std::uint64_t counter_ = 0;
};

/// Process-wide generator used where plumbing a generator is not worth it.
/// Reseed it only while no other thread draws ids.
IdGenerator& global_id_generator();

/// Draw from the process-wide generator; safe from any thread (pool
/// workers mint exertion ids concurrently).
Uuid new_uuid();

}  // namespace sensorcer::util

template <>
struct std::hash<sensorcer::util::Uuid> {
  std::size_t operator()(const sensorcer::util::Uuid& u) const noexcept {
    // hi/lo are already well-mixed; xor with a rotation keeps symmetry low.
    return static_cast<std::size_t>(u.hi ^ (u.lo << 1 | u.lo >> 63));
  }
};
