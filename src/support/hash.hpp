#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace microtools::hash {

/// Streaming 64-bit FNV-1a hasher.
///
/// The measurement cache addresses results by content: a key is the FNV-1a
/// digest of everything that can change a measurement (variant source,
/// protocol options, backend identity, machine configuration). Each typed
/// mixer prefixes a length/width marker so adjacent fields cannot collide by
/// concatenation ("ab"+"c" vs "a"+"bc").
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  Fnv1a& bytes(const void* data, std::size_t size);
  Fnv1a& str(std::string_view s);  ///< mixes the length, then the bytes
  Fnv1a& u64(std::uint64_t v);
  Fnv1a& i64(std::int64_t v);
  Fnv1a& f64(double v);  ///< bit pattern; -0.0 is normalized to +0.0
  Fnv1a& boolean(bool v);

  std::uint64_t value() const { return state_; }

  /// 16 lowercase hex digits — the cache-file stem.
  std::string hex() const;

 private:
  std::uint64_t state_ = kOffsetBasis;
};

/// One-shot digest of a string.
std::uint64_t fnv1a(std::string_view s);

/// Renders a 64-bit value as 16 lowercase hex digits.
std::string toHex(std::uint64_t v);

/// splitmix64's finalizer: a full avalanche of one word. Digests that are
/// *sums* of per-item hashes (order-independent fingerprints) finish each
/// item with it so the sum keeps none of FNV's linear structure.
inline std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace microtools::hash
