#pragma once
// 128-bit streaming hash for canonical-byte identities: grid fingerprints
// for checkpoint/resume, sweep output digests, and any other place that
// needs a fixed-width digest of a canonical serialization instead of the
// serialization itself (a multi-KB JSON dump makes a terrible map key).
//
// This is a content identity, NOT a cryptographic hash: two lanes of
// FNV-1a-style xor-multiply mixing with independent bases, finalized
// through a SplitMix64 avalanche.  128 bits keep the collision
// probability for a 10^6..10^9-entry key space negligible (< 1e-18).
//
// Determinism contract: the digest is a pure function of the fed bytes,
// identical across runs, platforms, and job counts, so it is safe to
// persist (checkpoint files store the grid hash as hex).  Strings are fed
// length-prefixed, making the stream prefix-free: ("ab","c") and
// ("a","bc") digest differently.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace wfr::util {

/// A 128-bit digest, comparable and hex-serializable.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Hash128& a, const Hash128& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Hash128& a, const Hash128& b) {
    return !(a == b);
  }
};

/// Incremental hasher.  Feed typed values; digest() may be called at any
/// point (it finalizes a copy — the stream stays usable).
class HashStream {
 public:
  HashStream();

  /// Raw bytes (no length prefix; callers needing framing use str()).
  void bytes(const void* data, std::size_t size);
  /// Little-endian 64-bit value.
  void u64(std::uint64_t value);
  /// The IEEE-754 bit pattern (so the identity matches bit-for-bit input
  /// equality, the same notion the canonical JSON serialization has).
  void f64(double value);
  /// Length-prefixed string: the stream stays prefix-free.
  void str(std::string_view text);

  Hash128 digest() const;

 private:
  std::uint64_t a_;
  std::uint64_t b_;
};

/// One-shot digest of a byte string.
Hash128 hash_bytes(std::string_view data);

/// 32 lowercase hex characters (hi word first).
std::string to_hex(const Hash128& hash);

/// Parses to_hex output; throws ParseError on anything else.
Hash128 hash_from_hex(std::string_view hex);

}  // namespace wfr::util
