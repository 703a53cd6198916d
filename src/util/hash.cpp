#include "util/hash.hpp"

#include <cstring>

#include "util/error.hpp"

namespace wfr::util {

namespace {

// Lane A is classic FNV-1a-64; lane B uses the same xor-multiply scheme
// with an unrelated odd multiplier and basis so the two 64-bit lanes
// decorrelate.  Both are finalized through a SplitMix64 avalanche, which
// fixes FNV's weak high-bit diffusion.
constexpr std::uint64_t kBasisA = 14695981039346656037ULL;
constexpr std::uint64_t kPrimeA = 1099511628211ULL;
constexpr std::uint64_t kBasisB = 0x2b992ddfa23249d6ULL;
constexpr std::uint64_t kPrimeB = 0x9e3779b97f4a7c15ULL;

std::uint64_t avalanche(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

HashStream::HashStream() : a_(kBasisA), b_(kBasisB) {}

void HashStream::bytes(const void* data, std::size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    a_ = (a_ ^ p[i]) * kPrimeA;
    b_ = (b_ ^ p[i]) * kPrimeB;
  }
}

void HashStream::u64(std::uint64_t value) {
  unsigned char buffer[8];
  for (int i = 0; i < 8; ++i)
    buffer[i] = static_cast<unsigned char>(value >> (8 * i));
  bytes(buffer, sizeof(buffer));
}

void HashStream::f64(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  u64(bits);
}

void HashStream::str(std::string_view text) {
  u64(text.size());
  bytes(text.data(), text.size());
}

Hash128 HashStream::digest() const {
  Hash128 hash;
  // Cross-feed the lanes before the avalanche so each output word
  // depends on both accumulators.
  hash.hi = avalanche(a_ + 0x9e3779b97f4a7c15ULL * b_);
  hash.lo = avalanche(b_ ^ (a_ >> 1) ^ 0x6a09e667f3bcc909ULL);
  return hash;
}

Hash128 hash_bytes(std::string_view data) {
  HashStream stream;
  stream.bytes(data.data(), data.size());
  return stream.digest();
}

std::string to_hex(const Hash128& hash) {
  static const char* digits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? hash.hi : hash.lo;
    const int shift = 8 * (7 - (i % 8));
    const unsigned byte = static_cast<unsigned>((word >> shift) & 0xff);
    out[2 * static_cast<std::size_t>(i)] = digits[byte >> 4];
    out[2 * static_cast<std::size_t>(i) + 1] = digits[byte & 0xf];
  }
  return out;
}

Hash128 hash_from_hex(std::string_view hex) {
  if (hex.size() != 32)
    throw ParseError("bad Hash128 hex '" + std::string(hex) +
                     "': want 32 hex characters");
  Hash128 hash;
  for (int i = 0; i < 32; ++i) {
    const int digit = hex_digit(hex[static_cast<std::size_t>(i)]);
    if (digit < 0)
      throw ParseError("bad Hash128 hex '" + std::string(hex) +
                       "': invalid character");
    std::uint64_t& word = i < 16 ? hash.hi : hash.lo;
    word = (word << 4) | static_cast<std::uint64_t>(digit);
  }
  return hash;
}

}  // namespace wfr::util
