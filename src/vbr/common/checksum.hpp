// Checksums shared by the checkpoint format and the determinism witnesses.
//
// crc32() is the standard CRC-32/ISO-HDLC (zlib's polynomial, reflected,
// init/xorout 0xFFFFFFFF); it guards the campaign checkpoint payload against
// torn writes and bit rot. Fnv1a is the incremental 64-bit FNV-1a hash the
// engine benchmarks already use as a trace-determinism witness, factored out
// so the campaign runner, the scaling bench and the soak harness all compute
// the same hash over the same double bit patterns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace vbr {

/// CRC-32 (zlib-compatible) over a byte buffer. `seed` allows chaining:
/// crc32(b, crc32(a)) == crc32(a ++ b).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// CRC-32 of A ++ B from crc_a = crc32(A), crc_b = crc32(B) and B's size, in
/// O(log size_b): pieces checksummed apart, even on different threads,
/// combine into the CRC of the whole.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b, std::size_t size_b);

/// Incremental 64-bit FNV-1a hasher. Feeding the same bytes in any chunking
/// yields the same digest, so a streaming campaign and a batch run agree.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 1469598103934665603ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  Fnv1a() = default;
  /// Resume from a previously reported digest (checkpoint restore).
  explicit Fnv1a(std::uint64_t state) : state_(state) {}

  void update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint64_t h = state_;
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= kPrime;
    }
    state_ = h;
  }

  /// Hash the raw bit patterns of a double span (the trace witness).
  void update(std::span<const double> samples) {
    for (const double v : samples) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      update(&bits, sizeof bits);
    }
  }

  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kOffsetBasis;
};

}  // namespace vbr
