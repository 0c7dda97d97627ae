#include "vbr/common/checksum.hpp"

#include <array>

namespace vbr {
namespace {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: row 0 is the classic bytewise table; row k maps a
/// byte to its CRC contribution k bytes further back in the message.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// a(x) * b(x) mod P in the reflected representation (bit 31 is x^0).
constexpr std::uint32_t multiply_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1) ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return product;
}

/// x^(2^k) mod P for k in [0, 32); the powers cycle with period 32 far
/// beyond any byte count that fits in a size_t.
constexpr std::array<std::uint32_t, 32> make_x2n_table() {
  std::array<std::uint32_t, 32> table{};
  std::uint32_t p = 1u << 30;  // x^1
  for (std::uint32_t& entry : table) {
    entry = p;
    p = multiply_mod_p(p, p);
  }
  return table;
}

constexpr std::array<std::uint32_t, 32> kX2nTable = make_x2n_table();

/// Little-endian load from any alignment (one mov on x86 and ARM).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = kCrc32Tables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  // Eight bytes per step: the reflected CRC of a word is the XOR of each
  // byte's contribution at its distance from the end of the word.
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t lo = load_le32(bytes) ^ c;
    const std::uint32_t hi = load_le32(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b, std::size_t size_b) {
  // Appending size_b bytes multiplies A's CRC polynomial by x^(8 size_b)
  // (the init and xorout words cancel), so crc(A ++ B) = crc_a * x^(8n) ^ crc_b.
  std::uint32_t shift = 1u << 31;  // x^0
  for (std::size_t k = 3; size_b != 0; size_b >>= 1, ++k) {
    if (size_b & 1) shift = multiply_mod_p(kX2nTable[k & 31], shift);
  }
  return multiply_mod_p(shift, crc_a) ^ crc_b;
}

}  // namespace vbr
