// Canonical Huffman coding and bit-level I/O — the entropy-coding stage of
// the paper's intraframe coder.
//
// Codes are built from symbol frequencies (Huffman's algorithm), converted
// to canonical form (codes assigned in (length, symbol) order), and decoded
// with the standard first-code-per-length walk. Training on representative
// material is done once by the coder; the tables are then fixed, as a real
// broadcast coder's would be.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace vbr::codec {

/// MSB-first bit sink.
class BitWriter {
 public:
  /// Append the low `count` bits of `value`, most significant first.
  void write_bits(std::uint32_t value, unsigned count);

  std::size_t bit_count() const { return bit_count_; }

  /// Pad with zero bits to a byte boundary and return the buffer.
  std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint8_t current_ = 0;
  unsigned used_ = 0;  ///< bits used in current_
  std::size_t bit_count_ = 0;
};

/// MSB-first bit source over a byte buffer.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes);

  /// Read `count` bits (<= 32). Throws vbr::Error past the end.
  std::uint32_t read_bits(unsigned count);

  /// Read a single bit.
  unsigned read_bit();

  std::size_t bits_consumed() const { return position_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t position_ = 0;  ///< in bits
};

/// Canonical Huffman code over the alphabet [0, n).
class HuffmanCode {
 public:
  /// Build from symbol frequencies. Symbols with zero frequency receive no
  /// code (attempting to encode one throws). Code lengths are capped at
  /// `max_length` bits (lengths are flattened if the tree exceeds it).
  static HuffmanCode build(std::span<const std::uint64_t> frequencies,
                           unsigned max_length = 16);

  std::size_t alphabet_size() const { return lengths_.size(); }

  /// Code length in bits for a symbol; 0 means "no code assigned".
  unsigned length(std::size_t symbol) const { return lengths_[symbol]; }
  std::uint32_t code(std::size_t symbol) const { return codes_[symbol]; }

  void encode(BitWriter& out, std::size_t symbol) const;
  std::size_t decode(BitReader& in) const;

 private:
  std::vector<unsigned> lengths_;
  std::vector<std::uint32_t> codes_;
  // Canonical decode tables, indexed by code length 1..max.
  std::vector<std::uint32_t> first_code_;    ///< smallest code of each length
  std::vector<std::uint32_t> first_index_;   ///< index into sorted_symbols_
  std::vector<std::uint32_t> count_;         ///< symbols per length
  std::vector<std::uint32_t> sorted_symbols_;
  unsigned max_length_ = 0;

  void build_decode_tables();
};

}  // namespace vbr::codec
