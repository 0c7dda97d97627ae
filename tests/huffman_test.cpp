// Tests for bit I/O and canonical Huffman coding: prefix property, round
// trips, near-entropy compression, and length limiting.
#include "vbr/codec/huffman.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "vbr/common/error.hpp"
#include "vbr/common/rng.hpp"

namespace vbr::codec {
namespace {

/// Mean code length in bits under `freqs`.
double mean_code_length(const HuffmanCode& code, const std::vector<std::uint64_t>& freqs) {
  double bits = 0.0;
  double total = 0.0;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    bits += static_cast<double>(freqs[s]) * static_cast<double>(code.length(s));
    total += static_cast<double>(freqs[s]);
  }
  return bits / total;
}

TEST(BitIoTest, RoundTripAssortedWidths) {
  BitWriter writer;
  writer.write_bits(0b101, 3);
  writer.write_bits(0xFFFF, 16);
  writer.write_bits(0, 1);
  writer.write_bits(0xDEADBEEF, 32);
  const auto bytes = writer.finish();
  BitReader reader(bytes);
  EXPECT_EQ(reader.read_bits(3), 0b101u);
  EXPECT_EQ(reader.read_bits(16), 0xFFFFu);
  EXPECT_EQ(reader.read_bits(1), 0u);
  EXPECT_EQ(reader.read_bits(32), 0xDEADBEEFu);
}

TEST(BitIoTest, BitCountTracksExactly) {
  BitWriter writer;
  writer.write_bits(1, 1);
  writer.write_bits(3, 2);
  EXPECT_EQ(writer.bit_count(), 3u);
  const auto bytes = writer.finish();
  EXPECT_EQ(bytes.size(), 1u);  // padded to one byte
}

TEST(BitIoTest, ReaderThrowsPastEnd) {
  BitWriter writer;
  writer.write_bits(0xAB, 8);
  const auto bytes = writer.finish();
  BitReader reader(bytes);
  reader.read_bits(8);
  EXPECT_THROW(reader.read_bit(), vbr::Error);
}

TEST(HuffmanTest, TwoSymbolAlphabet) {
  const std::vector<std::uint64_t> freqs{90, 10};
  const auto code = HuffmanCode::build(freqs);
  EXPECT_EQ(code.length(0), 1u);
  EXPECT_EQ(code.length(1), 1u);
  EXPECT_NE(code.code(0), code.code(1));
}

TEST(HuffmanTest, SingleSymbolGetsOneBit) {
  const std::vector<std::uint64_t> freqs{5, 0, 0};
  const auto code = HuffmanCode::build(freqs);
  EXPECT_EQ(code.length(0), 1u);
  EXPECT_EQ(code.length(1), 0u);
}

TEST(HuffmanTest, ZeroFrequencySymbolHasNoCodeAndThrowsOnEncode) {
  const std::vector<std::uint64_t> freqs{10, 0, 20};
  const auto code = HuffmanCode::build(freqs);
  EXPECT_EQ(code.length(1), 0u);
  BitWriter writer;
  EXPECT_THROW(code.encode(writer, 1), vbr::InvalidArgument);
}

TEST(HuffmanTest, SkewedFrequenciesGetShorterCodes) {
  const std::vector<std::uint64_t> freqs{1000, 200, 50, 10, 1};
  const auto code = HuffmanCode::build(freqs);
  for (std::size_t s = 1; s < freqs.size(); ++s) {
    EXPECT_LE(code.length(s - 1), code.length(s));
  }
}

TEST(HuffmanTest, PrefixPropertyViaExhaustiveDecode) {
  // Every encoded symbol must decode back unambiguously.
  const std::vector<std::uint64_t> freqs{50, 30, 10, 5, 3, 1, 1};
  const auto code = HuffmanCode::build(freqs);
  BitWriter writer;
  std::vector<std::size_t> message;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::size_t s = rng.uniform_index(freqs.size());
    message.push_back(s);
    code.encode(writer, s);
  }
  const auto bytes = writer.finish();
  BitReader reader(bytes);
  for (std::size_t expected : message) EXPECT_EQ(code.decode(reader), expected);
}

TEST(HuffmanTest, KraftInequalityHolds) {
  const std::vector<std::uint64_t> freqs{100, 80, 60, 40, 20, 10, 5, 2, 1};
  const auto code = HuffmanCode::build(freqs);
  double kraft = 0.0;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (code.length(s) > 0) kraft += std::pow(2.0, -static_cast<double>(code.length(s)));
  }
  EXPECT_LE(kraft, 1.0 + 1e-12);
  EXPECT_NEAR(kraft, 1.0, 1e-9);  // Huffman codes are complete
}

TEST(HuffmanTest, ExpectedLengthWithinOneBitOfEntropy) {
  // Shannon: H <= L < H + 1 for an optimal prefix code.
  const std::vector<std::uint64_t> freqs{500, 250, 125, 60, 30, 20, 10, 5};
  const auto code = HuffmanCode::build(freqs);
  double total = 0.0;
  for (auto f : freqs) total += static_cast<double>(f);
  double entropy = 0.0;
  for (auto f : freqs) {
    const double p = static_cast<double>(f) / total;
    entropy -= p * std::log2(p);
  }
  const double mean_len = mean_code_length(code, freqs);
  EXPECT_GE(mean_len, entropy - 1e-9);
  EXPECT_LT(mean_len, entropy + 1.0);
}

TEST(HuffmanTest, LengthLimitEnforced) {
  // Exponential frequencies would naturally produce very long codes.
  std::vector<std::uint64_t> freqs;
  std::uint64_t f = 1;
  for (int i = 0; i < 30; ++i) {
    freqs.push_back(f);
    f = (f > (1ull << 60)) ? f : f * 2;
  }
  const auto code = HuffmanCode::build(freqs, 12);
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    EXPECT_LE(code.length(s), 12u);
    EXPECT_GE(code.length(s), 1u);
  }
  // Still decodable.
  BitWriter writer;
  for (std::size_t s = 0; s < freqs.size(); ++s) code.encode(writer, s);
  const auto bytes = writer.finish();
  BitReader reader(bytes);
  for (std::size_t s = 0; s < freqs.size(); ++s) EXPECT_EQ(code.decode(reader), s);
}

TEST(HuffmanTest, LargeAlphabetRoundTrip) {
  // The AC token alphabet of the coder: 256 symbols with mixed weights.
  std::vector<std::uint64_t> freqs(256);
  Rng rng(7);
  for (auto& v : freqs) v = 1 + rng.uniform_index(10000);
  const auto code = HuffmanCode::build(freqs);
  BitWriter writer;
  std::vector<std::size_t> message;
  for (int i = 0; i < 5000; ++i) {
    const std::size_t s = rng.uniform_index(256);
    message.push_back(s);
    code.encode(writer, s);
  }
  const auto bytes = writer.finish();
  BitReader reader(bytes);
  for (std::size_t expected : message) ASSERT_EQ(code.decode(reader), expected);
}

TEST(HuffmanTest, CompressionBeatsFixedWidthOnSkewedSource) {
  std::vector<std::uint64_t> freqs{100000, 1000, 100, 10, 1, 1, 1, 1};
  const auto code = HuffmanCode::build(freqs);
  // Fixed-width coding of 8 symbols needs 3 bits; the skew makes Huffman
  // spend close to 1 bit on the dominant symbol.
  EXPECT_LT(mean_code_length(code, freqs), 1.2);
}

}  // namespace
}  // namespace vbr::codec
