#include "vbr/codec/huffman.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "vbr/common/error.hpp"

namespace vbr::codec {

// ------------------------------------------------------------- BitWriter

void BitWriter::write_bits(std::uint32_t value, unsigned count) {
  VBR_ENSURE(count <= 32, "cannot write more than 32 bits at once");
  for (unsigned i = count; i > 0; --i) {
    const unsigned bit = (value >> (i - 1)) & 1u;
    current_ = static_cast<std::uint8_t>((current_ << 1) | bit);
    if (++used_ == 8) {
      bytes_.push_back(current_);
      current_ = 0;
      used_ = 0;
    }
  }
  bit_count_ += count;
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (used_ > 0) {
    bytes_.push_back(static_cast<std::uint8_t>(current_ << (8 - used_)));
    current_ = 0;
    used_ = 0;
  }
  return std::move(bytes_);
}

// ------------------------------------------------------------- BitReader

BitReader::BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

unsigned BitReader::read_bit() {
  const std::size_t byte = position_ / 8;
  if (byte >= bytes_.size()) throw Error("bit stream exhausted");
  const unsigned bit = (bytes_[byte] >> (7 - position_ % 8)) & 1u;
  ++position_;
  return bit;
}

std::uint32_t BitReader::read_bits(unsigned count) {
  VBR_ENSURE(count <= 32, "cannot read more than 32 bits at once");
  std::uint32_t value = 0;
  for (unsigned i = 0; i < count; ++i) value = (value << 1) | read_bit();
  return value;
}

// ------------------------------------------------------------ HuffmanCode

namespace {

// Compute Huffman code lengths for the nonzero-frequency symbols.
std::vector<unsigned> huffman_lengths(std::span<const std::uint64_t> freqs) {
  struct Node {
    std::uint64_t weight;
    int left;   ///< child node index, or ~symbol for leaves
    int right;
  };
  std::vector<Node> nodes;
  using HeapItem = std::pair<std::uint64_t, int>;  // (weight, node index)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;

  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back({freqs[s], ~static_cast<int>(s), 0});
    heap.emplace(freqs[s], static_cast<int>(nodes.size()) - 1);
  }
  std::vector<unsigned> lengths(freqs.size(), 0);
  if (heap.empty()) return lengths;
  if (heap.size() == 1) {
    // Degenerate alphabet: give the single symbol a 1-bit code.
    lengths[static_cast<std::size_t>(~nodes[0].left)] = 1;
    return lengths;
  }
  while (heap.size() > 1) {
    const auto [wa, a] = heap.top();
    heap.pop();
    const auto [wb, b] = heap.top();
    heap.pop();
    nodes.push_back({wa + wb, a, b});
    heap.emplace(wa + wb, static_cast<int>(nodes.size()) - 1);
  }
  // Depth-first traversal to read off leaf depths.
  struct Visit {
    int node;
    unsigned depth;
  };
  std::vector<Visit> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& node = nodes[static_cast<std::size_t>(idx)];
    if (node.left < 0) {
      // Leaf: `left` stores the bitwise complement of the symbol.
      lengths[static_cast<std::size_t>(~node.left)] = std::max(1u, depth);
    } else {
      stack.push_back({node.left, depth + 1});
      stack.push_back({node.right, depth + 1});
    }
  }
  return lengths;
}

}  // namespace

HuffmanCode HuffmanCode::build(std::span<const std::uint64_t> frequencies,
                               unsigned max_length) {
  VBR_ENSURE(!frequencies.empty(), "empty alphabet");
  // Tree nodes are indexed with int (2 * alphabet - 1 of them at most).
  VBR_ENSURE(frequencies.size() < (std::size_t{1} << 28), "alphabet too large");
  VBR_ENSURE(max_length >= 2 && max_length <= 31, "max code length must be in [2, 31]");

  // Scale-and-retry: halving frequencies flattens the tree; converges
  // quickly and preserves near-optimality for realistic inputs.
  std::vector<std::uint64_t> work(frequencies.begin(), frequencies.end());
  std::vector<unsigned> lengths;
  for (int attempt = 0; attempt < 64; ++attempt) {
    lengths = huffman_lengths(work);
    const unsigned longest = *std::max_element(lengths.begin(), lengths.end());
    if (longest <= max_length) break;
    for (auto& f : work) {
      if (f > 0) f = (f + 1) / 2;
    }
  }
  VBR_ENSURE(*std::max_element(lengths.begin(), lengths.end()) <= max_length,
             "failed to limit Huffman code lengths");

  HuffmanCode code;
  code.lengths_ = std::move(lengths);
  code.codes_.assign(code.lengths_.size(), 0);
  code.max_length_ = *std::max_element(code.lengths_.begin(), code.lengths_.end());

  // Canonical assignment: symbols sorted by (length, symbol value).
  std::vector<std::uint32_t> symbols;
  for (std::size_t s = 0; s < code.lengths_.size(); ++s) {
    if (code.lengths_[s] > 0) symbols.push_back(static_cast<std::uint32_t>(s));
  }
  std::sort(symbols.begin(), symbols.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (code.lengths_[a] != code.lengths_[b]) return code.lengths_[a] < code.lengths_[b];
    return a < b;
  });
  std::uint32_t next = 0;
  unsigned prev_len = 0;
  for (std::uint32_t s : symbols) {
    const unsigned len = code.lengths_[s];
    next <<= (len - prev_len);
    code.codes_[s] = next++;
    prev_len = len;
  }
  code.sorted_symbols_ = std::move(symbols);
  code.build_decode_tables();
  return code;
}

void HuffmanCode::build_decode_tables() {
  first_code_.assign(max_length_ + 1, 0);
  first_index_.assign(max_length_ + 1, 0);
  count_.assign(max_length_ + 1, 0);
  for (std::uint32_t s : sorted_symbols_) ++count_[lengths_[s]];
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (unsigned len = 1; len <= max_length_; ++len) {
    code <<= 1;
    first_code_[len] = code;
    first_index_[len] = index;
    code += count_[len];
    index += count_[len];
  }
}

void HuffmanCode::encode(BitWriter& out, std::size_t symbol) const {
  VBR_ENSURE(symbol < lengths_.size() && lengths_[symbol] > 0,
             "symbol has no Huffman code");
  out.write_bits(codes_[symbol], lengths_[symbol]);
}

std::size_t HuffmanCode::decode(BitReader& in) const {
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= max_length_; ++len) {
    code = (code << 1) | in.read_bit();
    if (count_[len] != 0 && code >= first_code_[len] &&
        code < first_code_[len] + count_[len]) {
      const std::uint32_t index = first_index_[len] + (code - first_code_[len]);
      VBR_DCHECK(index < sorted_symbols_.size(), "canonical decode index out of range");
      return sorted_symbols_[index];
    }
  }
  throw Error("invalid Huffman code in bit stream");
}

}  // namespace vbr::codec
