// The full intraframe coding pipeline of Table 1: 8x8 DCT -> uniform
// quantization -> zig-zag scan -> run-length coding -> Huffman coding,
// organized as 30 independent slices per frame (each slice restarts the DC
// predictor, exactly so that slice byte counts are self-contained — the
// paper measures the trace at both frame and slice resolution).
//
// Entropy model (JPEG-baseline style):
//  * DC: DPCM against the previous block in the slice; the size category of
//    the difference is Huffman coded, followed by that many amplitude bits.
//  * AC: (run, size) tokens Huffman coded, followed by amplitude bits; ZRL
//    extends runs past 15, EOB terminates the block.
#pragma once

#include <cstddef>
#include <vector>

#include "vbr/codec/frame.hpp"
#include "vbr/codec/huffman.hpp"
#include "vbr/codec/quantizer.hpp"

namespace vbr::codec {

struct CoderConfig {
  /// Fixed quantizer step (the paper fixes it for the whole movie).
  double quantizer_step = 16.0;
  /// Table 1: "slice" rate 30 per frame.
  std::size_t slices_per_frame = 30;
};

struct EncodedSlice {
  std::vector<std::uint8_t> bytes;
};

struct EncodedFrame {
  std::size_t width = 0;
  std::size_t height = 0;
  std::vector<EncodedSlice> slices;

  std::size_t total_bytes() const;
};

class IntraframeCoder {
 public:
  explicit IntraframeCoder(const CoderConfig& config = {});

  const CoderConfig& config() const { return config_; }

  /// Replace the default entropy tables with tables trained on the given
  /// frames (two-pass coding, as a production encoder would provision).
  void train(std::span<const Frame> frames);

  EncodedFrame encode(const Frame& frame) const;
  Frame decode(const EncodedFrame& encoded) const;

  /// Uncompressed bits / compressed bits for a frame (Table 1 reports the
  /// movie-average compression ratio, 8.70).
  static double compression_ratio(const Frame& frame, const EncodedFrame& encoded);

 private:
  CoderConfig config_;
  UniformQuantizer quantizer_;
  HuffmanCode dc_code_;
  HuffmanCode ac_code_;

  /// Rows of 8x8 blocks assigned to each slice (first, count).
  struct SliceExtent {
    std::size_t first_block_row = 0;
    std::size_t block_rows = 0;
  };
  std::vector<SliceExtent> slice_extents(std::size_t blocks_y) const;
};

/// Number of amplitude bits needed for a DPCM/AC level (JPEG size category).
unsigned size_category(int value);

}  // namespace vbr::codec
