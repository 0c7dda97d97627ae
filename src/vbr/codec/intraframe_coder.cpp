#include "vbr/codec/intraframe_coder.hpp"

#include <cmath>

#include "vbr/codec/dct.hpp"
#include "vbr/codec/rle.hpp"
#include "vbr/codec/zigzag.hpp"
#include "vbr/common/error.hpp"

namespace vbr::codec {
namespace {

// DC differences span [-255*8/step .. +255*8/step] after an 8x8 orthonormal
// DCT (DC = 8 * mean); 12 categories are ample.
constexpr std::size_t kDcAlphabet = 13;   // size categories 0..12
constexpr std::size_t kAcAlphabet = 256;  // (run << 4) | size tokens

// Amplitude encoding as in JPEG: positive values are written verbatim in
// `size` bits; negative values are written as value + 2^size - 1 (i.e. with
// a leading 0 bit).
void write_amplitude(BitWriter& out, int value, unsigned size) {
  if (size == 0) return;
  if (value < 0) value += (1 << size) - 1;
  out.write_bits(static_cast<std::uint32_t>(value), size);
}

int read_amplitude(BitReader& in, unsigned size) {
  if (size == 0) return 0;
  const auto raw = static_cast<int>(in.read_bits(size));
  // Leading 0 bit marks a negative amplitude.
  if (raw < (1 << (size - 1))) return raw - (1 << size) + 1;
  return raw;
}

// Default entropy tables: a smooth synthetic frequency profile shaped like
// typical natural-image statistics (short runs and small amplitudes
// dominate). A real deployment would train once on representative material;
// IntraframeCoder::train() does exactly that.
HuffmanCode default_dc_code() {
  std::vector<std::uint64_t> freqs(kDcAlphabet);
  for (std::size_t c = 0; c < kDcAlphabet; ++c) {
    freqs[c] = static_cast<std::uint64_t>(1 + 100000.0 * std::exp(-0.6 * static_cast<double>(c)));
  }
  return HuffmanCode::build(freqs);
}

HuffmanCode default_ac_code() {
  std::vector<std::uint64_t> freqs(kAcAlphabet, 1);
  for (std::size_t run = 0; run < 16; ++run) {
    for (std::size_t size = 1; size <= 10; ++size) {
      const double weight = 200000.0 * std::exp(-0.45 * static_cast<double>(run)) *
                            std::exp(-0.9 * static_cast<double>(size));
      freqs[(run << 4) | size] += static_cast<std::uint64_t>(weight);
    }
  }
  freqs[0] += 150000;       // EOB is the most common token
  freqs[(15u << 4)] += 50;  // ZRL is rare but must stay cheap-ish
  return HuffmanCode::build(freqs);
}

}  // namespace

unsigned size_category(int value) {
  unsigned size = 0;
  for (unsigned magnitude = static_cast<unsigned>(std::abs(value)); magnitude != 0;
       magnitude >>= 1) {
    ++size;
  }
  return size;
}

std::size_t EncodedFrame::total_bytes() const {
  std::size_t total = 0;
  for (const auto& s : slices) total += s.bytes.size();
  return total;
}

IntraframeCoder::IntraframeCoder(const CoderConfig& config)
    : config_(config),
      quantizer_(config.quantizer_step),
      dc_code_(default_dc_code()),
      ac_code_(default_ac_code()) {
  VBR_ENSURE(config.slices_per_frame >= 1, "need at least one slice per frame");
}

std::vector<IntraframeCoder::SliceExtent> IntraframeCoder::slice_extents(
    std::size_t blocks_y) const {
  const std::size_t slices = std::min(config_.slices_per_frame, blocks_y);
  std::vector<SliceExtent> extents(slices);
  // Distribute block rows as evenly as possible.
  const std::size_t base = blocks_y / slices;
  const std::size_t extra = blocks_y % slices;
  std::size_t row = 0;
  for (std::size_t s = 0; s < slices; ++s) {
    extents[s].first_block_row = row;
    extents[s].block_rows = base + (s < extra ? 1 : 0);
    row += extents[s].block_rows;
  }
  return extents;
}

void IntraframeCoder::train(std::span<const Frame> frames) {
  VBR_ENSURE(!frames.empty(), "training requires at least one frame");
  std::vector<std::uint64_t> dc_freqs(kDcAlphabet, 1);
  std::vector<std::uint64_t> ac_freqs(kAcAlphabet, 1);

  for (const Frame& frame : frames) {
    for (const auto& extent : slice_extents(frame.blocks_y())) {
      int dc_pred = 0;
      for (std::size_t by = extent.first_block_row;
           by < extent.first_block_row + extent.block_rows; ++by) {
        for (std::size_t bx = 0; bx < frame.blocks_x(); ++bx) {
          const auto levels = quantizer_.quantize_block(forward_dct(frame.block(bx, by)));
          const auto scanned = zigzag_scan(levels);
          const int dc_delta = scanned[0] - dc_pred;
          dc_pred = scanned[0];
          ++dc_freqs[size_category(dc_delta)];
          for (const RleSymbol& sym :
               rle_encode_ac(std::span<const std::int16_t>(scanned).subspan(1))) {
            const unsigned size = sym.level == 0 ? 0 : size_category(sym.level);
            ++ac_freqs[(static_cast<std::size_t>(sym.run) << 4) | size];
          }
        }
      }
    }
  }
  dc_code_ = HuffmanCode::build(dc_freqs);
  ac_code_ = HuffmanCode::build(ac_freqs);
}

EncodedFrame IntraframeCoder::encode(const Frame& frame) const {
  EncodedFrame out;
  out.width = frame.width();
  out.height = frame.height();

  for (const auto& extent : slice_extents(frame.blocks_y())) {
    BitWriter writer;
    int dc_pred = 0;  // DC predictor restarts per slice
    for (std::size_t by = extent.first_block_row;
         by < extent.first_block_row + extent.block_rows; ++by) {
      for (std::size_t bx = 0; bx < frame.blocks_x(); ++bx) {
        const auto levels = quantizer_.quantize_block(forward_dct(frame.block(bx, by)));
        const auto scanned = zigzag_scan(levels);

        const int dc_delta = scanned[0] - dc_pred;
        dc_pred = scanned[0];
        const unsigned dc_size = size_category(dc_delta);
        dc_code_.encode(writer, dc_size);
        write_amplitude(writer, dc_delta, dc_size);

        for (const RleSymbol& sym :
             rle_encode_ac(std::span<const std::int16_t>(scanned).subspan(1))) {
          const unsigned size = sym.level == 0 ? 0 : size_category(sym.level);
          ac_code_.encode(writer, (static_cast<std::size_t>(sym.run) << 4) | size);
          write_amplitude(writer, sym.level, size);
        }
      }
    }
    out.slices.push_back({writer.finish()});
  }
  return out;
}

Frame IntraframeCoder::decode(const EncodedFrame& encoded) const {
  Frame frame(encoded.width, encoded.height);
  const auto extents = slice_extents(frame.blocks_y());
  VBR_ENSURE(extents.size() == encoded.slices.size(), "slice count mismatch");

  for (std::size_t s = 0; s < extents.size(); ++s) {
    BitReader reader(encoded.slices[s].bytes);
    int dc_pred = 0;
    for (std::size_t by = extents[s].first_block_row;
         by < extents[s].first_block_row + extents[s].block_rows; ++by) {
      for (std::size_t bx = 0; bx < frame.blocks_x(); ++bx) {
        std::array<std::int16_t, 64> scanned{};

        const auto dc_size = static_cast<unsigned>(dc_code_.decode(reader));
        const int dc_delta = read_amplitude(reader, dc_size);
        dc_pred += dc_delta;
        scanned[0] = static_cast<std::int16_t>(dc_pred);

        std::vector<RleSymbol> symbols;
        std::size_t ac_seen = 0;
        while (ac_seen < 63) {
          const std::size_t token = ac_code_.decode(reader);
          const auto run = static_cast<std::uint8_t>(token >> 4);
          const auto size = static_cast<unsigned>(token & 0xF);
          if (run == 0 && size == 0) {  // EOB
            symbols.push_back(RleSymbol::eob());
            break;
          }
          if (run == 15 && size == 0) {  // ZRL
            symbols.push_back(RleSymbol::zrl());
            ac_seen += 16;
            continue;
          }
          const int level = read_amplitude(reader, size);
          symbols.push_back({run, static_cast<std::int16_t>(level)});
          ac_seen += run + 1u;
        }
        const auto ac = rle_decode_ac(symbols, 63);
        for (std::size_t i = 0; i < 63; ++i) scanned[i + 1] = ac[i];

        const auto levels = zigzag_unscan(scanned);
        frame.set_block(bx, by, inverse_dct(quantizer_.dequantize_block(levels)));
      }
    }
  }
  return frame;
}

double IntraframeCoder::compression_ratio(const Frame& frame, const EncodedFrame& encoded) {
  const double raw_bits = static_cast<double>(frame.pixel_count()) * 8.0;
  const double coded_bits = static_cast<double>(encoded.total_bytes()) * 8.0;
  VBR_ENSURE(coded_bits > 0.0, "empty encoding");
  return raw_bits / coded_bits;
}

}  // namespace vbr::codec
