#include "vbr/service/streaming_paxson.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "vbr/common/error.hpp"
#include "vbr/common/fft.hpp"
#include "vbr/common/serialize.hpp"

namespace vbr::service {

StreamingPaxson::StreamingPaxson(const model::PaxsonOptions& options, std::size_t window,
                                 std::size_t overlap, Rng& parent)
    : options_(options),
      window_(window),
      overlap_(overlap),
      stride_(window - overlap),
      rng_(parent.split()) {
  VBR_ENSURE(options.hurst > 0.0 && options.hurst < 1.0, "H must be in (0, 1)");
  VBR_ENSURE(options.variance > 0.0, "variance must be positive");
  VBR_ENSURE(is_power_of_two(window_) && window_ >= 4,
             "paxson window must be a power of two >= 4");
  VBR_ENSURE(overlap_ >= 1 && 2 * overlap_ <= window_,
             "paxson overlap must lie in [1, window / 2]");
}

void StreamingPaxson::refill_segment() {
  // Window j covers global samples [j * stride, j * stride + window); its
  // first `overlap` samples are blended with the previous window's tail,
  // the rest pass through untouched. Segment 0 has no predecessor, so it is
  // the pure head of window 0.
  std::vector<double> next = model::paxson_fgn(window_, options_, rng_);
  segment_.resize(stride_);
  if (windows_drawn_ == 0) {
    std::copy(next.begin(), next.begin() + static_cast<std::ptrdiff_t>(stride_),
              segment_.begin());
  } else {
    for (std::size_t t = 0; t < overlap_; ++t) {
      const double u =
          (static_cast<double>(t) + 1.0) / (static_cast<double>(overlap_) + 1.0);
      const double a = std::cos(0.5 * std::numbers::pi * u);
      const double b = std::sin(0.5 * std::numbers::pi * u);
      segment_[t] = a * window_cur_[stride_ + t] + b * next[t];
    }
    for (std::size_t t = overlap_; t < stride_; ++t) segment_[t] = next[t];
  }
  window_cur_ = std::move(next);
  ++windows_drawn_;
  segment_pos_ = 0;
}

void StreamingPaxson::next_block(std::size_t n, std::vector<double>& out) {
  out.reserve(out.size() + n);
  while (n > 0) {
    if (windows_drawn_ == 0 || segment_pos_ == stride_) refill_segment();
    const std::size_t take = std::min(n, stride_ - segment_pos_);
    out.insert(out.end(), segment_.begin() + static_cast<std::ptrdiff_t>(segment_pos_),
               segment_.begin() + static_cast<std::ptrdiff_t>(segment_pos_ + take));
    segment_pos_ += take;
    position_ += take;
    n -= take;
  }
}

void StreamingPaxson::append_state(std::string& out) const {
  io::write_string(out, kind());
  io::write_f64(out, options_.hurst);
  io::write_f64(out, options_.variance);
  io::write_u64(out, window_);
  io::write_u64(out, overlap_);
  io::write_u64(out, position_);
  io::write_u64(out, windows_drawn_);
  io::write_u64(out, segment_pos_);
  rng_.save(out);
  io::write_f64_vector(out, window_cur_);
  io::write_f64_vector(out, segment_);
}

void StreamingPaxson::restore(std::istream& in) {
  io::read_tag(in, kind(), "StreamingPaxson::restore");
  const double hurst = io::read_f64(in, "StreamingPaxson::restore");
  const double variance = io::read_f64(in, "StreamingPaxson::restore");
  const std::uint64_t window = io::read_u64(in, "StreamingPaxson::restore");
  const std::uint64_t overlap = io::read_u64(in, "StreamingPaxson::restore");
  if (hurst != options_.hurst || variance != options_.variance || window != window_ ||
      overlap != overlap_) {
    throw IoError("StreamingPaxson::restore: configuration mismatch");
  }
  const std::uint64_t position = io::read_u64(in, "StreamingPaxson::restore");
  const std::uint64_t windows_drawn = io::read_u64(in, "StreamingPaxson::restore");
  const std::uint64_t segment_pos = io::read_u64(in, "StreamingPaxson::restore");
  Rng rng;
  rng.restore(in);
  std::vector<double> window_cur =
      io::read_f64_vector(in, window_, "StreamingPaxson::restore window");
  std::vector<double> segment =
      io::read_f64_vector(in, stride_, "StreamingPaxson::restore segment");
  // Cross-field consistency: a fresh stream has empty buffers; a started
  // one has a full window, a full segment, and a consumed prefix within it.
  if (windows_drawn == 0) {
    if (position != 0 || segment_pos != 0 || !window_cur.empty() || !segment.empty()) {
      throw IoError("StreamingPaxson::restore: fresh stream with non-empty state");
    }
  } else {
    if (window_cur.size() != window_ || segment.size() != stride_ || segment_pos > stride_) {
      throw IoError("StreamingPaxson::restore: buffer sizes disagree with progress");
    }
    if (position != (windows_drawn - 1) * stride_ + segment_pos) {
      throw IoError("StreamingPaxson::restore: position disagrees with window count");
    }
  }
  for (const double s : window_cur) {
    if (!std::isfinite(s)) throw IoError("StreamingPaxson::restore: non-finite sample");
  }
  for (const double s : segment) {
    if (!std::isfinite(s)) throw IoError("StreamingPaxson::restore: non-finite sample");
  }
  position_ = position;
  windows_drawn_ = windows_drawn;
  segment_pos_ = static_cast<std::size_t>(segment_pos);
  rng_ = rng;
  window_cur_ = std::move(window_cur);
  segment_ = std::move(segment);
}

}  // namespace vbr::service
