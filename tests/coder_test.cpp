// Tests for the full intraframe coding pipeline: bitstream round trips,
// slice structure, rate behavior vs. content and quantizer step, and the
// Table 1 compression-ratio regime.
#include "vbr/codec/intraframe_coder.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "vbr/common/error.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/codec/synthetic_movie.hpp"

namespace vbr::codec {
namespace {

Frame noise_frame(std::size_t w, std::size_t h, double amplitude, std::uint64_t seed) {
  Frame f(w, h);
  Rng rng(seed);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const double v = 128.0 + amplitude * rng.normal();
      f.set(x, y, static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0)));
    }
  }
  return f;
}

TEST(SizeCategoryTest, MatchesBitLengths) {
  EXPECT_EQ(size_category(0), 0u);
  EXPECT_EQ(size_category(1), 1u);
  EXPECT_EQ(size_category(-1), 1u);
  EXPECT_EQ(size_category(2), 2u);
  EXPECT_EQ(size_category(3), 2u);
  EXPECT_EQ(size_category(-4), 3u);
  EXPECT_EQ(size_category(127), 7u);
  EXPECT_EQ(size_category(-128), 8u);
  EXPECT_EQ(size_category(255), 8u);
}

TEST(CoderTest, FlatFrameCodesTiny) {
  IntraframeCoder coder;
  Frame flat(64, 64);  // all pixels 128
  const auto encoded = coder.encode(flat);
  // A flat frame is nothing but EOBs and zero DC deltas.
  EXPECT_LT(encoded.total_bytes(), flat.pixel_count() / 16);
  EXPECT_GT(IntraframeCoder::compression_ratio(flat, encoded), 16.0);
}

TEST(CoderTest, DecodeRoundTripWithinQuantizerError) {
  CoderConfig config;
  config.quantizer_step = 8.0;
  config.slices_per_frame = 4;
  IntraframeCoder coder(config);
  const Frame original = noise_frame(64, 64, 25.0, 7);
  const auto encoded = coder.encode(original);
  const Frame decoded = coder.decode(encoded);
  // Uniform step-8 quantization on an orthonormal DCT keeps PSNR high.
  EXPECT_GT(psnr(original, decoded), 30.0);
}

TEST(CoderTest, LosslessOnFlatAndExactOnDc) {
  IntraframeCoder coder;
  Frame flat(32, 32);
  for (auto& p : flat.pixels()) p = 200;
  const Frame decoded = coder.decode(coder.encode(flat));
  for (std::size_t i = 0; i < flat.pixels().size(); ++i) {
    EXPECT_NEAR(static_cast<double>(decoded.pixels()[i]), 200.0, 8.0);
  }
}

TEST(CoderTest, SliceCountAndPartition) {
  CoderConfig config;
  config.slices_per_frame = 30;
  IntraframeCoder coder(config);
  const Frame f = noise_frame(Frame::kDefaultWidth, Frame::kDefaultHeight, 20.0, 9);
  const auto encoded = coder.encode(f);
  EXPECT_EQ(encoded.slices.size(), 30u);  // 60 block rows / 30 slices = 2 rows each
  std::size_t total = 0;
  for (const auto& slice : encoded.slices) {
    EXPECT_GT(slice.bytes.size(), 0u);
    total += slice.bytes.size();
  }
  EXPECT_EQ(total, encoded.total_bytes());
}

TEST(CoderTest, MoreDetailMeansMoreBytes) {
  IntraframeCoder coder;
  const Frame calm = noise_frame(64, 64, 5.0, 11);
  const Frame busy = noise_frame(64, 64, 50.0, 11);
  EXPECT_GT(coder.encode(busy).total_bytes(), 2 * coder.encode(calm).total_bytes());
}

TEST(CoderTest, CoarserQuantizerMeansFewerBytes) {
  const Frame f = noise_frame(64, 64, 30.0, 13);
  CoderConfig fine;
  fine.quantizer_step = 4.0;
  CoderConfig coarse;
  coarse.quantizer_step = 32.0;
  EXPECT_GT(IntraframeCoder(fine).encode(f).total_bytes(),
            2 * IntraframeCoder(coarse).encode(f).total_bytes());
}

TEST(CoderTest, TrainingImprovesOrMatchesDefaultTables) {
  MovieConfig mconfig;
  mconfig.width = 64;
  mconfig.height = 64;
  const SyntheticMovie movie(mconfig, 50);
  std::vector<Frame> sample;
  for (std::size_t i = 0; i < 10; ++i) sample.push_back(movie.frame(i * 5));

  IntraframeCoder untrained;
  IntraframeCoder trained;
  trained.train(sample);
  std::size_t untrained_bytes = 0;
  std::size_t trained_bytes = 0;
  for (const auto& f : sample) {
    untrained_bytes += untrained.encode(f).total_bytes();
    trained_bytes += trained.encode(f).total_bytes();
  }
  EXPECT_LE(trained_bytes, untrained_bytes);
}

TEST(CoderTest, TrainedCoderStillRoundTrips) {
  MovieConfig mconfig;
  mconfig.width = 64;
  mconfig.height = 64;
  const SyntheticMovie movie(mconfig, 20);
  std::vector<Frame> sample{movie.frame(0), movie.frame(10)};
  IntraframeCoder coder;
  coder.train(sample);
  const Frame original = movie.frame(5);
  const Frame decoded = coder.decode(coder.encode(original));
  EXPECT_GT(psnr(original, decoded), 28.0);
}

TEST(CoderTest, CompressionRatioInPaperRegimeOnMovieMaterial) {
  // Table 1 reports an average ratio of 8.70 for film material; synthetic
  // frames land in the same broad regime (well above 2, below 50).
  MovieConfig mconfig;
  mconfig.width = 128;
  mconfig.height = 128;
  const SyntheticMovie movie(mconfig, 30);
  IntraframeCoder coder;
  double ratio_sum = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    const Frame f = movie.frame(i * 3);
    ratio_sum += IntraframeCoder::compression_ratio(f, coder.encode(f));
  }
  const double mean_ratio = ratio_sum / 10.0;
  EXPECT_GT(mean_ratio, 2.0);
  EXPECT_LT(mean_ratio, 60.0);
}

TEST(CoderTest, ConfigValidation) {
  CoderConfig bad;
  bad.slices_per_frame = 0;
  EXPECT_THROW(IntraframeCoder{bad}, vbr::InvalidArgument);
  CoderConfig bad_step;
  bad_step.quantizer_step = 0.0;
  EXPECT_THROW(IntraframeCoder{bad_step}, vbr::InvalidArgument);
}

}  // namespace
}  // namespace vbr::codec
