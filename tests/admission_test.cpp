// Tests for bufferless admission control built on the Section 4.2
// convolution table.
#include "vbr/net/admission.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "vbr/common/error.hpp"
#include "vbr/common/rng.hpp"
#include "vbr/net/fluid_queue.hpp"
#include "vbr/net/multiplexer.hpp"

namespace vbr::net {
namespace {

stats::GammaParetoDistribution paper_marginal() {
  stats::GammaParetoParams p;
  p.mu_gamma = 27791.0;
  p.sigma_gamma = 6254.0;
  p.tail_slope = 12.0;
  return stats::GammaParetoDistribution(p);
}

constexpr double kDt = 1.0 / 24.0;

TEST(AdmissionTest, LossMonotoneInCapacity) {
  const BufferlessAdmission admission(paper_marginal(), kDt, 4096);
  double prev = 1.0;
  for (double capacity : {5.0e6, 6.0e6, 7.0e6, 9.0e6, 12.0e6}) {
    const double loss = admission.loss_fraction(5, capacity * 5.0);
    EXPECT_LE(loss, prev + 1e-15) << capacity;
    prev = loss;
  }
}

TEST(AdmissionTest, RequiredCapacityInvertsLossFraction) {
  const BufferlessAdmission admission(paper_marginal(), kDt, 4096);
  for (double target : {1e-3, 1e-5}) {
    const double c = admission.required_capacity_bps(5, target);
    EXPECT_LE(admission.loss_fraction(5, c), target * 1.001);
    EXPECT_GT(admission.loss_fraction(5, c * 0.97), target);
  }
}

TEST(AdmissionTest, EconomyOfScale) {
  // Per-source capacity at fixed loss decreases with N (the analytic
  // Fig. 15).
  const BufferlessAdmission admission(paper_marginal(), kDt, 4096);
  double prev_per_source = 1e18;
  for (std::size_t n : {1u, 2u, 5u, 10u, 20u}) {
    const double per_source =
        admission.required_capacity_bps(n, 1e-4) / static_cast<double>(n);
    EXPECT_LT(per_source, prev_per_source) << "n=" << n;
    prev_per_source = per_source;
  }
  // And approaches (but stays above) the mean rate.
  const double mean_bps = paper_marginal().mean() * 8.0 / kDt;
  EXPECT_GT(prev_per_source, mean_bps);
  EXPECT_LT(prev_per_source, mean_bps * 1.25);
}

TEST(AdmissionTest, MaxAdmissibleSourcesConsistentWithRequiredCapacity) {
  const BufferlessAdmission admission(paper_marginal(), kDt, 2048);
  const double capacity = admission.required_capacity_bps(8, 1e-4);
  const std::size_t admitted = admission.max_admissible_sources(capacity, 1e-4, 32);
  EXPECT_GE(admitted, 8u);
  EXPECT_LE(admitted, 9u);  // capacity was sized for exactly 8
}

TEST(AdmissionTest, AnalyticLossMatchesBufferlessSimulationOnIidTraffic) {
  // For i.i.d. per-interval traffic and zero buffer, the fluid simulation's
  // loss fraction IS E[(S_N - c)^+]/E[S_N]; the convolution should predict
  // it closely.
  const auto marginal = paper_marginal();
  const BufferlessAdmission admission(marginal, kDt, 4096);
  const std::size_t sources = 5;
  const double capacity_bps = admission.required_capacity_bps(sources, 1e-3);

  Rng rng(9);
  std::vector<double> aggregate(120000, 0.0);
  for (auto& v : aggregate) {
    for (std::size_t s = 0; s < sources; ++s) v += marginal.sample(rng);
  }
  const auto sim =
      run_fluid_queue(aggregate, kDt, capacity_bps / 8.0, /*buffer=*/0.0);
  EXPECT_NEAR(std::log10(std::max(sim.loss_rate(), 1e-12)), std::log10(1e-3), 0.35);
}

TEST(AdmissionTest, Preconditions) {
  const BufferlessAdmission admission(paper_marginal(), kDt, 1024);
  EXPECT_THROW(admission.loss_fraction(0, 1e6), vbr::InvalidArgument);
  EXPECT_THROW(admission.loss_fraction(1, 0.0), vbr::InvalidArgument);
  EXPECT_THROW(admission.required_capacity_bps(1, 0.0), vbr::InvalidArgument);
  EXPECT_THROW(BufferlessAdmission(paper_marginal(), 0.0), vbr::InvalidArgument);
}

}  // namespace
}  // namespace vbr::net
