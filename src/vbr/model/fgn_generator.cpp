#include "vbr/model/fgn_generator.hpp"

#include <algorithm>

#include "vbr/common/error.hpp"
#include "vbr/model/davies_harte.hpp"
#include "vbr/model/hosking.hpp"
#include "vbr/model/onoff_source.hpp"
#include "vbr/model/paxson_fgn.hpp"

namespace vbr::model {
namespace {

DaviesHarteOptions davies_harte_options(double hurst, double variance) {
  DaviesHarteOptions options;
  options.hurst = hurst;
  options.variance = variance;
  // The paper's process is fARIMA(0,d,0); keeping the exact generators on
  // that covariance preserves the pre-zoo engine output bit-for-bit.
  options.covariance = CovarianceKind::kFarima;
  return options;
}

class DaviesHarteGenerator final : public FgnGenerator {
 public:
  DaviesHarteGenerator(double hurst, double variance)
      : options_(davies_harte_options(hurst, variance)) {}
  std::vector<double> generate(std::size_t n, Rng& rng) const override {
    return davies_harte(n, options_, rng);
  }
  const char* name() const override { return "davies-harte"; }
  bool exact() const override { return true; }
  bool farima_covariance() const override { return true; }
  double hurst() const override { return options_.hurst; }

 private:
  DaviesHarteOptions options_;
};

class HoskingFgnGenerator final : public FgnGenerator {
 public:
  HoskingFgnGenerator(double hurst, double variance) {
    options_.hurst = hurst;
    options_.variance = variance;
  }
  std::vector<double> generate(std::size_t n, Rng& rng) const override {
    return hosking_farima(n, options_, rng);
  }
  const char* name() const override { return "hosking"; }
  bool exact() const override { return true; }
  bool farima_covariance() const override { return true; }
  double hurst() const override { return options_.hurst; }

 private:
  HoskingOptions options_;
};

class PaxsonGenerator final : public FgnGenerator {
 public:
  PaxsonGenerator(double hurst, double variance) {
    options_.hurst = hurst;
    options_.variance = variance;
  }
  std::vector<double> generate(std::size_t n, Rng& rng) const override {
    return paxson_fgn(n, options_, rng);
  }
  const char* name() const override { return "paxson"; }
  bool exact() const override { return false; }
  bool farima_covariance() const override { return false; }
  double hurst() const override { return options_.hurst; }

 private:
  PaxsonOptions options_;
};

class OnOffGenerator final : public FgnGenerator {
 public:
  OnOffGenerator(double hurst, double variance) {
    options_.hurst = hurst;
    options_.variance = variance;
  }
  std::vector<double> generate(std::size_t n, Rng& rng) const override {
    return onoff_aggregate(n, options_, rng);
  }
  const char* name() const override { return "onoff"; }
  bool exact() const override { return false; }
  bool farima_covariance() const override { return false; }
  double hurst() const override { return options_.hurst; }

 private:
  OnOffOptions options_;
};

}  // namespace

std::unique_ptr<FgnGenerator> make_fgn_generator(GeneratorBackend backend, double hurst,
                                                 double variance) {
  VBR_ENSURE(hurst > 0.0 && hurst < 1.0, "H must be in (0, 1)");
  VBR_ENSURE(variance > 0.0, "variance must be positive");
  switch (backend) {
    case GeneratorBackend::kDaviesHarte:
      return std::make_unique<DaviesHarteGenerator>(hurst, variance);
    case GeneratorBackend::kHosking:
      return std::make_unique<HoskingFgnGenerator>(hurst, variance);
    case GeneratorBackend::kPaxson:
      return std::make_unique<PaxsonGenerator>(hurst, variance);
    case GeneratorBackend::kAggregatedOnOff:
      VBR_ENSURE(hurst > 0.5, "on/off superposition needs H in (0.5, 1)");
      return std::make_unique<OnOffGenerator>(hurst, variance);
  }
  throw InvalidArgument("unknown GeneratorBackend value");
}

void generate_fgn(GeneratorBackend backend, double hurst, std::span<double> out, Rng& rng,
                  Workspace& workspace) {
  VBR_ENSURE(hurst > 0.0 && hurst < 1.0, "H must be in (0, 1)");
  switch (backend) {
    case GeneratorBackend::kDaviesHarte:
      davies_harte(out, davies_harte_options(hurst, 1.0), rng, workspace);
      return;
    case GeneratorBackend::kPaxson:
      paxson_fgn(out, PaxsonOptions{.hurst = hurst}, rng, workspace);
      return;
    default: {
      const auto x = make_fgn_generator(backend, hurst)->generate(out.size(), rng);
      std::copy(x.begin(), x.end(), out.begin());
    }
  }
}

std::unique_ptr<FgnGenerator> make_fgn_generator(std::string_view name, double hurst,
                                                 double variance) {
  VBR_ENSURE(hurst > 0.0 && hurst < 1.0, "H must be in (0, 1)");
  return make_fgn_generator(generator_backend_from_name(name), hurst, variance);
}

GeneratorBackend generator_backend_from_name(std::string_view name) {
  if (name == "davies-harte") return GeneratorBackend::kDaviesHarte;
  if (name == "hosking") return GeneratorBackend::kHosking;
  if (name == "paxson") return GeneratorBackend::kPaxson;
  if (name == "onoff") return GeneratorBackend::kAggregatedOnOff;
  throw InvalidArgument("unknown generator name: \"" + std::string(name) +
                        "\" (expected davies-harte, hosking, paxson, or onoff)");
}

const char* generator_backend_name(GeneratorBackend backend) {
  switch (backend) {
    case GeneratorBackend::kDaviesHarte:
      return "davies-harte";
    case GeneratorBackend::kHosking:
      return "hosking";
    case GeneratorBackend::kPaxson:
      return "paxson";
    case GeneratorBackend::kAggregatedOnOff:
      return "onoff";
  }
  throw InvalidArgument("unknown GeneratorBackend value");
}

std::vector<std::string> fgn_generator_names() {
  return {"davies-harte", "hosking", "paxson", "onoff"};
}

}  // namespace vbr::model
