// bench_generator_pareto: map the generator zoo onto the speed/fidelity
// Pareto front, emitted as JSON for dashboards/CI.
//
// Every registered generator (fgn_generator.hpp) is measured on four axes:
//
//   * throughput — median-of-k cold-cache generation time for one 2^17-frame
//     source (every process-wide cache — Davies-Harte eigenvalues, Paxson
//     spectrum, the FFT's unpack tables — is dropped before each rep, and the
//     reps of all generators are interleaved so slow drift in a noisy
//     container biases no one); warm-cache medians ride along
//   * Hurst fidelity — Whittle H-hat at H in {0.6, 0.75, 0.9}, each judged
//     under the generator's own covariance family (farima_covariance())
//   * marginal — Kolmogorov-Smirnov distance of the raw output against a
//     zero-mean Normal at the sample's own scale
//   * ACF — RMS error over lags 1..64 against the family's exact ACF
//
// all through stats/lrd_fidelity.hpp, i.e. the repo's own estimators.
// Hosking is exact but O(n^2), so it is timed and judged at a reduced
// length (recorded in the JSON) rather than dropped.
//
// At full scale (frames >= 2^17) two acceptance constraints are ENFORCED
// with a nonzero exit: Paxson must beat exact Davies-Harte by >= 2x on the
// cold-cache median, and Paxson's Whittle H-hat must stay within +/- 0.04 of
// the target at all three H values. Both generators run on one irfft;
// Paxson transforms n points and draws n - 1 normals, Davies-Harte
// transforms 2n and draws 2n, so 2x is the ratio of their work (DESIGN §10). Reduced smoke runs (smaller argv sizes)
// skip enforcement but still emit the full JSON shape.
//
// Usage:
//   ./bench_generator_pareto [frames] [reps] [fidelity_frames]
// Defaults: 131072 frames, 15 reps, 65536 fidelity frames.
#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "vbr/model/davies_harte.hpp"
#include "vbr/model/fgn_acf.hpp"
#include "vbr/model/fgn_generator.hpp"
#include "vbr/model/paxson_fgn.hpp"
#include "vbr/stats/lrd_fidelity.hpp"

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int len = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (len > 0) out.append(buf, std::min(static_cast<std::size_t>(len), sizeof buf - 1));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Each generator's clear also drops the FFT unpack tables, so every cold rep
// rebuilds its own amplitudes or eigenvalues and its unpack table.
void drop_all_caches() {
  vbr::model::davies_harte_cache_clear();
  vbr::model::paxson_spectrum_cache_clear();
}

struct FidelityRow {
  double target = 0.0;
  vbr::stats::LrdFidelityReport report;
};

struct GeneratorRecord {
  std::string name;
  bool exact = false;
  bool farima = false;
  std::size_t timing_frames = 0;
  std::size_t fidelity_frames = 0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  std::vector<FidelityRow> fidelity;
  double max_whittle_error = 0.0;
  double max_gaussian_ks = 0.0;
  double max_acf_rms = 0.0;
  bool pareto_optimal = true;
};

/// a dominates b: no worse on every axis, strictly better on at least one.
bool dominates(const GeneratorRecord& a, const GeneratorRecord& b) {
  const double ax[4] = {a.cold_ms * static_cast<double>(b.timing_frames) /
                            static_cast<double>(a.timing_frames),
                        a.max_whittle_error, a.max_gaussian_ks, a.max_acf_rms};
  const double bx[4] = {b.cold_ms, b.max_whittle_error, b.max_gaussian_ks, b.max_acf_rms};
  bool strictly = false;
  for (int i = 0; i < 4; ++i) {
    if (ax[i] > bx[i]) return false;
    if (ax[i] < bx[i]) strictly = true;
  }
  return strictly;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t frames = (argc > 1) ? std::strtoull(argv[1], nullptr, 10) : 131072;
  const std::size_t reps = (argc > 2) ? std::strtoull(argv[2], nullptr, 10) : 15;
  const std::size_t fidelity_frames =
      (argc > 3) ? std::strtoull(argv[3], nullptr, 10) : 65536;
  // Hosking's O(n^2) recursion would take minutes at 2^17; judge it at a
  // reduced, recorded length instead of dropping the only O(n^2)-exact
  // reference from the front.
  const std::size_t hosking_cap = 8192;
  const bool enforce = frames >= 131072;
  const double timing_hurst = 0.8;
  const std::vector<double> targets = {0.6, 0.75, 0.9};
  constexpr double kWhittleTolerance = 0.04;
  constexpr double kMinPaxsonSpeedup = 2.0;

  vbrbench::print_exhibit_header(
      "Generator Pareto", "speed vs fidelity front over the fGn generator zoo");

  std::vector<GeneratorRecord> records;
  for (const auto& name : vbr::model::fgn_generator_names()) {
    GeneratorRecord rec;
    rec.name = name;
    const auto probe = vbr::model::make_fgn_generator(name, timing_hurst);
    rec.exact = probe->exact();
    rec.farima = probe->farima_covariance();
    rec.timing_frames = name == "hosking" ? std::min(frames, hosking_cap) : frames;
    rec.fidelity_frames =
        name == "hosking" ? std::min(fidelity_frames, hosking_cap) : fidelity_frames;
    records.push_back(std::move(rec));
  }

  // Timing: all generators' rep r runs back-to-back before any rep r+1, so
  // machine-load drift hits every generator equally instead of whichever
  // one happened to run last.
  std::vector<std::vector<double>> cold(records.size()), warm(records.size());
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t g = 0; g < records.size(); ++g) {
      const auto gen = vbr::model::make_fgn_generator(records[g].name, timing_hurst);
      drop_all_caches();
      vbr::Rng rng(0x9e3779b9 + r * 131 + g);
      const auto t0 = std::chrono::steady_clock::now();
      auto x = gen->generate(records[g].timing_frames, rng);
      const auto t1 = std::chrono::steady_clock::now();
      if (x.empty()) return EXIT_FAILURE;  // keep the generation observable
      cold[g].push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t g = 0; g < records.size(); ++g) {
      const auto gen = vbr::model::make_fgn_generator(records[g].name, timing_hurst);
      vbr::Rng rng(0x51ed2701 + r * 131 + g);
      if (r == 0) (void)gen->generate(records[g].timing_frames, rng);  // prime caches
      const auto t0 = std::chrono::steady_clock::now();
      auto x = gen->generate(records[g].timing_frames, rng);
      const auto t1 = std::chrono::steady_clock::now();
      if (x.empty()) return EXIT_FAILURE;
      warm[g].push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  for (std::size_t g = 0; g < records.size(); ++g) {
    records[g].cold_ms = median(cold[g]);
    records[g].warm_ms = median(warm[g]);
  }

  // Fidelity: one realization per (generator, H), judged under the
  // generator's own covariance family.
  for (auto& rec : records) {
    for (const double target : targets) {
      const auto gen = vbr::model::make_fgn_generator(rec.name, target);
      vbr::Rng rng(1994 + static_cast<std::uint64_t>(target * 1000));
      const auto x = gen->generate(rec.fidelity_frames, rng);
      vbr::stats::LrdFidelityOptions options;
      options.spectral_model = rec.farima ? vbr::stats::SpectralModel::kFarima
                                          : vbr::stats::SpectralModel::kFgn;
      const auto acf = rec.farima ? vbr::model::farima_acf(target, options.acf_lags)
                                  : vbr::model::fgn_acf(target, options.acf_lags);
      FidelityRow row;
      row.target = target;
      row.report = vbr::stats::judge_lrd_fidelity(x, target, acf, options);
      rec.max_whittle_error = std::max(rec.max_whittle_error, row.report.whittle_error);
      rec.max_gaussian_ks = std::max(rec.max_gaussian_ks, row.report.gaussian_ks);
      rec.max_acf_rms = std::max(rec.max_acf_rms, row.report.acf_rms_error);
      rec.fidelity.push_back(row);
    }
  }

  for (auto& rec : records) {
    for (const auto& other : records) {
      if (&other != &rec && dominates(other, rec)) rec.pareto_optimal = false;
    }
  }

  std::printf("\n  %-13s %10s %10s %8s %8s %8s %7s\n", "generator", "cold ms",
              "warm ms", "maxdH", "maxKS", "maxACF", "pareto");
  for (const auto& rec : records) {
    std::printf("  %-13s %10.3f %10.3f %8.4f %8.4f %8.4f %7s\n", rec.name.c_str(),
                rec.cold_ms, rec.warm_ms, rec.max_whittle_error, rec.max_gaussian_ks,
                rec.max_acf_rms, rec.pareto_optimal ? "yes" : "no");
  }

  const auto find = [&](const char* name) -> const GeneratorRecord& {
    for (const auto& rec : records) {
      if (rec.name == name) return rec;
    }
    std::fprintf(stderr, "generator %s missing from registry\n", name);
    std::exit(EXIT_FAILURE);
  };
  const GeneratorRecord& dh = find("davies-harte");
  const GeneratorRecord& paxson = find("paxson");
  const double speedup = paxson.cold_ms > 0.0 ? dh.cold_ms / paxson.cold_ms : 0.0;
  const bool speedup_ok = speedup >= kMinPaxsonSpeedup;
  const bool whittle_ok = paxson.max_whittle_error <= kWhittleTolerance;
  std::printf("\n  paxson vs davies-harte cold speedup: %.2fx (need >= %.1fx)%s\n",
              speedup, kMinPaxsonSpeedup,
              enforce ? "" : "  [not enforced at reduced scale]");
  std::printf("  paxson max |H-hat - H|: %.4f (need <= %.2f)\n", paxson.max_whittle_error,
              kWhittleTolerance);

  std::string json = "{\n";
  appendf(json, "  \"bench\": \"generator_pareto\",\n");
  appendf(json, "  \"contracts\": \"%s\",\n", vbrbench::contracts_state());
  appendf(json, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
  appendf(json, "  \"frames\": %zu,\n  \"reps\": %zu,\n  \"fidelity_frames\": %zu,\n",
          frames, reps, fidelity_frames);
  appendf(json, "  \"timing_hurst\": %.2f,\n", timing_hurst);
  appendf(json, "  \"generators\": [\n");
  for (std::size_t g = 0; g < records.size(); ++g) {
    const auto& rec = records[g];
    appendf(json, "    {\"name\": \"%s\", \"exact\": %s, \"covariance\": \"%s\",\n",
            rec.name.c_str(), rec.exact ? "true" : "false",
            rec.farima ? "farima" : "fgn");
    appendf(json,
            "     \"timing_frames\": %zu, \"fidelity_frames\": %zu,\n"
            "     \"cold_ms_median\": %.4f, \"warm_ms_median\": %.4f,\n"
            "     \"frames_per_second_cold\": %.0f,\n",
            rec.timing_frames, rec.fidelity_frames, rec.cold_ms, rec.warm_ms,
            1000.0 * static_cast<double>(rec.timing_frames) / rec.cold_ms);
    appendf(json, "     \"fidelity\": [\n");
    for (std::size_t i = 0; i < rec.fidelity.size(); ++i) {
      const auto& row = rec.fidelity[i];
      appendf(json,
              "       {\"target_hurst\": %.2f, \"whittle_hurst\": %.4f, "
              "\"vt_hurst\": %.4f, \"gaussian_ks\": %.5f, \"acf_rms_error\": %.5f, "
              "\"sample_variance\": %.4f}%s\n",
              row.target, row.report.whittle_hurst, row.report.vt_hurst,
              row.report.gaussian_ks, row.report.acf_rms_error,
              row.report.sample_variance, i + 1 < rec.fidelity.size() ? "," : "");
    }
    appendf(json, "     ],\n");
    appendf(json,
            "     \"max_whittle_error\": %.4f, \"max_gaussian_ks\": %.5f, "
            "\"max_acf_rms_error\": %.5f, \"pareto_optimal\": %s}%s\n",
            rec.max_whittle_error, rec.max_gaussian_ks, rec.max_acf_rms,
            rec.pareto_optimal ? "true" : "false",
            g + 1 < records.size() ? "," : "");
  }
  appendf(json, "  ],\n");
  appendf(json,
          "  \"constraints\": {\"enforced\": %s, \"paxson_speedup_min\": %.1f, "
          "\"paxson_cold_speedup\": %.3f, \"paxson_speedup_ok\": %s, "
          "\"whittle_tolerance\": %.2f, \"paxson_whittle_ok\": %s}\n",
          enforce ? "true" : "false", kMinPaxsonSpeedup, speedup,
          speedup_ok ? "true" : "false", kWhittleTolerance,
          whittle_ok ? "true" : "false");
  appendf(json, "}\n");
  std::fputs(json.c_str(), stdout);
  vbrbench::emit_bench_json("generator_pareto", json);

  if (enforce && !(speedup_ok && whittle_ok)) {
    std::fprintf(stderr, "FAIL: Pareto acceptance constraints violated\n");
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
