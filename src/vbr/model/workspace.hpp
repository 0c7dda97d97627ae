// Caller-owned scratch memory for the FFT generators.
#pragma once

#include <complex>
#include <vector>

namespace vbr::model {

/// The buffer that davies_harte(), paxson_fgn() and
/// VbrVideoSourceModel::generate() reuse across calls instead of
/// allocating per source. It grows to the largest shape it has served
/// and never shrinks, so once a workspace has served one generation
/// of a shape, the next one of that shape allocates nothing. Holds no state
/// between calls (the output never depends on which workspace is used), but
/// one call at a time: give each worker its own.
struct Workspace {
  /// The half-length spectrum; the real inverse FFT packs and transforms
  /// it in place.
  std::vector<std::complex<double>> spectrum;
};

}  // namespace vbr::model
