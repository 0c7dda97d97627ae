// vbr-analyze-fixture: src/vbr/engine/fixture_isa_dispatch.cpp
// Run-time instruction-set selection lives in common/isa.cpp, and per-ISA
// instances only in the kernels whose bits are pinned per ISA; a third
// file would hold a dispatch no test pins.
#include <cstddef>

namespace vbr::engine {

[[gnu::target("avx2")]]  // VIOLATION(vbr-isa-dispatch)
double wide_sum(const double* x, std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total = total + x[i];
  return total;
}

double plain_sum(const double* x, std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total = total + x[i];
  return total;
}

double dispatch_sum(const double* x, std::size_t n) {
  if (__builtin_cpu_supports("avx2")) return wide_sum(x, n);  // VIOLATION(vbr-isa-dispatch)
  return plain_sum(x, n);
}

}  // namespace vbr::engine
