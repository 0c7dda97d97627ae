// vbr-analyze-fixture: src/vbr/stream/acf.cpp
// A pinned kernel file may hold target("avx2") instances, and nothing
// else of ISA dispatch: no CPU query (that is common/isa.cpp's), no other
// target, no target_clones.
#include <cstddef>

namespace vbr::stream {

[[gnu::target("avx2")]] double wide_sum(const double* x, std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total = total + x[i];
  return total;
}

[[gnu::target("avx512f")]] double wider_sum(const double* x, std::size_t n) {  // VIOLATION(vbr-isa-dispatch)
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total = total + x[i];
  return total;
}

[[gnu::target_clones("default", "avx2")]] double cloned_sum(const double* x, std::size_t n) {  // VIOLATION(vbr-isa-dispatch)
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total = total + x[i];
  return total;
}

bool wide() { return __builtin_cpu_supports("avx2"); }  // VIOLATION(vbr-isa-dispatch)

}  // namespace vbr::stream
