#include "vbr/common/isa.hpp"

namespace vbr {

const char* kernel_isa_name(KernelIsa isa) {
  return isa == KernelIsa::kAvx2 ? "avx2" : "baseline";
}

bool kernel_isa_supported(KernelIsa isa) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (isa == KernelIsa::kAvx2) return __builtin_cpu_supports("avx2") != 0;
#endif
  return isa == KernelIsa::kBaseline;
}

KernelIsa active_kernel_isa() {
  static const KernelIsa isa =
      kernel_isa_supported(KernelIsa::kAvx2) ? KernelIsa::kAvx2 : KernelIsa::kBaseline;
  return isa;
}

}  // namespace vbr
