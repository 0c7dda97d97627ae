// Run-time instruction-set selection for the kernels whose bits are pinned
// per ISA (the lockstep Hosking kernel, StreamingAcf's lag loop).
//
// Each such kernel is one template compiled twice: for the baseline ISA and,
// inside a function with a target("avx2") attribute, for AVX2. Both
// instances perform the same IEEE operations in the same order per output
// (-ffp-contract=off keeps every product rounded before it is added), so
// the ISA changes the speed and never a bit. This file is the one place
// that asks the host what it runs.
#pragma once

#include <cstdint>

namespace vbr {

/// Instruction sets the per-ISA kernels are compiled for.
enum class KernelIsa : std::uint8_t { kBaseline, kAvx2 };

/// "baseline" or "avx2".
const char* kernel_isa_name(KernelIsa isa);
/// True when this host can run `isa`'s kernels.
bool kernel_isa_supported(KernelIsa isa);
/// The instance every kernel runs in this process: AVX2 where the host has
/// it, picked once.
KernelIsa active_kernel_isa();

}  // namespace vbr
