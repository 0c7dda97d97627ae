// vbr-analyze-fixture: src/vbr/common/isa.cpp
// The one home of the CPU feature query stays silent.
namespace vbr {

bool host_has_avx2() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace vbr
