// vbr-analyze-fixture: src/vbr/model/fixture_isa_third_file.cpp
// target("avx2") is allowed in the two kernel files whose per-ISA bits are
// pinned; a third file, even with the very same attribute, still trips.
namespace vbr::model {

[[gnu::target("avx2")]] double twice(double x) { return x + x; }  // VIOLATION(vbr-isa-dispatch)

}  // namespace vbr::model
