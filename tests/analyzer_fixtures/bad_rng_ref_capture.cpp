// vbr-analyze-fixture: src/vbr/engine/fixture_rng_ref_capture.cpp
// One Rng shared by reference across pool tasks makes draw order depend on
// thread scheduling — the determinism contract (bit-identical traces for
// any thread count) dies here.
#include <cstddef>

namespace vbr {
class Rng {
 public:
  double uniform();
  Rng split(std::size_t stream) const;
};

void parallel_for_index(std::size_t count, std::size_t threads, auto body);
void parallel_for_ordered(std::size_t count, std::size_t threads, auto body, auto commit);

void shuffle_all(std::size_t count, std::size_t threads) {
  Rng rng = Rng();
  parallel_for_index(count, threads, [&rng](std::size_t i) {  // VIOLATION(vbr-rng-discipline)
    (void)i;
    (void)rng.uniform();
  });
}

// The ordered pool's tasks run on pool threads too; its commit runs on the
// calling thread in index order, so a shared stream there stays
// deterministic and is not flagged.
void shuffle_in_order(std::size_t count, std::size_t threads) {
  Rng rng = Rng();
  parallel_for_ordered(
      count, threads,
      [&rng](std::size_t i) {  // VIOLATION(vbr-rng-discipline)
        (void)i;
        (void)rng.uniform();
      },
      [&rng](std::size_t i) {
        (void)i;
        (void)rng.uniform();
      });
}

}  // namespace vbr
