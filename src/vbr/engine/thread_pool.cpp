#include "vbr/engine/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace vbr::engine {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void parallel_for_index(std::size_t count, std::size_t threads,
                        const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  threads = resolve_thread_count(threads);
  if (threads > count) threads = count;

  std::atomic<std::size_t> next{0};
  // Lowest failing task index + its exception. Letting the remaining indices
  // run (instead of draining the queue on first failure) makes the rethrown
  // exception a pure function of the task set: whichever thread interleaving
  // occurs, the error reported is always the lowest-index one. The old
  // drain-on-error fast path made error reporting scheduling-dependent and
  // silently dropped every exception after the first.
  std::size_t error_index = count;
  std::exception_ptr error;
  std::mutex error_mutex;

  const auto worker = [&](std::size_t slot) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i, slot);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);  // the calling thread is worker 0
  for (auto& t : pool) t.join();

  if (error) std::rethrow_exception(error);
}

}  // namespace vbr::engine
