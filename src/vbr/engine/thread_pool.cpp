#include "vbr/engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
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

namespace {

/// The lowest-index failure of a task set. Keeping every failure's index
/// (instead of draining the queue on the first) makes the rethrown exception
/// a pure function of the task set: whichever thread interleaving occurs,
/// the error reported is always the lowest-index one.
class LowestIndexError {
 public:
  explicit LowestIndexError(std::size_t count) : index_(count) {}

  void record(std::size_t i, std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (i < index_) {
      index_ = i;
      error_ = std::move(error);
    }
  }

  /// Called after every worker has joined.
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mutex_;
  std::size_t index_;
  std::exception_ptr error_;
};

}  // namespace

void parallel_for_index(std::size_t count, std::size_t threads,
                        const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  threads = std::min(resolve_thread_count(threads), count);

  std::atomic<std::size_t> next{0};
  LowestIndexError error(count);
  const auto worker = [&](std::size_t slot) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i, slot);
      } catch (...) {
        error.record(i, std::current_exception());
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);  // the calling thread is worker 0
  for (auto& t : pool) t.join();
  error.rethrow();
}

void parallel_for_ordered(std::size_t count, std::size_t threads,
                          const std::function<void(std::size_t, std::size_t)>& fn,
                          const std::function<void(std::size_t)>& commit) {
  if (count == 0) return;
  threads = std::min(resolve_thread_count(threads), count);

  LowestIndexError error(count);
  const auto ran = [&](std::size_t i, std::size_t slot) {
    try {
      fn(i, slot);
      return true;
    } catch (...) {
      error.record(i, std::current_exception());
      return false;
    }
  };
  const auto committed = [&](std::size_t i) {
    try {
      commit(i);
      return true;
    } catch (...) {
      error.record(i, std::current_exception());
      return false;
    }
  };

  if (threads == 1) {
    bool committing = true;
    for (std::size_t i = 0; i < count; ++i) {
      committing = ran(i, 0) && committing && committed(i);
    }
    error.rethrow();
    return;
  }

  enum class Task : std::uint8_t { kPending, kDone, kFailed };
  std::vector<Task> tasks(count, Task::kPending);  // guarded by `mutex`
  std::mutex mutex;
  std::condition_variable finished;
  std::atomic<std::size_t> next{0};
  // noexcept: `ran` reports fn's exceptions; nothing else here throws.
  const auto worker = [&](std::size_t slot) noexcept {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      const Task outcome = ran(i, slot) ? Task::kDone : Task::kFailed;
      {
        std::lock_guard<std::mutex> lock(mutex);
        tasks[i] = outcome;
      }
      finished.notify_one();  // the committer is the only waiter
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  // The calling thread commits, asleep whenever the next index is not done.
  for (std::size_t i = 0; i < count; ++i) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      finished.wait(lock, [&] { return tasks[i] != Task::kPending; });
      if (tasks[i] == Task::kFailed) break;
    }
    if (!committed(i)) break;
  }
  for (auto& t : pool) t.join();
  error.rethrow();
}

}  // namespace vbr::engine
