// Minimal fixed-size fork/join parallelism for the generation engine.
//
// Deliberately work-stealing-free: a task set is a contiguous index range
// and every worker pulls the next index from one atomic counter. Because
// each index owns a disjoint output slot and carries its own pre-derived
// Rng stream, the assignment of indices to OS threads — which *is*
// nondeterministic — cannot affect the results, only the wall time.
#pragma once

#include <cstddef>
#include <functional>

namespace vbr::engine {

/// Clamp a requested worker count: 0 means "use hardware concurrency",
/// anything else is taken literally. Always returns >= 1.
std::size_t resolve_thread_count(std::size_t requested);

/// Run fn(i, worker) for every i in [0, count) across `threads` OS threads
/// (the calling thread counts as one of them, so `threads == 1` never
/// spawns). `worker` < min(threads, count) names the thread running the
/// call, and no two calls with the same worker overlap, so per-worker
/// scratch indexed by it needs no lock; which worker gets which i is
/// scheduling, so results must not depend on it. fn must only write to
/// state that no other invocation writes, or to its worker's scratch.
/// Index claims are relaxed: they order nothing. If any invocation throws,
/// every remaining index still runs (so the set of observed failures does
/// not depend on scheduling), all workers are joined, and the exception from
/// the *lowest-index* failing task is rethrown on the calling thread —
/// deterministic by task index, not by completion order. Exceptions from
/// higher-index tasks are discarded, never silently swallowed mid-run.
void parallel_for_index(std::size_t count, std::size_t threads,
                        const std::function<void(std::size_t, std::size_t)>& fn);

/// parallel_for_index with an in-order hand-off: fn(i, worker) runs for every
/// i on `threads` spawned workers while the calling thread runs commit(i) in
/// index order, each as soon as fn(0..i) have all returned. So commit(i)
/// overlaps fn(j) for j > i, and anything commit reads of what fn(i) wrote
/// is ordered by the hand-off; commit may write state fn never touches.
/// `threads == 1` spawns nothing: the calling thread runs fn(i) then
/// commit(i) in turn (forked sweep cells rely on that).
/// Commits stop before the first i whose fn threw and after a commit that
/// threw; every fn still runs. After the workers join, the lowest-index
/// exception from either side is rethrown (a commit error at i always
/// precedes any fn error, since commit(i) runs only after fn(0..i)
/// succeeded).
void parallel_for_ordered(std::size_t count, std::size_t threads,
                          const std::function<void(std::size_t, std::size_t)>& fn,
                          const std::function<void(std::size_t)>& commit);

}  // namespace vbr::engine
