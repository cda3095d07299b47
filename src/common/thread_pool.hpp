// Persistent worker pool with a deterministic parallel-for.
//
// Design constraints, in priority order:
//  1. Bitwise reproducibility at any thread count. parallel_for splits
//     [begin, end) into fixed-size blocks whose boundaries depend only on
//     `grain` — never on the number of workers — and every block is
//     processed exactly once by exactly one thread. Kernels that keep each
//     block's arithmetic self-contained (all of ours do) therefore produce
//     identical bits whether the pool has 1 or 64 threads.
//  2. No per-call thread spawn. Workers are started once and parked on a
//     condition variable; a parallel_for wakes them, the calling thread
//     works too, and everyone races down a shared atomic block counter.
//  3. Graceful degradation. Nested parallel_for calls (a threaded kernel
//     calling another threaded kernel) and single-thread pools run the
//     loop inline on the caller — no deadlock, no oversubscription.
//
// Thread count resolution: GBO_NUM_THREADS env var if set (>= 1),
// otherwise std::thread::hardware_concurrency(). Tests and benches can
// override at runtime with set_num_threads().
#pragma once

#include "common/function_ref.hpp"

#include <cstddef>

namespace gbo {

class ThreadPool {
 public:
  /// The process-wide pool. Lazily constructed on first use; workers are
  /// joined at process exit.
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  /// Resizes the worker set (joins the old workers first). Intended for
  /// tests and benches; callers must not race this with parallel_for.
  void set_num_threads(std::size_t n);

  /// Stable integer id of the calling thread within the pool: 0 for the
  /// main/calling thread (which participates in every job) and any thread
  /// the pool does not own, 1..n-1 for the spawned workers. Ids survive
  /// parking between jobs; set_num_threads reassigns them. Trace events
  /// and the Perfetto export use this as the thread track.
  static unsigned current_worker_id();

  /// Runs fn(lo, hi) over a deterministic partition of [begin, end) into
  /// blocks of `grain` (the final block may be short). Blocks are claimed
  /// dynamically by the workers and the calling thread; the call returns
  /// once every block has finished. The first exception thrown by any
  /// block is rethrown on the caller. Neither `fn` (a non-owning
  /// reference) nor the dispatch itself touches the heap.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    FunctionRef<void(std::size_t, std::size_t)> fn);

 private:
  ThreadPool();
  struct Impl;
  Impl* impl_;
  std::size_t num_threads_ = 1;
};

/// Convenience wrapper over ThreadPool::instance().parallel_for.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  FunctionRef<void(std::size_t, std::size_t)> fn);

}  // namespace gbo
