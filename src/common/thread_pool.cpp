#include "common/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace gbo {

namespace {

// True while the current thread is executing blocks of a parallel_for;
// nested calls run inline to avoid deadlocking on the single shared job.
thread_local bool in_parallel_region = false;

// Stable id of this thread within the pool: 0 for the caller/main thread,
// 1..n-1 for spawned workers (assigned at spawn, reassigned on resize).
thread_local unsigned pool_worker_id = 0;

void name_current_thread(unsigned id) {
#if defined(__linux__)
  char name[16];  // pthread limit incl. NUL
  std::snprintf(name, sizeof(name), "gbo-pool-%u", id);
  pthread_setname_np(pthread_self(), name);
#else
  (void)id;
#endif
}

std::size_t default_num_threads() {
  if (const char* env = std::getenv("GBO_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

using BlockFn = FunctionRef<void(std::size_t, std::size_t)>;

void run_serial(std::size_t begin, std::size_t end, std::size_t grain,
                BlockFn fn) {
  for (std::size_t lo = begin; lo < end; lo += grain)
    fn(lo, lo + grain < end ? lo + grain : end);
}

// One parallel_for invocation, living on the caller's stack. Immutable
// after construction except for the claim/progress atomics and the
// `attached` count (guarded by the pool mutex): a worker attaches while the
// job is published and detaches when its blocks are done, and the caller
// unpublishes the job only once every block has finished and no worker is
// attached — so no worker can touch the job after parallel_for returns.
struct Job {
  Job(std::uint64_t id_, BlockFn fn_, std::size_t begin_, std::size_t end_,
      std::size_t grain_, std::size_t num_blocks_)
      : id(id_), fn(fn_), begin(begin_), end(end_), grain(grain_),
        num_blocks(num_blocks_) {}

  const std::uint64_t id;
  const BlockFn fn;
  const std::size_t begin, end, grain, num_blocks;

  std::atomic<std::size_t> next_block{0};
  std::atomic<std::size_t> blocks_done{0};
  std::size_t attached = 0;  // workers inside run_blocks; guarded by Impl::mu
  std::mutex err_mu;
  std::exception_ptr first_error;  // guarded by err_mu
};

// Claims and runs blocks until the job's counter is exhausted.
void run_blocks(Job& job) {
  in_parallel_region = true;
  std::size_t completed = 0;
  for (;;) {
    const std::size_t b = job.next_block.fetch_add(1, std::memory_order_relaxed);
    if (b >= job.num_blocks) break;
    const std::size_t lo = job.begin + b * job.grain;
    const std::size_t hi = lo + job.grain < job.end ? lo + job.grain : job.end;
    try {
      job.fn(lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.err_mu);
      if (!job.first_error) job.first_error = std::current_exception();
    }
    ++completed;
  }
  in_parallel_region = false;
  job.blocks_done.fetch_add(completed, std::memory_order_acq_rel);
}

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   // workers wait here for a job
  std::condition_variable done_cv;   // the caller waits here for completion
  std::vector<std::thread> workers;
  Job* current = nullptr;            // guarded by mu
  std::uint64_t next_job_id = 1;
  bool shutting_down = false;

  // Serializes concurrent parallel_for callers (one job at a time).
  std::mutex job_mu;

  void worker_loop() {
    std::uint64_t seen_id = 0;
    for (;;) {
      Job* job;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [&] {
          return shutting_down || (current && current->id != seen_id);
        });
        if (shutting_down) return;
        job = current;
        seen_id = job->id;
        ++job->attached;
      }
      run_blocks(*job);
      {
        std::lock_guard<std::mutex> lock(mu);
        --job->attached;
      }
      done_cv.notify_all();
    }
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lock(mu);
      shutting_down = true;
    }
    work_cv.notify_all();
    for (std::thread& t : workers) t.join();
    workers.clear();
    {
      std::lock_guard<std::mutex> lock(mu);
      shutting_down = false;
    }
  }
};

ThreadPool::ThreadPool() : impl_(new Impl) {
  set_num_threads(default_num_threads());
}

ThreadPool::~ThreadPool() {
  impl_->stop_workers();
  delete impl_;
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::set_num_threads(std::size_t n) {
  if (n < 1) n = 1;
  std::lock_guard<std::mutex> job_lock(impl_->job_mu);  // no job in flight
  impl_->stop_workers();
  // The caller participates in every job, so a pool of n threads runs n-1
  // dedicated workers.
  num_threads_ = n;
  impl_->workers.reserve(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i)
    impl_->workers.emplace_back([this, i] {
      pool_worker_id = static_cast<unsigned>(i + 1);
      name_current_thread(pool_worker_id);
      impl_->worker_loop();
    });
}

unsigned ThreadPool::current_worker_id() { return pool_worker_id; }

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain, BlockFn fn) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  const std::size_t num_blocks = (end - begin + grain - 1) / grain;
  if (num_threads_ == 1 || num_blocks == 1 || in_parallel_region) {
    run_serial(begin, end, grain, fn);
    return;
  }

  std::lock_guard<std::mutex> job_lock(impl_->job_mu);
  Job job(impl_->next_job_id++, fn, begin, end, grain, num_blocks);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->current = &job;
  }
  impl_->work_cv.notify_all();
  run_blocks(job);  // the caller works too

  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->done_cv.wait(lock, [&] {
      return job.attached == 0 &&
             job.blocks_done.load(std::memory_order_acquire) == num_blocks;
    });
    impl_->current = nullptr;
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  BlockFn fn) {
  ThreadPool::instance().parallel_for(begin, end, grain, fn);
}

}  // namespace gbo
