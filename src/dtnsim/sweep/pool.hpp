// Fixed-size worker pool — the campaign engine's execution substrate and the
// repo's first real multithreading.
//
// Design rules that keep parallel sweeps byte-identical to serial ones:
//   - the pool runs *independent* simulations: every cell owns its Rng, its
//     engine and its telemetry; nothing is shared between jobs but the queue.
//   - callers write results back by index into pre-sized storage, so output
//     order never depends on completion order.
//   - jobs <= 1 runs every job inline on the calling thread: the serial path
//     spawns no threads at all and is the reference behaviour.
//   - pools never nest: a job running on a pool worker sees
//     on_worker_thread() == true, and harness::run_test then runs its
//     repeats inline instead of starting a pool of its own. Inline jobs
//     (jobs <= 1) run on the caller's thread and leave the flag as it is.
//
// This component is deliberately generic (std::function jobs, no harness
// types) so it can sit *below* harness in the module layering: the sweep
// campaign engine drives it from above, and harness::run_tests delegates to
// it from below.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include <condition_variable>

namespace dtnsim::sweep {

// Resolve a --jobs value: 0 means one worker per CPU the calling thread may
// run on (its affinity mask, so taskset and cpusets are honoured), anything
// else clamps to at least 1.
int resolve_jobs(int jobs);

// True on a WorkerPool worker thread (for the whole of its life), false on
// every other thread. Lets a job refrain from starting a nested pool.
bool on_worker_thread();

class WorkerPool {
 public:
  // `jobs` is resolved via resolve_jobs(); with a resolved value of 1 the
  // pool is inline (submit() runs the job on the calling thread).
  explicit WorkerPool(int jobs = 1);
  ~WorkerPool();  // drains the queue, then joins

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int jobs() const { return jobs_; }

  // Enqueue a job. Jobs must be independent of each other; they may run in
  // any order and on any worker.
  void submit(std::function<void()> job);

  // Block until every submitted job has finished. Rethrows the first
  // exception any job raised (remaining jobs still run to completion, so
  // index-addressed result storage stays consistent).
  void wait();

  // Total time workers spent inside jobs, for the sweep.worker_occupancy
  // metric. Stable only after wait().
  double busy_sec() const;

 private:
  void worker_loop();
  void run_job(std::function<void()>& job);

  int jobs_ = 1;
  std::vector<std::thread> threads_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: queue non-empty or stopping
  std::condition_variable done_cv_;   // waiters: everything drained
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // queued + currently running
  bool stopping_ = false;
  std::exception_ptr first_error_;
  double busy_sec_ = 0.0;
};

// Convenience: run task(i) for every i in [0, n) on `jobs` workers and block
// until all complete. The canonical "write results by index" loop.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& task);

}  // namespace dtnsim::sweep
