#include "dtnsim/sweep/pool.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>

namespace dtnsim::sweep {
namespace {

thread_local bool t_on_worker = false;

}  // namespace

int resolve_jobs(int jobs) {
  if (jobs == 0) {
    // hardware_concurrency() counts every CPU of the machine, including the
    // ones taskset or a cpuset forbid this process to use.
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
      return std::max(CPU_COUNT(&mask), 1);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }
  return std::max(jobs, 1);
}

bool on_worker_thread() { return t_on_worker; }

WorkerPool::WorkerPool(int jobs) : jobs_(resolve_jobs(jobs)) {
  if (jobs_ <= 1) return;  // inline mode: no threads
  threads_.reserve(static_cast<std::size_t>(jobs_));
  for (int i = 0; i < jobs_; ++i) threads_.emplace_back([this] { worker_loop(); });
}

WorkerPool::~WorkerPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::run_job(std::function<void()>& job) {
  // Wall-clock feeds the busy-seconds gauge only, never results.
  const auto start = std::chrono::steady_clock::now();  // dtnsim-lint: allow(determinism)
  std::exception_ptr error;
  try {
    job();
  } catch (...) {
    error = std::current_exception();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -  // dtnsim-lint: allow(determinism)
                                    start)
          .count();
  std::unique_lock<std::mutex> lock(mu_);
  busy_sec_ += elapsed;
  if (error && !first_error_) first_error_ = error;
}

void WorkerPool::submit(std::function<void()> job) {
  if (jobs_ <= 1) {
    // Serial reference path: run right here, no queue, no threads. Errors
    // still surface from wait() so both modes behave identically.
    run_job(job);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void WorkerPool::wait() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return in_flight_ == 0; });
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

double WorkerPool::busy_sec() const {
  std::unique_lock<std::mutex> lock(mu_);
  return busy_sec_;
}

void WorkerPool::worker_loop() {
  t_on_worker = true;
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    run_job(job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& task) {
  WorkerPool pool(jobs);
  for (std::size_t i = 0; i < n; ++i) pool.submit([&task, i] { task(i); });
  pool.wait();
}

}  // namespace dtnsim::sweep
