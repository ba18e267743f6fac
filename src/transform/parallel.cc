#include "transform/parallel.h"

namespace gerel {

WorkerPool::WorkerPool(size_t num_threads) {
  size_t workers = num_threads > 1 ? num_threads - 1 : 0;
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Drain(size_t lane) {
  for (;;) {
    size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= num_tasks_) return;
    (*fn_)(i, lane);
  }
}

void WorkerPool::RunIndexed(size_t num_tasks,
                            const std::function<void(size_t, size_t)>& fn) {
  if (num_tasks == 0) return;
  if (threads_.empty()) {
    for (size_t i = 0; i < num_tasks; ++i) fn(i, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    num_tasks_ = num_tasks;
    next_.store(0, std::memory_order_relaxed);
    active_ = threads_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  Drain(0);  // The calling thread is lane 0 of the pool.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return active_ == 0; });
  fn_ = nullptr;
}

void WorkerPool::WorkerLoop(size_t lane) {
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock,
                     [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    Drain(lane);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace gerel
