// A small persistent worker pool for the saturation lanes
// (transform/saturation.cc, SaturationOptions::num_threads).
//
// Each saturation round has a natural barrier: every task derives
// against the same immutable snapshot of the closure, and derived rules
// only become visible when the round's buffers merge. The pool runs one
// task per unit of work; the caller's thread participates, so a pool
// built for `num_threads` spawns num_threads - 1 workers.
#ifndef GEREL_TRANSFORM_PARALLEL_H_
#define GEREL_TRANSFORM_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gerel {

class WorkerPool {
 public:
  // A pool of `num_threads` total lanes (including the calling thread);
  // values <= 1 spawn no workers and RunIndexed degenerates to a serial
  // loop.
  explicit WorkerPool(size_t num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs fn(i, lane) for every task i in [0, num_tasks), distributed
  // over the pool plus the calling thread; returns when all calls
  // finished. `lane` is the executing lane index in [0, num_threads());
  // the calling thread is lane 0. Each lane runs at most one task at a
  // time, so per-lane scratch needs no locking. `fn` must be safe to
  // invoke concurrently for distinct i. Not reentrant.
  void RunIndexed(size_t num_tasks,
                  const std::function<void(size_t, size_t)>& fn);

  size_t num_threads() const { return threads_.size() + 1; }

 private:
  void WorkerLoop(size_t lane);
  // Claims tasks off next_ until the batch is exhausted.
  void Drain(size_t lane);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  // Current batch (task index, lane index).
  const std::function<void(size_t, size_t)>* fn_ = nullptr;
  size_t num_tasks_ = 0;
  std::atomic<size_t> next_{0};
  size_t active_ = 0;        // Workers still draining the current batch.
  uint64_t generation_ = 0;  // Bumped per Run to wake the workers.
  bool stop_ = false;
};

}  // namespace gerel

#endif  // GEREL_TRANSFORM_PARALLEL_H_
