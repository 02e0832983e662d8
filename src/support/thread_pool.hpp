#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace microtools::threads {

/// Fixed-size worker pool with stable worker indices.
///
/// Every task receives the index (in [0, workers())) of the worker that runs
/// it, so callers can give each worker exclusive, lock-free state — the
/// campaign runner uses this to hand every worker its own Backend instance
/// and (natively) its own pinned core. Tasks must handle their own domain
/// errors; an exception escaping a task is logged and swallowed so one bad
/// task cannot take the pool down.
class ThreadPool {
 public:
  /// Spawns `workers` threads; throws McError when workers < 1.
  explicit ThreadPool(int workers);

  /// Drains the queue (runs every already-submitted task), then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task; throws McError after shutdown began.
  void submit(std::function<void(int workerIndex)> task);

  /// Blocks until the queue is empty and every worker is idle.
  void wait();

 private:
  void workerLoop(int index);

  std::mutex mutex_;
  std::condition_variable taskReady_;
  std::condition_variable allIdle_;
  std::deque<std::function<void(int)>> queue_;
  std::vector<std::thread> threads_;
  int active_ = 0;
  bool stop_ = false;
};

}  // namespace microtools::threads
