#include "support/thread_pool.hpp"

#include "support/error.hpp"
#include "support/log.hpp"

namespace microtools::threads {

ThreadPool::ThreadPool(int workers) {
  if (workers < 1) throw McError("thread pool requires >= 1 worker");
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  taskReady_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void(int)> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) throw McError("thread pool is shutting down");
    queue_.push_back(std::move(task));
  }
  taskReady_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  allIdle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::workerLoop(int index) {
  for (;;) {
    std::function<void(int)> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      taskReady_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      task(index);
    } catch (const std::exception& e) {
      log::error(std::string("thread-pool task threw: ") + e.what());
    } catch (...) {
      log::error("thread-pool task threw a non-std exception");
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) allIdle_.notify_all();
    }
  }
}

}  // namespace microtools::threads
