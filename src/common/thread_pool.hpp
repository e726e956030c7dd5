// Minimal fixed-size thread pool.
//
// Used by QueryServer's workers: each admitted query runs to completion on
// one pool thread through the synchronous QueryEngine::run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dsud {

class ThreadPool {
 public:
  /// Starts `threads` workers (>= 1).
  explicit ThreadPool(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding work and joins the workers.
  ~ThreadPool();

  std::size_t size() const noexcept { return workers_.size(); }

  /// Schedules `task`; the returned future delivers its result or exception.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(
        std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) {
        throw std::logic_error("ThreadPool: submit after shutdown");
      }
      queue_.emplace_back([packaged] { (*packaged)(); });
    }
    ready_.notify_one();
    return future;
  }

 private:
  void workerLoop();

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dsud
