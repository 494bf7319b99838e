#pragma once
// Fixed-size worker pool used where the framework exploits real parallelism:
// the historian's read executor serves queries off the caller's thread.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace sensorcer::util {

class ThreadPool {
 public:
  /// Starts `threads` workers (at least 1; defaults to hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains and joins. Pending tasks are still executed.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue work; the future resolves with the callable's result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Block until every task submitted so far has finished.
  void wait_idle();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace sensorcer::util
