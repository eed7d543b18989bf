#include "util/thread_pool.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

namespace webevo {

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::RunAndWait(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  // Completion latch shared by the wrapped tasks; the caller blocks
  // until the last wrapper counts down.
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining;
  };
  auto latch = std::make_shared<Latch>();
  latch->remaining = tasks.size();
  for (std::function<void()>& task : tasks) {
    Submit([fn = std::move(task), latch] {
      fn();
      std::lock_guard<std::mutex> lock(latch->mu);
      if (--latch->remaining == 0) latch->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(latch->mu);
  latch->cv.wait(lock, [&] { return latch->remaining == 0; });
}

void ThreadPool::RunForIndices(
    const std::vector<std::size_t>& indices,
    const std::function<void(std::size_t)>& task) {
  if (indices.size() <= 1) {
    for (std::size_t i : indices) task(i);
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(indices.size());
  for (std::size_t i : indices) {
    tasks.push_back([&task, i] { task(i); });
  }
  RunAndWait(std::move(tasks));
}

void RunForEachIndex(ThreadPool* threads, std::size_t count,
                     const std::function<void(std::size_t)>& task) {
  if (threads == nullptr) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  std::vector<std::size_t> indices(count);
  std::iota(indices.begin(), indices.end(), 0);
  threads->RunForIndices(indices, task);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace webevo
