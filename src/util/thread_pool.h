#ifndef WEBEVO_UTIL_THREAD_POOL_H_
#define WEBEVO_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace webevo {

/// A fixed-size pool of worker threads for batch-parallel simulation
/// work (the ShardedCrawlEngine dispatches one task per shard per
/// batch).
///
/// The pool is deliberately minimal: tasks are `void()` closures, run in
/// FIFO order across workers, and must not throw (library code reports
/// errors through Status, never exceptions). Synchronisation follows the
/// classic mutex + condition-variable worker loop (cf. the UrlFrontier
/// coordination in production crawlers).
class ThreadPool {
 public:
  /// Starts `num_threads` workers (< 1 is clamped to 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding tasks, then stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Runs every task on the pool and returns once all of them have
  /// finished — the engine's batch barrier. Must not be called from a
  /// worker thread (the barrier would deadlock waiting on itself).
  void RunAndWait(std::vector<std::function<void()>> tasks);

  /// Runs `task(i)` for every index in `indices` and waits. With two or
  /// more indices the tasks go through the pool, one per index; with
  /// fewer they run inline — same code path, same results, no thread
  /// handoff. The incremental crawler's two apply passes (outcome and
  /// admission) fan out over their busy shards through it.
  void RunForIndices(const std::vector<std::size_t>& indices,
                     const std::function<void(std::size_t)>& task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `task(i)` for every i in [0, count) and waits: through
/// `threads`' RunForIndices when given, else inline in index order. The
/// crawler's housekeeping walks its shards this way, so a module called
/// without the engine's pool computes the same bits serially.
void RunForEachIndex(ThreadPool* threads, std::size_t count,
                     const std::function<void(std::size_t)>& task);

}  // namespace webevo

#endif  // WEBEVO_UTIL_THREAD_POOL_H_
