#ifndef EQSQL_EXEC_WORKER_POOL_H_
#define EQSQL_EXEC_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace eqsql::exec {

/// A small shared pool for partition-parallel query execution. One pool
/// serves every session of a server: Executors submit one task per
/// table shard and block until their batch completes.
///
/// Scheduling: tasks go into a single FIFO queue drained by the
/// persistent worker threads *and* by the submitting thread itself
/// (caller-helps). Caller participation means a batch always makes
/// progress even with zero workers or when all workers are busy with
/// other sessions' batches — there is no deadlock where every session
/// blocks waiting for workers that are themselves blocked.
///
/// Tasks must not throw and must not submit nested batches (an
/// Executor's shard tasks evaluate only compiled expressions, which
/// hold no subqueries, so task code never re-enters Run).
class WorkerPool {
 public:
  /// `threads` persistent workers. 0 is valid: every batch then runs
  /// entirely on the submitting thread (useful for deterministic
  /// debugging and for the oracle's shard-count sweeps).
  explicit WorkerPool(size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t thread_count() const { return threads_.size(); }

  /// Attaches a metrics registry: exec.pool.tasks (counter),
  /// exec.pool.queue_depth (histogram, sampled at submit time) and
  /// exec.pool.task_ns (histogram). All are scheduling-dependent and
  /// excluded from the shard-count-invariance contract. Call before the
  /// pool is shared across threads; handles are resolved once here.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Runs every task and returns when all have finished. The calling
  /// thread helps drain the queue while it waits.
  void Run(std::vector<std::function<void()>> tasks);

 private:
  /// Completion state for one Run() batch.
  struct Batch {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
  };

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
  obs::Counter* tasks_submitted_ = nullptr;
  obs::Histogram* queue_depth_ = nullptr;
  obs::Histogram* task_ns_ = nullptr;
};

}  // namespace eqsql::exec

#endif  // EQSQL_EXEC_WORKER_POOL_H_
