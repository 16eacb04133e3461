#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/mutex.h"
#include "common/str_util.h"
#include "common/thread_annotations.h"

namespace ftdl {

namespace {
thread_local int t_worker_index = -1;
}  // namespace

/// One parallel_for invocation. Indices are claimed lock-free via `next`;
/// completion bookkeeping (`done`, the first error, the waiter wake-up)
/// goes through the owning pool's mutex — Batch carries no mutex of its
/// own, so `done` / `error` cannot be expressed as FTDL_GUARDED_BY and are
/// guarded by convention (every access in Impl holds Impl::mu).
struct Batch {
  std::size_t count = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::size_t done = 0;  ///< finished or skipped indices (pool mutex)
  std::exception_ptr error;  ///< first task exception (pool mutex)
  CondVar finished;
};

struct ThreadPool::Impl {
  int jobs = 1;
  mutable Mutex mu;
  CondVar work_ready;
  /// Batches with unclaimed work.
  std::deque<std::shared_ptr<Batch>> queue FTDL_GUARDED_BY(mu);
  std::vector<std::thread> workers;
  bool stopping FTDL_GUARDED_BY(mu) = false;

  /// Claims and runs indices of `b` until none remain unclaimed. Returns
  /// with the batch possibly still having tasks in flight on other threads.
  void drain(Batch& b) FTDL_EXCLUDES(mu) {
    for (;;) {
      const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= b.count) return;
      std::exception_ptr err;
      bool skip;
      {
        MutexLock lock(mu);
        skip = b.error != nullptr;
      }
      if (!skip) {
        try {
          (*b.fn)(i);
        } catch (...) {
          err = std::current_exception();
        }
      }
      MutexLock lock(mu);
      if (err && !b.error) b.error = err;
      if (++b.done == b.count) b.finished.notify_all();
    }
  }

  void worker_loop(int index) FTDL_EXCLUDES(mu) {
    t_worker_index = index;
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        MutexLock lock(mu);
        while (!stopping && queue.empty()) work_ready.wait(mu);
        if (stopping && queue.empty()) return;
        batch = queue.front();
        // A batch leaves the queue as soon as all indices are claimed; the
        // front may already be exhausted by the time this worker wakes.
        if (batch->next.load(std::memory_order_relaxed) >= batch->count) {
          queue.pop_front();
          continue;
        }
      }
      drain(*batch);
      MutexLock lock(mu);
      if (!queue.empty() && queue.front() == batch) queue.pop_front();
    }
  }
};

ThreadPool::ThreadPool(int jobs) : impl_(std::make_unique<Impl>()) {
  if (jobs < 1) throw ConfigError("thread pool needs jobs >= 1");
  impl_->jobs = jobs;
  impl_->workers.reserve(static_cast<std::size_t>(jobs - 1));
  for (int i = 0; i < jobs - 1; ++i) {
    impl_->workers.emplace_back([this, i] { impl_->worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->work_ready.notify_all();
  for (std::thread& t : impl_->workers) t.join();
}

int ThreadPool::jobs() const { return impl_->jobs; }

std::size_t ThreadPool::queue_depth() const {
  MutexLock lock(impl_->mu);
  return impl_->queue.size();
}

int ThreadPool::worker_index() { return t_worker_index; }

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (impl_->jobs == 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->fn = &fn;
  {
    MutexLock lock(impl_->mu);
    impl_->queue.push_back(batch);
  }
  impl_->work_ready.notify_all();
  impl_->drain(*batch);
  std::exception_ptr err;
  {
    MutexLock lock(impl_->mu);
    // All indices are claimed; retire the batch so queue_depth reflects
    // only batches that still have work to hand out.
    for (auto it = impl_->queue.begin(); it != impl_->queue.end(); ++it) {
      if (*it == batch) {
        impl_->queue.erase(it);
        break;
      }
    }
    batch->finished.wait(impl_->mu,
                         [&] { return batch->done == batch->count; });
    err = batch->error;
  }
  if (err) std::rethrow_exception(err);
}

int default_jobs() {
  std::int64_t n = 0;
  if (!parse_int_strict(std::getenv("FTDL_JOBS"), 1,
                        std::numeric_limits<std::int64_t>::max(), &n))
    n = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min<std::int64_t>(n, kMaxDefaultJobs));
}

}  // namespace ftdl
