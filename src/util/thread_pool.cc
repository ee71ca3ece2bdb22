#include "util/thread_pool.h"

#include <algorithm>

#include "util/check.h"
#include "util/env_config.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace odf {
namespace {

// Set on pool workers and on threads marked by RunInlineOnThisThread: their
// ParallelFor calls run inline.
thread_local bool t_inline = false;

int DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose: kernels may run during static destruction.
  static ThreadPool* pool = new ThreadPool(
      static_cast<int>(GetEnvInt("ODF_THREADS", DefaultThreads())));
  return *pool;
}

ThreadPool::ThreadPool(int threads) { Start(threads); }

ThreadPool::~ThreadPool() { Stop(); }

void ThreadPool::RunInlineOnThisThread() { t_inline = true; }

void ThreadPool::Start(int threads) {
  threads_ = std::max(1, threads);
  stop_ = false;
  // threads_ counts the calling thread: a pool of size T spawns T-1 workers
  // and ParallelFor runs the first chunk on the caller.
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::Resize(int threads) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ODF_CHECK(tasks_.empty()) << "Resize during an active parallel region";
  }
  Stop();
  Start(threads);
}

void ThreadPool::WorkerLoop() {
  t_inline = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t n, int64_t grain, const RangeFn& fn) {
  if (n <= 0) return;
  grain = std::max<int64_t>(1, grain);
  // Inline when serial, when the range is too small to split, when we are
  // already inside a pool task (no oversubscription, no deadlock), or on a
  // thread marked serial.
  if (threads_ <= 1 || n <= grain || t_inline) {
    fn(0, n);
    return;
  }
  ODF_TRACE_SCOPE("pool/", "parallel_for", "pool");
  const bool metrics = MetricsEnabled();
  const int64_t max_chunks = (n + grain - 1) / grain;
  // num_chunks <= n (grain >= 1), so the proportional boundaries below are
  // strictly increasing and every chunk is non-empty.
  const int64_t num_chunks = std::min<int64_t>(threads_, max_chunks);

  // Each chunk records its own span/timing so per-worker utilization and
  // load imbalance are visible in traces (docs/observability.md).
  static Histogram& chunk_hist =
      MetricsRegistry::Global().GetHistogram("pool.chunk_seconds");
  const auto run_chunk = [&fn, metrics](int64_t begin, int64_t end) {
    ODF_TRACE_SCOPE("pool/", "chunk", "pool");
    if (metrics) {
      ScopedTimer timer(chunk_hist);
      fn(begin, end);
    } else {
      fn(begin, end);
    }
  };

  // Completion latch for this region; notified under the lock so the last
  // worker never touches it after this frame unblocks.
  std::mutex done_mu;
  std::condition_variable done_cv;
  int64_t done = 0;
  const int64_t queued = num_chunks - 1;
  size_t queue_depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t c = 1; c < num_chunks; ++c) {
      const int64_t begin = c * n / num_chunks;
      const int64_t end = (c + 1) * n / num_chunks;
      tasks_.emplace_back([&run_chunk, &done_mu, &done_cv, &done, begin,
                           end] {
        run_chunk(begin, end);
        std::lock_guard<std::mutex> g(done_mu);
        ++done;
        done_cv.notify_one();
      });
    }
    queue_depth = tasks_.size();
  }
  if (metrics) {
    static Counter& fors =
        MetricsRegistry::Global().GetCounter("pool.parallel_fors");
    static Counter& chunks =
        MetricsRegistry::Global().GetCounter("pool.chunks");
    static Gauge& depth =
        MetricsRegistry::Global().GetGauge("pool.queue_depth");
    fors.Add(1);
    chunks.Add(static_cast<uint64_t>(num_chunks));
    depth.Set(static_cast<double>(queue_depth));
  }
  if (TraceEnabled()) {
    Tracer::Global().RecordCounter("pool.queue_depth",
                                   static_cast<double>(queue_depth));
  }
  cv_.notify_all();
  run_chunk(0, n / num_chunks);
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done == queued; });
}

}  // namespace odf
