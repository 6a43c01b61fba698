// Persistent asynchronous IO pipeline (one reader thread per device slot).
//
// The paper keeps FNDs busy by fully overlapping IO with computation
// (Figs 2, 4, 8); FlashGraph gets the same effect from persistent per-SSD
// IO threads. Before this subsystem existed, every EdgeMap call spawned
// fresh std::threads around io::run_reads and hand-rolled its own filled
// queue — twice, once per traversal direction. IoPipeline centralizes that:
//
//   * Reader threads are created lazily (slot d serves the device at stripe
//     index d of whatever graph is being read) and live as long as the
//     owning core::Runtime. Each is fed read batches through its own MPMC
//     work queue and parks with exponential backoff, then a condition
//     variable, when idle — so an idle Runtime costs nothing.
//   * submit() posts one batch per device and returns a ReadHandle: a
//     filled-buffer queue plus completion/error state and the batch's
//     unified PipelineStats. Consumers drain it with ReadHandle::consume(),
//     the one page-consumer loop (push, pull and fused EdgeMap all use it).
//   * prefetch() posts discard-mode batches behind any queued demand work
//     (FIFO per reader): the pages are read and the buffers immediately
//     recycled, warming device-level caches for the *next* iteration while
//     this iteration's gather finishes (the pull-mode prefetch hook).
//
// Backpressure is explicit and observable: the buffer pool bounds memory,
// max_inflight bounds per-device queue depth, and PipelineStats counts
// pool-starvation stalls.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "device/block_device.h"
#include "io/buffer_pool.h"
#include "io/io_error.h"
#include "io/page_verify.h"
#include "io/pipeline_stats.h"
#include "metrics/metrics.h"
#include "trace/tracer.h"
#include "util/backoff.h"
#include "util/mpmc_queue.h"
#include "util/spinlock.h"
#include "util/timer.h"

namespace blaze::io {

/// One device's share of a page frontier: sorted device-local page IDs.
struct ReadBatch {
  device::BlockDevice* device = nullptr;
  std::uint32_t device_index = 0;  ///< reader slot and BufferMeta.device tag
  std::vector<std::uint64_t> pages;
  /// Optional integrity gate: every completed page of this batch must pass
  /// it or the reader raises IoError{kCorruption}. Empty = no verification.
  PageVerifier verifier;
};

/// Shared state between the reader threads executing one submit() and the
/// consumer draining it. Obtained from IoPipeline::submit()/prefetch().
class ReadHandle {
 public:
  /// True once every batch of this submit has been fully read and pushed.
  /// Filled buffers may still be waiting in the queue (consume() drains
  /// them).
  bool io_done() const {
    return remaining_.load(std::memory_order_acquire) == 0;
  }

  /// Blocks (yielding) until io_done().
  void wait() const;

  /// Unified accounting of this submit. Stable only after io_done().
  const PipelineStats& stats() const { return stats_; }

  /// First failure, if any: a device fault or an exception thrown by a
  /// consume() page callback. Stable only after io_done() and once every
  /// consumer has returned.
  std::exception_ptr error() const { return error_; }

  /// The consumer loop of every EdgeMap path; any number of threads may run
  /// it on one handle. Calls `on_page(logical_page, page, page_valid)` for
  /// each page of each filled buffer (RAID-0: page j of a buffer is logical
  /// page (first_page + j) * stripe_width + device), then releases the
  /// buffer. On an empty queue it runs `other_work()` and backs off when
  /// that returns false; returns the back-off nanoseconds (IO starvation)
  /// once the queue is drained and io_done(). An exception from `on_page`
  /// becomes the handle's error; every consumer then releases the remaining
  /// buffers unprocessed, so the pool is whole as after a device fault.
  template <typename OnPage, typename OtherWork>
  std::uint64_t consume(IoBufferPool& pool, std::size_t stripe_width,
                        OnPage&& on_page, OtherWork&& other_work) {
    std::uint64_t io_wait_ns = 0;
    Backoff backoff;
    for (;;) {
      auto buf = filled_.pop();
      if (!buf) {
        if (!io_done()) {
          if (!other_work()) {
            // Genuine IO starvation, timed for prof::StallBreakdown (clock
            // reads cost only on the idle path).
            const std::uint64_t t0 = Timer::now_ns();
            backoff.pause();
            io_wait_ns += Timer::now_ns() - t0;
          }
          continue;
        }
        buf = filled_.pop();  // re-check after the release fence
        if (!buf) break;
      }
      backoff.reset();
      if (!failed_.load(std::memory_order_acquire)) {
        try {
          const BufferMeta& meta = pool.meta(*buf);
          const std::byte* data = pool.data(*buf);
          for (std::uint32_t j = 0; j < meta.num_pages; ++j) {
            on_page((meta.first_page + j) * stripe_width + meta.device,
                    data + static_cast<std::size_t>(j) * kPageSize,
                    std::min<std::uint64_t>(
                        kPageSize,
                        meta.valid_bytes - std::uint64_t{j} * kPageSize));
          }
        } catch (...) {
          fail(std::current_exception());
        }
      }
      pool.release(*buf);
    }
    return io_wait_ns;
  }

 private:
  friend class IoPipeline;
  ReadHandle(std::size_t queue_capacity, std::size_t num_batches,
             bool discard)
      : filled_(queue_capacity), remaining_(num_batches), discard_(discard) {}

  /// Records `err` unless an earlier failure already did.
  void fail(std::exception_ptr err) {
    std::lock_guard lock(mu_);
    if (!error_) error_ = std::move(err);
    failed_.store(true, std::memory_order_release);
  }

  MpmcQueue<std::uint32_t> filled_;
  std::atomic<std::size_t> remaining_;
  const bool discard_;  ///< prefetch mode: recycle buffers, keep no data
  std::atomic<bool> failed_{false};  ///< error_ is set: stop processing
  Spinlock mu_;  ///< guards stats_/error_ while batches complete
  PipelineStats stats_;
  std::exception_ptr error_;
};

/// Persistent per-device-slot reader threads plus the submit/prefetch API.
/// One instance lives inside core::Runtime; readers are shared by every
/// EdgeMap variant (push, pull, hybrid) run on that Runtime. Thread-safe
/// for submissions; each ReadHandle expects a single logical consumer side.
class IoPipeline {
 public:
  IoPipeline() = default;
  ~IoPipeline();

  IoPipeline(const IoPipeline&) = delete;
  IoPipeline& operator=(const IoPipeline&) = delete;

  /// Posts one read job per non-empty batch. Each distinct device gets its
  /// own persistent reader slot (paper: one IO thread per SSD) — keyed by
  /// the device itself, not the batch's stripe index, so concurrent queries
  /// over *different* graphs never serialize behind one reader while
  /// queries touching the *same* device share its single thread FIFO.
  /// batch.device_index remains the stripe tag stamped into BufferMeta.
  /// Filled buffers appear in the handle's queue.
  std::shared_ptr<ReadHandle> submit(IoBufferPool& pool,
                                     std::vector<ReadBatch> batches,
                                     std::size_t max_inflight);

  /// Like submit(), but in discard mode: pages are read and buffers
  /// recycled immediately. Queued FIFO behind demand batches on each
  /// reader, so prefetch never delays the current iteration's IO.
  std::shared_ptr<ReadHandle> prefetch(IoBufferPool& pool,
                                       std::vector<ReadBatch> batches,
                                       std::size_t max_inflight);

  /// Retry policy every reader applies to transient device failures.
  /// Set before submitting; jobs already queued keep the policy they were
  /// posted under. Thread-safe with respect to concurrent submissions
  /// (each job snapshots the policy at post time under the pipeline lock).
  void set_retry_policy(RetryPolicy policy) {
    std::lock_guard lock(readers_mu_);
    retry_ = policy;
  }
  RetryPolicy retry_policy() const {
    std::lock_guard lock(readers_mu_);
    return retry_;
  }

  /// Blocks until every posted job (including prefetches) has finished.
  /// Required before tearing down buffer pools the jobs read into.
  void quiesce() const;

  /// Number of persistent reader threads created so far (one per distinct
  /// device the pipeline has read from).
  std::size_t num_readers() const;

  /// OS thread identity of each reader slot — stable for the lifetime of
  /// the pipeline (the acceptance check for thread persistence).
  std::vector<std::thread::id> reader_ids() const;

  /// Jobs executed by reader slot `slot` since construction.
  std::uint64_t jobs_executed(std::size_t slot) const;

 private:
  struct Job {
    std::shared_ptr<ReadHandle> handle;
    IoBufferPool* pool = nullptr;
    device::BlockDevice* device = nullptr;
    std::uint32_t device_index = 0;
    std::vector<std::uint64_t> pages;
    std::size_t max_inflight = 0;
    RetryPolicy retry;      ///< snapshot of the pipeline policy at post time
    PageVerifier verifier;  ///< moved from the batch; empty = none
    /// Submitter's trace identity at post time: the reader thread services
    /// the batch under the query that asked for it.
    trace::QueryId query = 0;
  };

  struct Reader {
    MpmcQueue<std::shared_ptr<Job>> jobs{16};
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<std::uint64_t> executed{0};
    std::thread::id tid;
    std::jthread thread;  // last member: joins before the queue dies
  };

  /// Process-wide pipeline totals, bound once (post() checks the gate and
  /// lazily binds). All jobs on all pipelines publish into the same series;
  /// per-device splits live on device::IoStats instead.
  struct JobCounters {
    metrics::Counter* bytes = nullptr;
    metrics::Counter* pages = nullptr;
    metrics::Counter* requests = nullptr;
    metrics::Counter* retries = nullptr;
    metrics::Counter* failed = nullptr;
    metrics::Counter* gave_up = nullptr;
    metrics::Counter* stalls = nullptr;
    metrics::Counter* stall_ns = nullptr;
    metrics::Counter* prefetch_bytes = nullptr;
  };

  std::shared_ptr<ReadHandle> post(IoBufferPool& pool,
                                   std::vector<ReadBatch> batches,
                                   std::size_t max_inflight, bool discard);
  /// Reader slot serving `device`, created on first use. Caller must hold
  /// readers_mu_.
  std::size_t slot_for_locked(device::BlockDevice* device);
  void reader_main(Reader& reader);
  void execute(Job& job);

  mutable std::mutex readers_mu_;  ///< guards readers_/device_slots_/retry_
  std::vector<std::unique_ptr<Reader>> readers_;
  std::unordered_map<device::BlockDevice*, std::size_t> device_slots_;
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<bool> stop_{false};
  RetryPolicy retry_;  ///< applied to transient faults; snapshot per job

  // Metric handles. The gauge lives under readers_mu_ (set where readers
  // are created); the counter block is published with release so execute()
  // sees fully initialized handles after one acquire load.
  metrics::Gauge* readers_gauge_ = nullptr;  ///< guarded by readers_mu_
  std::once_flag metrics_once_;
  JobCounters job_counters_storage_;
  std::atomic<const JobCounters*> job_counters_{nullptr};
};

}  // namespace blaze::io
