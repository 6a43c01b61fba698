// Fixed-size IO buffer pool with MPMC free/filled queues.
//
// Paper Section IV-C: IO threads take buffers from the free queue, fill
// them from the SSDs, and push them to the filled queue; scatter threads do
// the reverse. The pool is statically sized (64 MB by default in the
// paper), and backpressure on the free queue is what throttles IO when
// computation falls behind.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "io/pipeline_stats.h"
#include "metrics/metrics.h"
#include "util/common.h"
#include "util/mpmc_queue.h"

namespace blaze::io {

/// Number of 4 kB pages an IO request may merge (paper Section IV-C: up to
/// four contiguous pages; larger requests do not pay off on FNDs).
inline constexpr std::uint32_t kMaxMergePages = 4;

/// Maximum in-flight IO requests per IO thread.
inline constexpr std::size_t kMaxInflightIo = 64;

/// Where a read batch's pages belong: graph `source` of a multi-graph
/// submit (an EdgeMap over a graph and its transpose tags them 0 and 1),
/// read from the device at `stripe_index` of a RAID-0 set `stripe_width`
/// devices wide. Device page p is then logical graph page
/// p * stripe_width + stripe_index.
struct PageOrigin {
  std::uint32_t source = 0;
  std::uint32_t stripe_width = 1;
  std::uint32_t stripe_index = 0;

  std::uint64_t logical_page(std::uint64_t device_page) const {
    return device_page * stripe_width + stripe_index;
  }
};

/// Metadata of one filled buffer: which device pages it holds. Page j of
/// the buffer is device page (first_page + j), i.e. logical page
/// origin.logical_page(first_page + j) of graph origin.source.
struct BufferMeta {
  PageOrigin origin;
  std::uint64_t first_page = 0;  ///< in the owning device's page space
  std::uint32_t num_pages = 0;
  /// Bytes the device actually filled. Equal to num_pages * kPageSize except
  /// for a request clamped at the device end, whose final page is partial
  /// (the reader zero-fills the remainder so scans never see stale bytes).
  std::uint32_t valid_bytes = 0;
};

/// Pool of aligned 16 kB buffers (4 pages) with a lock-free free list.
class IoBufferPool {
 public:
  /// Creates a pool holding `total_bytes / (kMaxMergePages * kPageSize)`
  /// buffers (at least 4). When metrics publication is on
  /// (metrics::enabled()), the pool registers polled occupancy gauges
  /// blaze_io_pool_buffers_{free,total}{pool=N} — N a process-unique pool
  /// index — torn down when the pool dies. Zero hot-path cost: the
  /// callback reads the free list's approximate size at sample time.
  explicit IoBufferPool(std::size_t total_bytes);

  std::size_t num_buffers() const { return num_buffers_; }
  std::size_t buffer_bytes() const { return kMaxMergePages * kPageSize; }
  std::size_t memory_bytes() const { return storage_.size(); }

  /// Buffers currently in the free list. Racy while readers/consumers run;
  /// exact once the pipeline is quiesced and consumers have drained. The
  /// fault tests assert this returns to num_buffers() after a failed query
  /// (the reclamation invariant).
  std::size_t available() const { return free_.approx_size(); }

  std::byte* data(std::uint32_t id) {
    return storage_.data() + static_cast<std::size_t>(id) * buffer_bytes();
  }
  BufferMeta& meta(std::uint32_t id) { return metas_[id]; }

  /// Pops a free buffer, yielding while the pool is exhausted (this is the
  /// backpressure path that blocks IO threads when compute is slow). When
  /// `stats` is given, pool starvation is recorded: one stall per exhausted
  /// acquire plus the nanoseconds spent waiting.
  std::uint32_t acquire_blocking(PipelineStats* stats = nullptr) {
    if (auto id = free_.pop()) return static_cast<std::uint32_t>(*id);
    const auto t0 = std::chrono::steady_clock::now();
    if (stats) ++stats->buffer_stalls;
    for (;;) {
      if (auto id = free_.pop()) {
        if (stats) {
          stats->buffer_stall_ns += static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
        }
        return static_cast<std::uint32_t>(*id);
      }
      std::this_thread::yield();
    }
  }

  /// Returns a buffer to the free list.
  void release(std::uint32_t id) {
    bool ok = free_.push(id);
    BLAZE_CHECK(ok, "IO buffer free list overflow");
  }

 private:
  std::size_t num_buffers_;
  std::vector<std::byte> storage_;
  std::vector<BufferMeta> metas_;
  MpmcQueue<std::uint32_t> free_;
  metrics::BindingSet metrics_bindings_;  ///< occupancy gauges (see ctor)
};

}  // namespace blaze::io
