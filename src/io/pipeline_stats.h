// Unified cross-layer IO accounting (device -> io -> core).
//
// PipelineStats is the one record threaded through the device, io and core
// layers: the read workers fill the io fields and sample the device layer's
// busy clock around each batch, and core::QueryStats extends this struct,
// so every bench figure reads one source of truth.
#pragma once

#include <algorithm>
#include <cstdint>

namespace blaze::io {

/// Cumulative statistics of IO pipeline work. All byte/page counters refer
/// to completed reads; stall counters expose the backpressure the paper's
/// design relies on (IO throttled by buffer-pool exhaustion when compute
/// falls behind, Section IV-C).
struct PipelineStats {
  // ---- io layer: read submission/merging --------------------------------
  std::uint64_t pages_read = 0;        ///< 4 kB pages fetched (incl. partial tail)
  std::uint64_t io_requests = 0;       ///< device requests submitted
  std::uint64_t bytes_read = 0;        ///< bytes actually requested (post-clamp)
  std::uint64_t merged_requests = 0;   ///< requests covering >1 contiguous page
  std::uint64_t tail_clamps = 0;       ///< requests shortened at the device end
  std::uint64_t inflight_peak = 0;     ///< high-water mark of pending requests

  // ---- io layer: backpressure -------------------------------------------
  std::uint64_t buffer_stalls = 0;     ///< acquire() found the pool exhausted
  std::uint64_t buffer_stall_ns = 0;   ///< time spent waiting for a free buffer

  // ---- compute side: IO starvation (prof::StallBreakdown's io axis) ------
  /// Worker-nanoseconds the compute consumers spent idle because no filled
  /// buffer was available AND no other work (gather help) existed — summed
  /// across workers, so N workers starved 1 ms each contribute N ms.
  std::uint64_t io_wait_ns = 0;

  // ---- io layer: fault handling (io::IoError taxonomy) -------------------
  std::uint64_t retries = 0;           ///< resubmissions after transient failures
  std::uint64_t failed_requests = 0;   ///< requests whose failure propagated
  std::uint64_t gave_up = 0;           ///< transient requests that exhausted the retry budget

  // ---- device layer ------------------------------------------------------
  std::uint64_t device_busy_ns = 0;    ///< modeled/measured device service time

  /// Never written; kept only because benchmark/blaze_bench.cpp reads it.
  std::uint64_t prefetch_bytes = 0;

  void merge(const PipelineStats& o) {
    pages_read += o.pages_read;
    io_requests += o.io_requests;
    bytes_read += o.bytes_read;
    merged_requests += o.merged_requests;
    tail_clamps += o.tail_clamps;
    inflight_peak = std::max(inflight_peak, o.inflight_peak);
    buffer_stalls += o.buffer_stalls;
    buffer_stall_ns += o.buffer_stall_ns;
    io_wait_ns += o.io_wait_ns;
    retries += o.retries;
    failed_requests += o.failed_requests;
    gave_up += o.gave_up;
    device_busy_ns += o.device_busy_ns;
  }
};

}  // namespace blaze::io
