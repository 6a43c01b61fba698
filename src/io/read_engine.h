// Per-device asynchronous page reader — the IoPipeline worker body.
//
// One run_reads() call executes one read batch inside a persistent pipeline
// reader thread (paper: one IO thread per SSD). It walks a sorted list of
// page IDs in the device's own address space, merges runs of up to
// kMaxMergePages contiguous pages into single requests (and never merges
// across gaps — on FNDs random 4 kB IO is cheap enough that over-reading
// never pays, Section IV-C), keeps a bounded number of requests in flight,
// and pushes each completed buffer to the batch's filled queue.
//
// Failure handling (io::IoError taxonomy): transient device faults are
// resubmitted with bounded exponential backoff; permanent faults and
// verification failures propagate — but only after every buffer the call
// acquired has been returned to the pool (the reclamation invariant that
// keeps the Runtime reusable after a faulted query).
#pragma once

#include <cstdint>
#include <span>

#include "device/block_device.h"
#include "io/buffer_pool.h"
#include "io/io_error.h"
#include "io/page_verify.h"
#include "io/pipeline_stats.h"
#include "util/mpmc_queue.h"

namespace blaze::io {

/// Reads every page in `pages` (sorted, device-local page IDs) from `dev`.
/// Buffers come from `pool` and completed buffers are pushed to `filled`
/// with meta().origin = `origin`. Blocks until all pages are read.
/// `max_inflight` bounds submitted-but-unreaped requests per device.
/// Accounting (merging, clamping, backpressure stalls, retries) accumulates
/// into `stats`.
///
/// Transient IoErrors are retried per `retry`; each resubmission counts in
/// stats.retries, an exhausted budget in stats.gave_up. When `verifier` is
/// non-null every completed page must pass it or the call raises
/// IoError{kCorruption}. On any propagated failure stats.failed_requests is
/// incremented and every acquired/in-flight buffer is released back to
/// `pool` before the throw — the pool is whole again when this returns by
/// exception.
void run_reads(device::BlockDevice& dev, const PageOrigin& origin,
               std::span<const std::uint64_t> pages, IoBufferPool& pool,
               MpmcQueue<std::uint32_t>& filled, std::size_t max_inflight,
               PipelineStats& stats, const RetryPolicy& retry = {},
               const PageVerifier* verifier = nullptr);

}  // namespace blaze::io
