#include "io/read_engine.h"

#include <algorithm>
#include <optional>
#include <string>
#include <thread>

#include "io/io_error.h"
#include "util/backoff.h"

namespace blaze::io {

void run_reads(device::BlockDevice& dev, const PageOrigin& origin,
               std::span<const std::uint64_t> pages, IoBufferPool& pool,
               MpmcQueue<std::uint32_t>* filled, std::size_t max_inflight,
               PipelineStats& stats, const RetryPolicy& retry,
               const PageVerifier* verifier) {
  if (pages.empty()) return;
  auto channel = dev.open_channel();
  std::vector<std::uint64_t> completed;
  std::size_t completed_cursor = 0;  // first unprocessed entry of `completed`
  std::optional<std::uint32_t> held;  // acquired but not yet submitted
  const std::uint64_t device_bytes = dev.size();
  // Ceiling, not floor: a device whose size is not a page multiple still
  // exposes its final partial page (the tail request is clamped below).
  const std::uint64_t device_pages = ceil_div(device_bytes, std::uint64_t{kPageSize});

  // Error-path invariant: every pool buffer this call acquired must be back
  // in the free list before the failure propagates — `held`, the
  // unprocessed tail of the current completion batch, and everything still
  // in flight on the channel. A single leaked buffer wedges the *next*
  // query's acquire_blocking forever.
  auto reclaim = [&]() noexcept {
    if (held) {
      pool.release(*held);
      held.reset();
    }
    for (; completed_cursor < completed.size(); ++completed_cursor) {
      pool.release(static_cast<std::uint32_t>(completed[completed_cursor]));
    }
    while (channel->pending() > 0) {
      completed.clear();
      try {
        channel->wait(1, completed);
      } catch (...) {
        break;  // channel itself is unusable; nothing left to reap from it
      }
      for (std::uint64_t user : completed) {
        pool.release(static_cast<std::uint32_t>(user));
      }
    }
    completed.clear();
    completed_cursor = 0;
  };

  // Integrity gate: every page of a completed buffer must pass the batch's
  // verifier before the consumer may see it (clamped tail pages are checked
  // over their valid bytes only). A mismatch is corruption — never retried,
  // because the device already claimed success.
  auto verify_buffer = [&](std::uint32_t id) {
    const BufferMeta& meta = pool.meta(id);
    for (std::uint32_t j = 0; j < meta.num_pages; ++j) {
      const std::uint64_t valid = std::min<std::uint64_t>(
          kPageSize, meta.valid_bytes - std::uint64_t{j} * kPageSize);
      std::span<const std::byte> page(
          pool.data(id) + std::uint64_t{j} * kPageSize, valid);
      if (!(*verifier)(meta.first_page + j, page)) {
        throw IoError(ErrorKind::kCorruption, dev.name(),
                      "page " + std::to_string(meta.first_page + j) +
                          " failed checksum verification");
      }
    }
  };

  auto reap = [&](std::size_t min_done) {
    completed.clear();
    completed_cursor = 0;
    channel->wait(min_done, completed);
    for (; completed_cursor < completed.size(); ++completed_cursor) {
      auto id = static_cast<std::uint32_t>(completed[completed_cursor]);
      // On a verification throw the cursor still points at this entry, so
      // reclaim() releases the corrupt buffer along with the rest.
      if (verifier) verify_buffer(id);
      if (filled) {
        while (!filled->push(id)) std::this_thread::yield();
      } else {
        pool.release(id);  // prefetch: the device cache is the payload
      }
    }
  };

  // Bounded retry for transient faults: resubmit the same request up to
  // retry.max_retries times with exponential backoff. Permanent faults and
  // exhausted budgets propagate to the caller's cleanup below.
  auto submit_with_retry = [&](const device::AsyncRead& req) {
    std::uint32_t attempts = 0;
    Backoff backoff(retry.backoff_us);
    for (;;) {
      try {
        channel->submit(req);
        return;
      } catch (const IoError& e) {
        if (!e.retryable()) throw;
        if (attempts >= retry.max_retries) {
          ++stats.gave_up;
          throw;
        }
        ++attempts;
        ++stats.retries;
        backoff.sleep_step();
      }
    }
  };

  try {
    std::size_t i = 0;
    while (i < pages.size()) {
      // Merge a run of contiguous pages, bounded by kMaxMergePages and the
      // device end.
      std::uint64_t first = pages[i];
      BLAZE_CHECK(first < device_pages, "page id beyond device");
      std::uint32_t run = 1;
      while (run < kMaxMergePages && i + run < pages.size() &&
             pages[i + run] == first + run) {
        ++run;
      }
      i += run;

      held = pool.acquire_blocking(&stats);
      const std::uint32_t buf = *held;

      device::AsyncRead req;
      req.offset = first * kPageSize;
      std::uint64_t length = std::uint64_t{run} * kPageSize;
      // Clamp the tail request to the device size (the last device page may
      // be partial). meta.num_pages / meta.valid_bytes must describe the
      // clamped request, never the unclamped run, or scatter walks stale
      // bytes.
      if (req.offset + length > device_bytes) {
        length = device_bytes - req.offset;
        ++stats.tail_clamps;
      }
      req.length = static_cast<std::uint32_t>(length);

      const auto covered = static_cast<std::uint32_t>(
          ceil_div(length, std::uint64_t{kPageSize}));
      BufferMeta& meta = pool.meta(buf);
      meta.origin = origin;
      meta.first_page = first;
      meta.num_pages = covered;
      meta.valid_bytes = req.length;
      if (req.length < std::uint64_t{covered} * kPageSize) {
        // Zero the partial final page's remainder so page scans bounded by
        // whole pages never observe the buffer's previous contents.
        std::fill(pool.data(buf) + req.length,
                  pool.data(buf) + std::uint64_t{covered} * kPageSize,
                  std::byte{0});
      }
      req.buffer = pool.data(buf);
      req.user = buf;
      submit_with_retry(req);
      held.reset();  // the channel owns the buffer until completion

      ++stats.io_requests;
      if (run > 1) ++stats.merged_requests;
      stats.pages_read += covered;
      stats.bytes_read += req.length;
      stats.inflight_peak =
          std::max<std::uint64_t>(stats.inflight_peak, channel->pending());

      if (channel->pending() >= max_inflight) reap(1);
      else reap(0);  // opportunistically drain ready completions
    }
    while (channel->pending() > 0) reap(1);
  } catch (...) {
    ++stats.failed_requests;
    reclaim();
    throw;
  }
}

}  // namespace blaze::io
