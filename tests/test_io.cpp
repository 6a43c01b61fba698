// Unit tests for the IO engine: buffer pool and the merging page reader
// (the IoPipeline worker body).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>

#include "device/mem_device.h"
#include "io/buffer_pool.h"
#include "io/read_engine.h"

namespace blaze::io {
namespace {

TEST(IoBufferPool, AcquireReleaseCycle) {
  IoBufferPool pool(64 * kPageSize);  // 16 buffers of 4 pages
  EXPECT_EQ(pool.num_buffers(), 16u);
  std::set<std::uint32_t> ids;
  for (std::size_t i = 0; i < pool.num_buffers(); ++i) {
    ids.insert(pool.acquire_blocking());
  }
  EXPECT_EQ(ids.size(), pool.num_buffers());
  for (auto id : ids) pool.release(id);
  // All reusable again.
  for (std::size_t i = 0; i < pool.num_buffers(); ++i) {
    pool.release(pool.acquire_blocking());
  }
}

TEST(IoBufferPool, MinimumFourBuffers) {
  IoBufferPool pool(1);
  EXPECT_GE(pool.num_buffers(), 4u);
}

TEST(IoBufferPool, ExhaustionIsCountedAsStall) {
  IoBufferPool pool(1);  // minimum-size pool
  std::vector<std::uint32_t> held;
  for (std::size_t i = 0; i < pool.num_buffers(); ++i) {
    held.push_back(pool.acquire_blocking());
  }
  PipelineStats stats;
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.release(held.back());
  });
  // Pool is empty: this acquire must block until the releaser runs, and
  // the starvation must be visible in the stats.
  std::uint32_t got = pool.acquire_blocking(&stats);
  releaser.join();
  EXPECT_EQ(got, held.back());
  EXPECT_EQ(stats.buffer_stalls, 1u);
  EXPECT_GT(stats.buffer_stall_ns, 0u);
  // A non-starved acquire records nothing.
  pool.release(got);
  PipelineStats clean;
  pool.release(pool.acquire_blocking(&clean));
  EXPECT_EQ(clean.buffer_stalls, 0u);
}

/// Builds a device where page p is filled with byte value (p % 251).
std::shared_ptr<device::MemDevice> make_tagged_device(std::uint64_t pages) {
  auto dev = std::make_shared<device::MemDevice>("m", pages * kPageSize);
  for (std::uint64_t p = 0; p < pages; ++p) {
    auto span = dev->raw().subspan(p * kPageSize, kPageSize);
    std::fill(span.begin(), span.end(), static_cast<std::byte>(p % 251));
  }
  return dev;
}

struct ReadResult {
  std::map<std::uint64_t, std::byte> first_byte_by_page;
  PipelineStats stats;
};

ReadResult drain_reads(device::BlockDevice& dev,
                       std::span<const std::uint64_t> pages) {
  IoBufferPool pool(64 * kPageSize);
  MpmcQueue<std::uint32_t> filled(pool.num_buffers() + 1);
  ReadResult r;
  run_reads(dev, {}, pages, pool, filled, 64, r.stats);
  while (auto id = filled.pop()) {
    const BufferMeta& meta = pool.meta(*id);
    EXPECT_EQ(meta.valid_bytes,
              std::min<std::uint64_t>(meta.num_pages * kPageSize,
                                      dev.size() - meta.first_page * kPageSize));
    for (std::uint32_t j = 0; j < meta.num_pages; ++j) {
      r.first_byte_by_page[meta.first_page + j] =
          pool.data(*id)[j * kPageSize];
    }
    pool.release(*id);
  }
  return r;
}

TEST(ReadEngine, ReadsExactlyRequestedPages) {
  auto dev = make_tagged_device(64);
  std::vector<std::uint64_t> pages = {0, 3, 4, 5, 9, 60};
  auto r = drain_reads(*dev, pages);
  ASSERT_EQ(r.first_byte_by_page.size(), pages.size());
  for (auto p : pages) {
    EXPECT_EQ(r.first_byte_by_page.at(p), static_cast<std::byte>(p % 251));
  }
  EXPECT_EQ(r.stats.pages_read, pages.size());
  EXPECT_EQ(r.stats.bytes_read, pages.size() * kPageSize);
  EXPECT_EQ(r.stats.tail_clamps, 0u);
}

TEST(ReadEngine, MergesContiguousRunsUpToFour) {
  auto dev = make_tagged_device(64);
  // 6 contiguous pages -> requests of 4 + 2; plus isolated page -> 1.
  std::vector<std::uint64_t> pages = {10, 11, 12, 13, 14, 15, 40};
  auto r = drain_reads(*dev, pages);
  EXPECT_EQ(r.stats.pages_read, 7u);
  EXPECT_EQ(r.stats.io_requests, 3u);
  EXPECT_EQ(r.stats.merged_requests, 2u);  // the 4-run and the 2-run
  for (auto p : pages) {
    EXPECT_EQ(r.first_byte_by_page.at(p), static_cast<std::byte>(p % 251));
  }
}

TEST(ReadEngine, MergeStopsExactlyAtMaxMergePages) {
  auto dev = make_tagged_device(64);
  // kMaxMergePages + 1 contiguous pages must split into a full-size request
  // plus a singleton, never one oversized request.
  std::vector<std::uint64_t> pages;
  for (std::uint64_t p = 20; p < 20 + kMaxMergePages + 1; ++p) {
    pages.push_back(p);
  }
  auto r = drain_reads(*dev, pages);
  EXPECT_EQ(r.stats.io_requests, 2u);
  EXPECT_EQ(r.stats.merged_requests, 1u);
  EXPECT_EQ(r.stats.pages_read, kMaxMergePages + 1u);
  for (auto p : pages) {
    EXPECT_EQ(r.first_byte_by_page.at(p), static_cast<std::byte>(p % 251));
  }
}

TEST(ReadEngine, DoesNotMergeAcrossGaps) {
  auto dev = make_tagged_device(64);
  // Gap of one page between each: never merged even though close.
  std::vector<std::uint64_t> pages = {2, 4, 6, 8};
  auto r = drain_reads(*dev, pages);
  EXPECT_EQ(r.stats.io_requests, 4u);
  EXPECT_EQ(r.stats.pages_read, 4u);
  EXPECT_EQ(r.stats.merged_requests, 0u);
}

TEST(ReadEngine, EmptyPageListIsNoop) {
  auto dev = make_tagged_device(4);
  auto r = drain_reads(*dev, {});
  EXPECT_EQ(r.stats.io_requests, 0u);
  EXPECT_TRUE(r.first_byte_by_page.empty());
}

TEST(ReadEngine, TailClampShortensFinalPartialPage) {
  // Device of 3.5 pages: page 3 exists but is half a page long. A request
  // merging pages {2,3} must clamp to the device end, report the true
  // valid_bytes, and zero-fill the partial page's remainder so scatter
  // never walks stale buffer bytes.
  const std::uint64_t half = kPageSize / 2;
  auto dev =
      std::make_shared<device::MemDevice>("tail", 3 * kPageSize + half);
  auto raw = dev->raw();
  std::fill(raw.begin(), raw.end(), std::byte{0xAB});

  IoBufferPool pool(64 * kPageSize);
  MpmcQueue<std::uint32_t> filled(pool.num_buffers() + 1);
  // Dirty every buffer so stale contents are detectable.
  std::vector<std::uint32_t> all;
  for (std::size_t i = 0; i < pool.num_buffers(); ++i) {
    all.push_back(pool.acquire_blocking());
  }
  for (auto id : all) {
    std::fill(pool.data(id), pool.data(id) + pool.buffer_bytes(),
              std::byte{0xEE});
    pool.release(id);
  }

  PipelineStats stats;
  std::vector<std::uint64_t> pages = {2, 3};
  run_reads(*dev, {}, pages, pool, filled, 64, stats);
  EXPECT_EQ(stats.tail_clamps, 1u);
  EXPECT_EQ(stats.io_requests, 1u);
  EXPECT_EQ(stats.pages_read, 2u);
  EXPECT_EQ(stats.bytes_read, kPageSize + half);

  auto id = filled.pop();
  ASSERT_TRUE(id.has_value());
  const BufferMeta& meta = pool.meta(*id);
  EXPECT_EQ(meta.first_page, 2u);
  EXPECT_EQ(meta.num_pages, 2u);
  EXPECT_EQ(meta.valid_bytes, kPageSize + half);
  const std::byte* data = pool.data(*id);
  // Valid bytes hold device contents; the clamped remainder is zeroed, not
  // the 0xEE the buffer held before.
  EXPECT_EQ(data[0], std::byte{0xAB});
  EXPECT_EQ(data[kPageSize + half - 1], std::byte{0xAB});
  EXPECT_EQ(data[kPageSize + half], std::byte{0});
  EXPECT_EQ(data[2 * kPageSize - 1], std::byte{0});
  pool.release(*id);
  EXPECT_FALSE(filled.pop().has_value());
}

TEST(ReadEngine, ManyPagesWithSmallPoolBackpressure) {
  auto dev = make_tagged_device(512);
  std::vector<std::uint64_t> pages(512);
  for (std::uint64_t p = 0; p < 512; ++p) pages[p] = p;

  // Tiny pool: the reader must recycle buffers; a consumer thread drains.
  IoBufferPool pool(4 * 4 * kPageSize);
  MpmcQueue<std::uint32_t> filled(pool.num_buffers() + 1);
  std::atomic<std::uint64_t> seen_pages{0};
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load() || filled.approx_size() > 0) {
      if (auto id = filled.pop()) {
        seen_pages.fetch_add(pool.meta(*id).num_pages);
        pool.release(*id);
      } else {
        std::this_thread::yield();
      }
    }
  });
  PipelineStats stats;
  run_reads(*dev, {}, pages, pool, filled, 64, stats);
  done.store(true);
  consumer.join();
  EXPECT_EQ(stats.pages_read, 512u);
  EXPECT_EQ(seen_pages.load(), 512u);
  EXPECT_LE(stats.inflight_peak, 64u);
  // Every buffer is back in the pool.
  std::set<std::uint32_t> ids;
  for (std::size_t i = 0; i < pool.num_buffers(); ++i) {
    ids.insert(pool.acquire_blocking());
  }
  EXPECT_EQ(ids.size(), pool.num_buffers());
  for (auto id : ids) pool.release(id);
}

}  // namespace
}  // namespace blaze::io
