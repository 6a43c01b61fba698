// Tests for the persistent IoPipeline: reader-thread persistence across
// EdgeMap calls, submit/prefetch semantics, error propagation, and the
// unified cross-layer statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>

#include "core/edge_map.h"
#include "core/edge_map_pull.h"
#include "core/runtime.h"
#include "device/cached_device.h"
#include "device/mem_device.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "io/io_pipeline.h"
#include "test_helpers.h"

namespace blaze {
namespace {

using core::EdgeMapOptions;
using core::QueryStats;
using core::Runtime;
using core::VertexSubset;

/// Commutative accumulation program (same shape as test_edge_map_extra).
struct CountProgram {
  using value_type = std::uint32_t;
  std::vector<std::uint32_t>& acc;

  value_type scatter(vertex_t, vertex_t) const { return 1; }
  bool cond(vertex_t) const { return true; }
  bool gather(vertex_t d, value_type v) {
    acc[d] += v;
    return true;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    std::atomic_ref<std::uint32_t>(acc[d]).fetch_add(
        v, std::memory_order_relaxed);
    return true;
  }
};

std::shared_ptr<device::MemDevice> make_tagged_device(std::uint64_t pages) {
  auto dev = std::make_shared<device::MemDevice>("m", pages * kPageSize);
  for (std::uint64_t p = 0; p < pages; ++p) {
    auto span = dev->raw().subspan(p * kPageSize, kPageSize);
    std::fill(span.begin(), span.end(), static_cast<std::byte>(p % 251));
  }
  return dev;
}

std::vector<std::uint64_t> iota_pages(std::uint64_t count) {
  std::vector<std::uint64_t> pages(count);
  std::iota(pages.begin(), pages.end(), 0);
  return pages;
}

// --------------------------------------------------------- pipeline layer

TEST(IoPipeline, SubmitDeliversAllPagesAndReusesReaders) {
  auto dev = make_tagged_device(64);
  io::IoBufferPool pool(64 * kPageSize);
  io::IoPipeline pipeline;
  EXPECT_EQ(pipeline.num_readers(), 0u);  // lazy: no IO yet, no threads

  for (int round = 0; round < 2; ++round) {
    std::vector<io::ReadBatch> batches(1);
    batches[0].device = dev.get();
    batches[0].device_index = 0;
    batches[0].pages = iota_pages(64);
    auto handle = pipeline.submit(pool, std::move(batches), 16);
    std::uint64_t pages_seen = 0;
    handle->consume(
        pool, 1, [&](std::uint64_t, const std::byte*, std::uint64_t) {
          ++pages_seen;
        },
        [] { return false; });
    EXPECT_EQ(pages_seen, 64u);
    EXPECT_EQ(handle->stats().pages_read, 64u);
    EXPECT_EQ(handle->error(), nullptr);
    EXPECT_EQ(pipeline.num_readers(), 1u);
  }
  EXPECT_EQ(pipeline.jobs_executed(0), 2u);
}

TEST(IoPipeline, EmptyBatchesCompleteImmediately) {
  auto dev = make_tagged_device(4);
  io::IoBufferPool pool(64 * kPageSize);
  io::IoPipeline pipeline;
  std::vector<io::ReadBatch> batches(2);
  batches[0].device = dev.get();
  batches[1].device = dev.get();
  batches[1].device_index = 1;
  auto handle = pipeline.submit(pool, std::move(batches), 16);
  handle->wait();
  EXPECT_TRUE(handle->io_done());
  EXPECT_EQ(handle->stats().pages_read, 0u);
  EXPECT_EQ(pipeline.num_readers(), 0u);  // nothing to read, nothing spawned
}

TEST(IoPipeline, PrefetchWarmsDeviceCacheAndRecyclesBuffers) {
  auto inner = make_tagged_device(32);
  auto cached = std::make_shared<device::CachedDevice>(
      inner, 32 * kPageSize, device::EvictionPolicy::kLru);
  io::IoBufferPool pool(8 * 4 * kPageSize);
  io::IoPipeline pipeline;

  std::vector<io::ReadBatch> batches(1);
  batches[0].device = cached.get();
  batches[0].pages = iota_pages(32);
  auto handle = pipeline.prefetch(pool, std::move(batches), 16);
  handle->wait();
  EXPECT_EQ(handle->stats().prefetch_pages, 32u);
  EXPECT_EQ(handle->stats().pages_read, 0u);  // kept out of demand counters
  // The cold pass misses every page exactly once (per-page accounting,
  // regardless of how requests were merged).
  EXPECT_EQ(cached->misses(), 32u);

  // Demand reads of the same pages now hit the warmed cache.
  std::vector<io::ReadBatch> demand(1);
  demand[0].device = cached.get();
  demand[0].pages = iota_pages(32);
  auto h2 = pipeline.submit(pool, std::move(demand), 16);
  std::uint64_t pages_seen = 0;
  h2->consume(
      pool, 1,
      [&](std::uint64_t, const std::byte*, std::uint64_t) { ++pages_seen; },
      [] { return false; });
  EXPECT_EQ(pages_seen, 32u);
  EXPECT_EQ(cached->misses(), 32u);  // demand pass is fully warmed
  EXPECT_EQ(cached->hits(), 32u);    // every page served from cache
  // Prefetch released every buffer: the pool must be whole again.
  pipeline.quiesce();
  std::vector<std::uint32_t> all;
  for (std::size_t i = 0; i < pool.num_buffers(); ++i) {
    all.push_back(pool.acquire_blocking());
  }
  for (auto id : all) pool.release(id);
}

// ----------------------------------------------------------- engine layer

TEST(IoPipeline, EdgeMapReusesPersistentReaderThreads) {
  // The acceptance check of the refactor: IO threads persist across
  // consecutive EdgeMap calls on one Runtime — stable thread IDs, no
  // spawn-per-call — and both calls produce correct results.
  graph::Csr g = graph::generate_rmat(12, 8, 42);
  auto odg = format::make_mem_graph(g);
  Runtime rt(testutil::test_config());
  const vertex_t n = g.num_vertices();

  std::vector<std::uint32_t> acc1(n, 0);
  CountProgram prog1{acc1};
  core::edge_map(rt, odg, VertexSubset::all(n), prog1, {});

  ASSERT_GE(rt.io_pipeline().num_readers(), 1u);
  const auto ids_after_first = rt.io_pipeline().reader_ids();
  const auto jobs_after_first = rt.io_pipeline().jobs_executed(0);
  EXPECT_GE(jobs_after_first, 1u);

  std::vector<std::uint32_t> acc2(n, 0);
  CountProgram prog2{acc2};
  core::edge_map(rt, odg, VertexSubset::all(n), prog2, {});

  EXPECT_EQ(rt.io_pipeline().reader_ids(), ids_after_first);
  EXPECT_GT(rt.io_pipeline().jobs_executed(0), jobs_after_first);
  EXPECT_EQ(acc1, acc2);

  std::vector<std::uint32_t> want(n, 0);
  for (vertex_t d : g.edges()) ++want[d];
  EXPECT_EQ(acc1, want);
}

TEST(IoPipeline, MultiDeviceEdgeMapUsesOneReaderPerDevice) {
  graph::Csr g = graph::generate_rmat(12, 8, 7);
  auto odg = format::make_mem_graph(g, /*num_devices=*/3);
  Runtime rt(testutil::test_config());
  const vertex_t n = g.num_vertices();

  std::vector<std::uint32_t> acc(n, 0);
  CountProgram prog{acc};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  core::edge_map(rt, odg, VertexSubset::all(n), prog, opts);

  EXPECT_EQ(rt.io_pipeline().num_readers(), 3u);
  auto ids = rt.io_pipeline().reader_ids();
  EXPECT_EQ(std::set<std::thread::id>(ids.begin(), ids.end()).size(), 3u);

  std::vector<std::uint32_t> want(n, 0);
  for (vertex_t d : g.edges()) ++want[d];
  EXPECT_EQ(acc, want);
  EXPECT_GT(stats.pages_read, 0u);
  EXPECT_GT(stats.bytes_read, 0u);
}

TEST(IoPipeline, PullPrefetchHookStreamsNextIterationPages) {
  // Pull-mode EdgeMap over a cached transpose: passing prefetch_candidates
  // warms the next iteration's pages while this iteration gathers, so the
  // follow-up pull sees cache hits and the prefetch volume shows up in the
  // unified stats.
  graph::Csr g = graph::generate_rmat(11, 8, 99);
  graph::Csr gt = graph::transpose(g);
  auto inner = format::make_mem_graph(gt);
  auto cached = std::make_shared<device::CachedDevice>(
      inner.device_ptr(), 1u << 22, device::EvictionPolicy::kLru);
  format::OnDiskGraph odg_t(inner.index(), cached);

  Runtime rt(testutil::test_config());
  const vertex_t n = g.num_vertices();
  auto frontier = VertexSubset::all(n);
  auto candidates = VertexSubset::all(n);

  std::vector<std::uint32_t> acc1(n, 0);
  CountProgram prog1{acc1};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  opts.prefetch_candidates = &candidates;  // "next iteration" = same set
  core::edge_map_pull(rt, odg_t, frontier, candidates, prog1, opts);
  rt.io_pipeline().quiesce();  // let the warm-up drain
  EXPECT_GT(stats.prefetch_pages, 0u);

  const std::uint64_t misses_after_warm = cached->misses();
  std::vector<std::uint32_t> acc2(n, 0);
  CountProgram prog2{acc2};
  core::edge_map_pull(rt, odg_t, frontier, candidates, prog2, {});
  EXPECT_EQ(cached->misses(), misses_after_warm);  // fully warmed
  EXPECT_GT(cached->hits(), 0u);
  EXPECT_EQ(acc1, acc2);
}

TEST(IoPipeline, UnifiedStatsThreadDeviceBusyTime) {
  // The device layer's busy clock must surface in the per-query stats
  // (device -> io -> core threading).
  graph::Csr g = graph::generate_rmat(11, 8, 5);
  auto odg = format::make_simulated_graph(g, device::optane_p4800x());
  Runtime rt(testutil::test_config());
  const vertex_t n = g.num_vertices();

  std::vector<std::uint32_t> acc(n, 0);
  CountProgram prog{acc};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  core::edge_map(rt, odg, VertexSubset::all(n), prog, opts);
  EXPECT_GT(stats.device_busy_ns, 0u);
  EXPECT_GT(stats.io_requests, 0u);
  EXPECT_GE(stats.inflight_peak, 1u);
}

}  // namespace
}  // namespace blaze
