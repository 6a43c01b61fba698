// End-to-end failure handling: the io::IoError taxonomy, bounded retry of
// transient faults, checksum-based corruption detection, corrupt page bytes
// rejected by the page-scan kernel (FlashGraph's engine included), and the
// buffer reclamation invariant — after ANY propagated failure the
// IoBufferPool is back at full occupancy and the Runtime runs the next
// query normally.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/drivers.h"
#include "algorithms/pagerank.h"
#include "algorithms/wcc.h"
#include "baselines/flashgraph.h"
#include "baselines/inmem.h"
#include "core/edge_map.h"
#include "core/runtime.h"
#include "device/faulty_device.h"
#include "device/mem_device.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "io/io_error.h"
#include "io/io_pipeline.h"
#include "io/page_verify.h"
#include "test_helpers.h"

namespace blaze {
namespace {

using core::EdgeMapOptions;
using core::QueryStats;
using core::Runtime;
using core::VertexSubset;
using device::FaultMode;
using device::FaultyDevice;

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

/// Consumes every filled buffer until the handle completes; returns the
/// number of pages delivered.
std::uint64_t drain(io::ReadHandle& handle, io::IoBufferPool& pool) {
  std::uint64_t pages = 0;
  handle.consume(
      pool,
      [&](std::uint32_t, std::uint64_t, const std::byte*, std::uint64_t) {
        ++pages;
      },
      [] { return false; });
  return pages;
}

io::ErrorKind kind_of(std::exception_ptr err) {
  try {
    std::rethrow_exception(err);
  } catch (const io::IoError& e) {
    return e.kind();
  }
}

/// The reclamation invariant: once the pipeline is quiet and the consumer
/// has drained, every buffer is back in the free list.
void expect_pool_whole(io::IoPipeline& pipeline, io::IoBufferPool& pool) {
  pipeline.quiesce();
  EXPECT_EQ(pool.available(), pool.num_buffers());
}

/// On-disk graph whose adjacency sits behind a FaultyDevice.
format::OnDiskGraph faulty_graph(
    const graph::Csr& g, std::shared_ptr<FaultyDevice>* out,
    std::function<bool(std::uint64_t, std::uint64_t)> should_fail,
    FaultMode mode, std::uint64_t transient_budget = 1) {
  std::vector<std::byte> adj = format::serialize_adjacency(g);
  auto inner = std::make_shared<device::MemDevice>("m", std::move(adj));
  auto faulty = std::make_shared<FaultyDevice>(
      inner, std::move(should_fail), mode, transient_budget);
  if (out) *out = faulty;
  std::vector<std::uint32_t> degrees(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) degrees[v] = g.degree(v);
  return format::OnDiskGraph(format::GraphIndex(degrees), faulty);
}

// --------------------------------------------------------- pipeline layer

TEST(FaultTolerance, PermanentFailureReclaimsEveryBuffer) {
  auto inner = make_tagged_device(32);
  // Requests overlapping page 20 fail permanently; earlier requests are in
  // flight or already queued for the consumer when the fault strikes.
  auto faulty = std::make_shared<FaultyDevice>(
      inner,
      [](std::uint64_t off, std::uint64_t len) {
        return off < 21 * kPageSize && off + len > 20 * kPageSize;
      },
      FaultMode::kPermanent);
  io::IoBufferPool pool(8 * 4 * kPageSize);
  io::IoPipeline pipeline;

  std::vector<io::ReadBatch> batches(1);
  batches[0].device = faulty.get();
  batches[0].pages = iota_pages(32);
  auto handle = pipeline.submit(pool, std::move(batches), 16);
  drain(*handle, pool);
  handle->wait();

  ASSERT_NE(handle->error(), nullptr);
  EXPECT_EQ(kind_of(handle->error()), io::ErrorKind::kPermanent);
  EXPECT_EQ(handle->stats().failed_requests, 1u);
  EXPECT_EQ(handle->stats().retries, 0u);  // permanent: never retried
  EXPECT_GE(faulty->injected_failures(), 1u);
  expect_pool_whole(pipeline, pool);
}

TEST(FaultTolerance, TransientFailureIsRetriedAndSucceeds) {
  auto inner = make_tagged_device(16);
  auto faulty = std::make_shared<FaultyDevice>(
      inner, [](std::uint64_t, std::uint64_t) { return true; },
      FaultMode::kTransient, /*transient_budget=*/2);
  io::IoBufferPool pool(8 * 4 * kPageSize);
  io::IoPipeline pipeline;
  pipeline.set_retry_policy({/*max_retries=*/3, /*backoff_us=*/1});

  std::vector<io::ReadBatch> batches(1);
  batches[0].device = faulty.get();
  batches[0].pages = iota_pages(16);
  auto handle = pipeline.submit(pool, std::move(batches), 8);
  const std::uint64_t pages = drain(*handle, pool);
  handle->wait();

  EXPECT_EQ(handle->error(), nullptr);  // the fault was absorbed
  EXPECT_EQ(pages, 16u);
  EXPECT_EQ(handle->stats().retries, 2u);  // one per spent budget unit
  EXPECT_EQ(handle->stats().gave_up, 0u);
  EXPECT_EQ(handle->stats().failed_requests, 0u);
  EXPECT_EQ(faulty->transient_budget_left(), 0u);
  expect_pool_whole(pipeline, pool);
}

TEST(FaultTolerance, ExhaustedRetryBudgetGivesUpAndReclaims) {
  auto inner = make_tagged_device(16);
  // The device never recovers within the retry budget (100 failures vs.
  // 1 + 2 attempts per request).
  auto faulty = std::make_shared<FaultyDevice>(
      inner, [](std::uint64_t, std::uint64_t) { return true; },
      FaultMode::kTransient, /*transient_budget=*/100);
  io::IoBufferPool pool(8 * 4 * kPageSize);
  io::IoPipeline pipeline;
  pipeline.set_retry_policy({/*max_retries=*/2, /*backoff_us=*/1});

  std::vector<io::ReadBatch> batches(1);
  batches[0].device = faulty.get();
  batches[0].pages = iota_pages(16);
  auto handle = pipeline.submit(pool, std::move(batches), 8);
  drain(*handle, pool);
  handle->wait();

  ASSERT_NE(handle->error(), nullptr);
  EXPECT_EQ(kind_of(handle->error()), io::ErrorKind::kTransient);
  EXPECT_EQ(handle->stats().gave_up, 1u);
  EXPECT_EQ(handle->stats().retries, 2u);
  EXPECT_EQ(handle->stats().failed_requests, 1u);
  expect_pool_whole(pipeline, pool);
}

TEST(FaultTolerance, ChecksumVerifierDetectsSilentCorruption) {
  auto inner = make_tagged_device(32);
  const auto sums = io::snapshot_page_checksums(*inner);
  auto faulty = std::make_shared<FaultyDevice>(
      inner,
      [](std::uint64_t off, std::uint64_t len) {
        return off < 13 * kPageSize && off + len > 12 * kPageSize;
      },
      FaultMode::kCorruption);
  io::IoBufferPool pool(8 * 4 * kPageSize);
  io::IoPipeline pipeline;

  std::vector<io::ReadBatch> batches(1);
  batches[0].device = faulty.get();
  batches[0].pages = iota_pages(32);
  batches[0].verifier = io::make_checksum_verifier(sums);
  auto handle = pipeline.submit(pool, std::move(batches), 8);
  drain(*handle, pool);
  handle->wait();

  ASSERT_NE(handle->error(), nullptr);
  EXPECT_EQ(kind_of(handle->error()), io::ErrorKind::kCorruption);
  EXPECT_GE(faulty->injected_corruptions(), 1u);
  expect_pool_whole(pipeline, pool);

  // Without the verifier the corruption would have sailed through: same
  // read, no integrity gate, no error. (This is exactly why corruption is
  // its own error kind — the device itself reports success.)
  std::vector<io::ReadBatch> blind(1);
  blind[0].device = faulty.get();
  blind[0].pages = iota_pages(32);
  auto h2 = pipeline.submit(pool, std::move(blind), 8);
  drain(*h2, pool);
  h2->wait();
  EXPECT_EQ(h2->error(), nullptr);
  expect_pool_whole(pipeline, pool);
}

TEST(FaultTolerance, VerifierPassesCleanReads) {
  auto dev = make_tagged_device(16);
  const auto sums = io::snapshot_page_checksums(*dev);
  io::IoBufferPool pool(8 * 4 * kPageSize);
  io::IoPipeline pipeline;
  std::vector<io::ReadBatch> batches(1);
  batches[0].device = dev.get();
  batches[0].pages = iota_pages(16);
  batches[0].verifier = io::make_checksum_verifier(sums);
  auto handle = pipeline.submit(pool, std::move(batches), 8);
  const std::uint64_t pages = drain(*handle, pool);
  handle->wait();
  EXPECT_EQ(handle->error(), nullptr);
  EXPECT_EQ(pages, 16u);
  expect_pool_whole(pipeline, pool);
}

// ----------------------------------------------------------- engine layer

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

TEST(FaultTolerance, EdgeMapPushFaultKeepsRuntimeReusable) {
  graph::Csr g = graph::generate_rmat(10, 8, 811);
  std::shared_ptr<FaultyDevice> faulty;
  auto odg = faulty_graph(
      g, &faulty,
      [](std::uint64_t off, std::uint64_t len) {
        return off < 3 * kPageSize && off + len > 2 * kPageSize;
      },
      FaultMode::kPermanent);

  Runtime rt(testutil::test_config());
  const vertex_t n = g.num_vertices();
  std::vector<std::uint32_t> acc(n, 0);
  CountProgram prog{acc};
  EXPECT_THROW(core::edge_map(rt, odg, VertexSubset::all(n), prog, {}),
               io::IoError);
  EXPECT_GE(faulty->injected_failures(), 1u);

  // The invariant under test: the SAME pool (no arena rebuild) is back at
  // full occupancy, and the same Runtime runs a clean query correctly.
  rt.io_pipeline().quiesce();
  EXPECT_EQ(rt.io_pool().available(), rt.io_pool().num_buffers());

  auto clean = format::make_mem_graph(g);
  std::vector<std::uint32_t> acc2(n, 0);
  CountProgram prog2{acc2};
  core::edge_map(rt, clean, VertexSubset::all(n), prog2, {});
  std::vector<std::uint32_t> want(n, 0);
  for (vertex_t d : g.edges()) ++want[d];
  EXPECT_EQ(acc2, want);
  EXPECT_EQ(rt.io_pool().available(), rt.io_pool().num_buffers());
}

TEST(FaultTolerance, TransposeFaultInTwoGraphPassKeepsRuntimeReusable) {
  // One EdgeMap pass streams the graph and its transpose through one
  // handle; only the transpose's device fails. The healthy reader's
  // buffers must come back too.
  graph::Csr g = graph::generate_rmat(10, 8, 817);
  graph::Csr gt = graph::transpose(g);
  auto out_g = format::make_mem_graph(g);
  std::shared_ptr<FaultyDevice> faulty;
  auto bad_t = faulty_graph(
      gt, &faulty,
      [](std::uint64_t off, std::uint64_t len) {
        return off < 3 * kPageSize && off + len > 2 * kPageSize;
      },
      FaultMode::kPermanent);

  Runtime rt(testutil::test_config());
  const vertex_t n = g.num_vertices();
  std::vector<std::uint32_t> acc(n, 0);
  CountProgram prog{acc};
  EXPECT_THROW(
      core::edge_map(rt.default_context(), {&out_g, &bad_t},
                     VertexSubset::all(n), prog, {}),
      io::IoError);
  EXPECT_GE(faulty->injected_failures(), 1u);
  rt.io_pipeline().quiesce();
  EXPECT_EQ(rt.io_pool().available(), rt.io_pool().num_buffers());

  auto in_g = format::make_mem_graph(gt);
  auto result = algorithms::wcc(rt, out_g, in_g);
  EXPECT_EQ(result.ids, baseline::inmem::wcc(g));
  EXPECT_EQ(rt.io_pool().available(), rt.io_pool().num_buffers());
}

TEST(FaultTolerance, BfsSurvivesTransientFaultsWithIdenticalResult) {
  graph::Csr g = graph::generate_rmat(10, 8, 813);
  std::shared_ptr<FaultyDevice> faulty;
  auto odg = faulty_graph(g, &faulty,
                          [](std::uint64_t, std::uint64_t) { return true; },
                          FaultMode::kTransient, /*transient_budget=*/3);
  auto clean = format::make_mem_graph(g);

  Runtime rt(testutil::test_config());
  auto clean_result = algorithms::bfs(rt, clean, 1);
  auto fault_result = algorithms::bfs(rt, odg, 1);

  // Retries absorbed every fault; nothing propagated.
  EXPECT_EQ(fault_result.stats.retries, 3u);
  EXPECT_EQ(fault_result.stats.failed_requests, 0u);
  EXPECT_TRUE(fault_result.stats.experienced_faults());
  EXPECT_EQ(faulty->injected_failures(), 3u);

  // Identical traversal: same reachability, same hop distance per vertex
  // (parent choice within a level is scheduling-dependent, distances are
  // not).
  auto dist = testutil::reference_bfs_dist(g, 1);
  ASSERT_EQ(clean_result.parent.size(), fault_result.parent.size());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(fault_result.parent[v] == kInvalidVertex,
              clean_result.parent[v] == kInvalidVertex)
        << v;
    if (fault_result.parent[v] != kInvalidVertex && v != 1) {
      ASSERT_NE(dist[v], ~0u) << v;
      EXPECT_EQ(dist[fault_result.parent[v]] + 1, dist[v]) << v;
    }
  }
  EXPECT_EQ(fault_result.iterations, clean_result.iterations);
}

TEST(FaultTolerance, PageRankSurvivesTransientFaultsWithIdenticalResult) {
  graph::Csr g = graph::generate_rmat(10, 8, 814);
  std::shared_ptr<FaultyDevice> faulty;
  // Budget must stay within the default retry limit (3): the policy always
  // matches, so one request absorbs the whole budget back-to-back.
  auto odg = faulty_graph(g, &faulty,
                          [](std::uint64_t, std::uint64_t) { return true; },
                          FaultMode::kTransient, /*transient_budget=*/2);
  auto clean = format::make_mem_graph(g);

  Runtime rt(testutil::test_config());
  algorithms::PageRankOptions opts;
  opts.max_iterations = 10;
  auto clean_result = algorithms::pagerank(rt, clean, opts);
  auto fault_result = algorithms::pagerank(rt, odg, opts);

  EXPECT_EQ(fault_result.stats.retries, 2u);
  EXPECT_EQ(fault_result.stats.failed_requests, 0u);
  EXPECT_EQ(fault_result.iterations, clean_result.iterations);
  ASSERT_EQ(fault_result.rank.size(), clean_result.rank.size());
  for (std::size_t v = 0; v < clean_result.rank.size(); ++v) {
    // Gather order is scheduling-dependent, so float sums may differ in
    // the last ulps; the faulted run must match the clean run to within
    // that noise.
    ASSERT_NEAR(fault_result.rank[v], clean_result.rank[v],
                1e-5f * (1.0f + std::fabs(clean_result.rank[v])))
        << v;
  }
}

TEST(FaultTolerance, BackToBackFaultedQueriesDoNotWedgeTheRuntime) {
  // Regression for the motivating bug: one injected fault leaked in-flight
  // buffers, so the NEXT query deadlocked in acquire_blocking. Three
  // consecutive faulted queries + one clean query must all terminate.
  graph::Csr g = graph::generate_rmat(9, 8, 815);
  Runtime rt(testutil::test_config());
  const vertex_t n = g.num_vertices();
  for (int round = 0; round < 3; ++round) {
    std::shared_ptr<FaultyDevice> faulty;
    auto odg = faulty_graph(
        g, &faulty, [](std::uint64_t, std::uint64_t) { return true; },
        FaultMode::kPermanent);
    std::vector<std::uint32_t> acc(n, 0);
    CountProgram prog{acc};
    EXPECT_THROW(core::edge_map(rt, odg, VertexSubset::all(n), prog, {}),
                 io::IoError)
        << "round " << round;
    rt.io_pipeline().quiesce();
    EXPECT_EQ(rt.io_pool().available(), rt.io_pool().num_buffers())
        << "round " << round;
  }
  auto clean = format::make_mem_graph(g);
  auto result = algorithms::bfs(rt, clean, 0);
  auto dist = testutil::reference_bfs_dist(g, 0);
  for (vertex_t v = 0; v < n; ++v) {
    EXPECT_EQ(result.parent[v] == kInvalidVertex, dist[v] == ~0u) << v;
  }
}

// ------------------------------------------------------ corrupt page bytes

enum class Corruption { kFlatDstOutOfRange, kOverlongVarint, kTamperedCarry };

const char* name_of(Corruption how) {
  switch (how) {
    case Corruption::kFlatDstOutOfRange: return "flat dst 0xFFFFFFFF";
    case Corruption::kOverlongVarint: return "six continuation bytes";
    case Corruption::kTamperedCarry: return "tampered carry";
  }
  return "?";
}

std::span<std::byte> adjacency_bytes(const format::OnDiskGraph& odg) {
  return dynamic_cast<device::MemDevice&>(odg.device()).raw();
}

/// Lays `g` out in memory, then corrupts the bytes (or the dvarint page
/// carry) that every full scan of it decodes.
format::OnDiskGraph corrupt_graph(const graph::Csr& g, Corruption how) {
  if (how == Corruption::kFlatDstOutOfRange) {
    auto odg = format::make_mem_graph(g);
    // The first record of page 0 is the first edge of the first non-sink.
    std::fill_n(adjacency_bytes(odg).begin(), sizeof(vertex_t),
                std::byte{0xff});
    return odg;
  }
  auto odg =
      format::make_mem_graph(g, 1, format::AdjacencyEncoding::kDeltaVarint);
  const format::GraphIndex& index = odg.index();
  if (how == Corruption::kOverlongVarint) {
    // Six continuation bytes at the start of a list that holds them, on
    // the page the list starts on.
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
      const std::uint64_t off = index.byte_offset(v);
      if (index.encoded_length(v) >= 6 && off % kPageSize + 6 <= kPageSize) {
        std::fill_n(adjacency_bytes(odg).begin() + off, 6, std::byte{0x80});
        return odg;
      }
    }
    ADD_FAILURE() << "no list of 6+ encoded bytes";
    return odg;
  }
  // A page whose first list straddles in claims a split varint of 35 bits.
  std::vector<format::PageCarry> carries(index.carries().begin(),
                                         index.carries().end());
  bool tampered = false;
  for (std::uint64_t p = 1; p < odg.num_pages() && !tampered; ++p) {
    if (index.byte_offset(odg.page_map().range(p).begin) < p * kPageSize) {
      carries[p].partial_shift = 35;
      tampered = true;
    }
  }
  EXPECT_TRUE(tampered) << "no list straddles a page boundary";
  std::vector<std::uint32_t> lengths(index.encoded_lengths().begin(),
                                     index.encoded_lengths().end());
  return format::OnDiskGraph(
      format::GraphIndex(index.degrees(), std::move(lengths),
                         std::move(carries)),
      odg.device_ptr());
}

/// `run` must raise IoError{kCorruption}; afterwards the pool is whole and
/// the same Runtime answers a clean BFS correctly.
void expect_corruption_then_clean_bfs(Runtime& rt, const graph::Csr& g,
                                      const std::function<void()>& run,
                                      const std::string& what) {
  try {
    run();
    ADD_FAILURE() << what << ": no error raised";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kCorruption)
        << what << ": " << e.what();
  }
  rt.io_pipeline().quiesce();
  EXPECT_EQ(rt.io_pool().available(), rt.io_pool().num_buffers()) << what;

  auto clean = format::make_mem_graph(g);
  auto result = algorithms::bfs(rt, clean, 0);
  auto dist = testutil::reference_bfs_dist(g, 0);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(result.parent[v] == kInvalidVertex, dist[v] == ~0u)
        << what << ": vertex " << v;
  }
}

TEST(FaultTolerance, CorruptPageRaisesCorruptionOnEveryPath) {
  graph::Csr g = graph::generate_rmat(11, 16, 816);
  const vertex_t n = g.num_vertices();
  const auto all = VertexSubset::all(n);
  auto clean = format::make_mem_graph(g);
  const graph::Csr gt = graph::transpose(g);
  Runtime rt(testutil::test_config());
  for (Corruption how : {Corruption::kFlatDstOutOfRange,
                         Corruption::kOverlongVarint,
                         Corruption::kTamperedCarry}) {
    auto bad = corrupt_graph(g, how);
    auto bad_t = corrupt_graph(gt, how);
    std::vector<std::uint32_t> acc(n, 0);
    CountProgram prog{acc};
    const std::string what = name_of(how);
    expect_corruption_then_clean_bfs(
        rt, g, [&] { core::edge_map(rt, bad, all, prog, {}); },
        what + ", push");
    // One pass over a clean graph and a corrupt transpose.
    expect_corruption_then_clean_bfs(
        rt, g,
        [&] {
          core::edge_map(rt.default_context(), {&clean, &bad_t}, all, prog,
                         {});
        },
        what + ", two-graph push");

    // FlashGraph owns its pools and page cache, so its engine is the one
    // that must stay usable: once its graph is whole again, the same
    // engine answers a BFS.
    format::OnDiskGraph fg_graph = corrupt_graph(g, how);
    baseline::FlashGraphConfig fg_cfg;
    fg_cfg.compute_workers = 3;
    fg_cfg.cache_bytes = 1 << 20;
    fg_cfg.io_buffer_bytes = 1 << 20;
    baseline::FlashGraphEngine fg(fg_graph, fg_cfg);
    try {
      fg.edge_map(all, prog, /*output=*/false);
      ADD_FAILURE() << what << ", FlashGraph: no error raised";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.kind(), io::ErrorKind::kCorruption)
          << what << ", FlashGraph: " << e.what();
    }
    EXPECT_EQ(fg.io_pool().available(), fg.io_pool().num_buffers()) << what;
    fg_graph = how == Corruption::kFlatDstOutOfRange
                   ? format::make_mem_graph(g)
                   : format::make_mem_graph(
                         g, 1, format::AdjacencyEncoding::kDeltaVarint);
    auto result = algorithms::run_bfs(fg, 0);
    auto dist = testutil::reference_bfs_dist(g, 0);
    for (vertex_t v = 0; v < n; ++v) {
      ASSERT_EQ(result.parent[v] == kInvalidVertex, dist[v] == ~0u)
          << what << ", FlashGraph: vertex " << v;
    }
  }
}

/// A device read FlashGraph's IO thread cannot complete raises its IoError
/// from the query (it used to escape the thread and terminate the process).
/// Every buffer is back in the engine's pool, and once the device works
/// again the same engine answers a BFS.
TEST(FaultTolerance, FlashGraphDeviceFaultKeepsEngineReusable) {
  graph::Csr g = graph::generate_rmat(11, 16, 817);
  const vertex_t n = g.num_vertices();
  std::atomic<bool> broken{true};
  std::shared_ptr<FaultyDevice> faulty;
  auto odg = faulty_graph(
      g, &faulty,
      [&](std::uint64_t off, std::uint64_t) {
        return broken.load() && off >= 5 * kPageSize;
      },
      FaultMode::kPermanent);
  ASSERT_GT(odg.num_pages(), 10u);

  baseline::FlashGraphConfig cfg;
  cfg.compute_workers = 3;
  cfg.cache_bytes = 1 << 20;
  cfg.io_buffer_bytes = 1 << 20;
  baseline::FlashGraphEngine fg(odg, cfg);
  EXPECT_THROW(algorithms::run_bfs(fg, 0), io::IoError);
  EXPECT_GE(faulty->injected_failures(), 1u);
  EXPECT_EQ(fg.io_pool().available(), fg.io_pool().num_buffers());

  broken.store(false);
  auto result = algorithms::run_bfs(fg, 0);
  auto dist = testutil::reference_bfs_dist(g, 0);
  for (vertex_t v = 0; v < n; ++v) {
    ASSERT_EQ(result.parent[v] == kInvalidVertex, dist[v] == ~0u)
        << "vertex " << v;
  }
  EXPECT_EQ(fg.io_pool().available(), fg.io_pool().num_buffers());
}

}  // namespace
}  // namespace blaze
