// Baseline engine correctness: FlashGraph-like and Graphene-like engines
// must produce the same answers as the oracles (they are only supposed to
// be slower/skewed, never wrong), plus behavioural tests for the cache and
// the skew accounting the figures rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "algorithms/drivers.h"
#include "baselines/flashgraph.h"
#include "baselines/graphene.h"
#include "baselines/inmem.h"
#include "format/on_disk_graph.h"
#include "format/partitioner.h"
#include "graph/generators.h"
#include "test_helpers.h"

namespace blaze::baseline {
namespace {

FlashGraphConfig small_fg_config() {
  FlashGraphConfig cfg;
  cfg.compute_workers = 3;
  cfg.cache_bytes = 1 << 20;
  cfg.io_buffer_bytes = 1 << 20;
  return cfg;
}

algorithms::PageRankOptions pr_options() {
  algorithms::PageRankOptions opts;
  opts.epsilon = 1e-3;
  opts.max_iterations = 30;
  return opts;
}

// --------------------------------------------------------- FlashGraphEngine

TEST(FlashGraph, BfsMatchesOracle) {
  graph::Csr g = graph::generate_rmat(10, 8, 700);
  auto odg = format::make_mem_graph(g);
  FlashGraphEngine eng(odg, small_fg_config());
  auto parent = algorithms::run_bfs(eng, 0).parent;
  auto dist = testutil::reference_bfs_dist(g, 0);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(parent[v] == kInvalidVertex, dist[v] == ~0u) << v;
  }
}

TEST(FlashGraph, PageRankMatchesSequentialDelta) {
  graph::Csr g = graph::generate_rmat(9, 8, 701);
  auto odg = format::make_mem_graph(g);
  FlashGraphEngine eng(odg, small_fg_config());
  auto rank = algorithms::run_pagerank(eng, odg.index(), pr_options()).rank;
  auto want = inmem::pagerank_delta(g, 0.85, 1e-3, 30);
  double err = 0, norm = 1e-12;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err += std::fabs(rank[i] - want[i]);
    norm += std::fabs(want[i]);
  }
  EXPECT_LT(err / norm, 1e-3);
}

TEST(FlashGraph, WccMatchesOracle) {
  graph::Csr g = graph::generate_uniform(2000, 6000, 702);
  graph::Csr gt = graph::transpose(g);
  auto out_g = format::make_mem_graph(g);
  auto in_g = format::make_mem_graph(gt);
  FlashGraphEngine out_eng(out_g, small_fg_config());
  FlashGraphEngine in_eng(in_g, small_fg_config());
  auto ids = algorithms::run_wcc(out_eng, in_eng).ids;
  EXPECT_EQ(ids, inmem::wcc(g));
}

TEST(FlashGraph, SpmvMatchesOracle) {
  graph::Csr g = graph::generate_rmat(9, 8, 703);
  auto odg = format::make_mem_graph(g);
  FlashGraphEngine eng(odg, small_fg_config());
  std::vector<float> x(g.num_vertices(), 1.0f);
  auto y = algorithms::run_spmv(eng, x).y;
  auto want = inmem::spmv(g, x);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(y[i], want[i], 1e-3f + 1e-4f * std::fabs(want[i]));
  }
}

TEST(FlashGraph, BcMatchesBrandes) {
  graph::Csr g = graph::generate_rmat(9, 8, 704);
  graph::Csr gt = graph::transpose(g);
  auto out_g = format::make_mem_graph(g);
  auto in_g = format::make_mem_graph(gt);
  FlashGraphEngine out_eng(out_g, small_fg_config());
  FlashGraphEngine in_eng(in_g, small_fg_config());
  auto dep = algorithms::run_bc(out_eng, in_eng, 0).dependency;
  auto want = inmem::bc_dependency(g, gt, 0);
  double err = 0, norm = 1e-12;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err += std::fabs(dep[i] - want[i]);
    norm += std::fabs(want[i]);
  }
  EXPECT_LT(err / norm, 1e-3);
}

TEST(FlashGraph, CacheCutsDeviceTrafficAcrossIterations) {
  graph::Csr g = graph::generate_weblike(20000, 16, 705, 0.95);
  auto odg = format::make_mem_graph(g);
  FlashGraphConfig cfg = small_fg_config();
  cfg.cache_bytes = 8 << 20;  // graph fits
  FlashGraphEngine eng(odg, cfg);
  algorithms::run_bfs(eng, 0);
  // With the cache holding everything it reads, device bytes are bounded by
  // one copy of the adjacency even though BFS revisits pages across
  // iterations (+1 page slack for the frontier's partial pages).
  EXPECT_LE(odg.device().stats().total_bytes(),
            odg.num_pages() * kPageSize + kPageSize);
  const device::CacheCounters c = eng.cache().cache_counters();
  EXPECT_GT(c.hits + c.misses, 0u);
}

// ----------------------------------------------------------- GrapheneEngine

GrapheneConfig small_gr_config() {
  GrapheneConfig cfg;
  cfg.vertex_map_workers = 3;
  return cfg;
}

format::PartitionedGraph make_pg(const graph::Csr& g,
                                 std::size_t devices = 2) {
  auto pg = format::make_partitioned_graph(g, device::optane_p4800x(),
                                           devices);
  for (auto& d : pg.devices) {
    static_cast<device::SimulatedSsd*>(d.get())->set_no_wait(true);
  }
  return pg;
}

TEST(Graphene, BfsMatchesOracle) {
  graph::Csr g = graph::generate_rmat(10, 8, 710);
  auto pg = make_pg(g);
  GrapheneEngine eng(pg, small_gr_config());
  auto parent = algorithms::run_bfs(eng, 0).parent;
  auto dist = testutil::reference_bfs_dist(g, 0);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(parent[v] == kInvalidVertex, dist[v] == ~0u) << v;
  }
}

TEST(Graphene, PageRankMatchesSequentialDelta) {
  graph::Csr g = graph::generate_rmat(9, 8, 711);
  auto pg = make_pg(g);
  GrapheneEngine eng(pg, small_gr_config());
  auto rank = algorithms::run_pagerank(eng, pg.index, pr_options()).rank;
  auto want = inmem::pagerank_delta(g, 0.85, 1e-3, 30);
  double err = 0, norm = 1e-12;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err += std::fabs(rank[i] - want[i]);
    norm += std::fabs(want[i]);
  }
  EXPECT_LT(err / norm, 1e-3);
}

TEST(Graphene, WccMatchesOracle) {
  graph::Csr g = graph::generate_uniform(2000, 6000, 712);
  graph::Csr gt = graph::transpose(g);
  auto out_pg = make_pg(g);
  auto in_pg = make_pg(gt);
  GrapheneEngine out_eng(out_pg, small_gr_config());
  GrapheneEngine in_eng(in_pg, small_gr_config());
  auto ids = algorithms::run_wcc(out_eng, in_eng).ids;
  EXPECT_EQ(ids, inmem::wcc(g));
}

TEST(Graphene, SpmvMatchesOracle) {
  graph::Csr g = graph::generate_rmat(9, 8, 713);
  auto pg = make_pg(g, 4);
  GrapheneEngine eng(pg, small_gr_config());
  std::vector<float> x(g.num_vertices(), 0.5f);
  auto y = algorithms::run_spmv(eng, x).y;
  auto want = inmem::spmv(g, x);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(y[i], want[i], 1e-3f + 1e-4f * std::fabs(want[i]));
  }
}

TEST(Graphene, SelectiveSchedulingSkewsDeviceBytes) {
  // BFS from one source touches devices unevenly under topology
  // partitioning (the Figure 3 effect). With 4 devices and a power-law
  // graph, per-iteration byte counts should differ meaningfully.
  graph::Csr g = graph::generate_rmat(13, 8, 714);
  auto pg = make_pg(g, 4);
  GrapheneConfig cfg = small_gr_config();
  cfg.window_bytes = 16 * 1024;  // finer requests sharpen the signal
  GrapheneEngine eng(pg, cfg);
  core::QueryStats stats;

  const vertex_t n = eng.num_vertices();
  std::vector<vertex_t> parent(n, kInvalidVertex);
  parent[0] = 0;
  algorithms::BfsProgram prog{parent};
  core::VertexSubset frontier = core::VertexSubset::single(n, 0);
  bool saw_skew = false;
  while (!frontier.empty()) {
    eng.begin_epoch();
    frontier = eng.edge_map(frontier, prog, true, &stats);
    std::uint64_t lo = ~0ull, hi = 0;
    for (auto& d : pg.devices) {
      auto bytes = d->stats().epoch_bytes().back();
      lo = std::min(lo, bytes);
      hi = std::max(hi, bytes);
    }
    if (hi >= lo + 8 * kPageSize) saw_skew = true;
  }
  EXPECT_TRUE(saw_skew) << "expected per-device IO imbalance on power-law";
}

TEST(Graphene, DeviceBytesBalancedAtRest) {
  // Total stored bytes per device are equal by construction.
  graph::Csr g = graph::generate_rmat(10, 8, 715);
  auto pg = make_pg(g, 8);
  auto bytes = pg.partitioner.device_bytes(8);
  auto [lo, hi] = std::minmax_element(bytes.begin(), bytes.end());
  EXPECT_LT(static_cast<double>(*hi - *lo),
            0.2 * static_cast<double>(*hi) + 2 * kPageSize);
}

// ------------------------------------------------------------ inmem oracles

TEST(Inmem, BfsEdgesPerSecondPositive) {
  graph::Csr g = graph::generate_rmat(9, 8, 716);
  EXPECT_GT(inmem::bfs_edges_per_second(g, 0), 0.0);
}

TEST(Inmem, PagerankSumsToOne) {
  graph::Csr g = graph::generate_rmat(9, 8, 717);
  auto rank = inmem::pagerank(g);
  double sum = std::accumulate(rank.begin(), rank.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

}  // namespace
}  // namespace blaze::baseline
