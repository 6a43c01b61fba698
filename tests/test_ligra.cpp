// In-core Ligra-style engine: the generic drivers must produce
// oracle-exact results with zero IO.
#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/drivers.h"
#include "baselines/inmem.h"
#include "baselines/ligra.h"
#include "format/graph_index.h"
#include "graph/generators.h"
#include "test_helpers.h"

namespace blaze::baseline {
namespace {

TEST(Ligra, BfsMatchesOracle) {
  graph::Csr g = graph::generate_rmat(10, 8, 1500);
  LigraEngine eng(g, 3);
  auto parent = algorithms::run_bfs(eng, 0).parent;
  auto dist = testutil::reference_bfs_dist(g, 0);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(parent[v] == kInvalidVertex, dist[v] == ~0u) << v;
    if (parent[v] != kInvalidVertex && v != 0) {
      EXPECT_EQ(dist[parent[v]] + 1, dist[v]) << v;
    }
  }
}

TEST(Ligra, WccMatchesOracle) {
  graph::Csr g = graph::generate_uniform(2500, 7500, 1501);
  graph::Csr gt = graph::transpose(g);
  LigraEngine out_eng(g, 3), in_eng(gt, 3);
  EXPECT_EQ(algorithms::run_wcc(out_eng, in_eng).ids, inmem::wcc(g));
}

TEST(Ligra, SpmvMatchesOracle) {
  graph::Csr g = graph::generate_rmat(9, 8, 1502);
  LigraEngine eng(g, 2);
  std::vector<float> x(g.num_vertices(), 2.0f);
  auto y = algorithms::run_spmv(eng, x).y;
  auto want = inmem::spmv(g, x);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(y[i], want[i], 1e-3f + 1e-4f * std::fabs(want[i])) << i;
  }
}

TEST(Ligra, PageRankMatchesSequentialDelta) {
  graph::Csr g = graph::generate_rmat(9, 8, 1503);
  std::vector<std::uint32_t> degrees(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) degrees[v] = g.degree(v);
  format::GraphIndex index(degrees);
  LigraEngine eng(g, 3);
  algorithms::PageRankOptions opts;
  opts.epsilon = 1e-3;
  opts.max_iterations = 30;
  auto rank = algorithms::run_pagerank(eng, index, opts).rank;
  auto want = inmem::pagerank_delta(g, 0.85, 1e-3, 30);
  double err = 0, norm = 1e-12;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err += std::fabs(rank[i] - want[i]);
    norm += std::fabs(want[i]);
  }
  EXPECT_LT(err / norm, 1e-3);
}

TEST(Ligra, BcMatchesBrandes) {
  graph::Csr g = graph::generate_rmat(9, 8, 1504);
  graph::Csr gt = graph::transpose(g);
  LigraEngine out_eng(g, 3), in_eng(gt, 3);
  auto dep = algorithms::run_bc(out_eng, in_eng, 0).dependency;
  auto want = inmem::bc_dependency(g, gt, 0);
  double err = 0, norm = 1e-12;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err += std::fabs(dep[i] - want[i]);
    norm += std::fabs(want[i]);
  }
  EXPECT_LT(err / norm, 1e-3);
}

TEST(Ligra, StatsTrackEdgesNotBytes) {
  graph::Csr g = graph::generate_rmat(8, 8, 1505);
  LigraEngine eng(g, 2);
  const core::QueryStats stats = algorithms::run_bfs(eng, 0).stats;
  EXPECT_GT(stats.edges_scattered, 0u);
  EXPECT_EQ(stats.bytes_read, 0u);  // no IO at all
}

}  // namespace
}  // namespace blaze::baseline
