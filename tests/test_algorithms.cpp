// Algorithm correctness: each out-of-core query checked against an exact
// in-memory oracle, on power-law and uniform graphs, in binned and sync
// engine modes.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "algorithms/spmv.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "baselines/inmem.h"
#include "core/runtime.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "test_helpers.h"

namespace blaze {
namespace {

using namespace algorithms;

struct Workload {
  const char* name;
  graph::Csr g;
};

/// Inputs that stress the two-graph EdgeMap (graph + transpose in one
/// pass): an all-vertex frontier over a graph with no edges, and
/// self-loops next to ordinary edges. Both queries must terminate.
std::vector<Workload> two_graph_edge_cases() {
  std::vector<Workload> w;
  w.push_back({"edgeless", graph::build_csr(50, {})});
  std::vector<std::pair<vertex_t, vertex_t>> loops = {
      {0, 0}, {0, 1}, {1, 2}, {2, 2}};
  w.push_back({"self-loops", graph::build_csr(3, loops)});
  return w;
}

class AlgoTest : public ::testing::TestWithParam<bool /*sync_mode*/> {
 protected:
  core::Runtime make_runtime() {
    auto cfg = testutil::test_config(/*workers=*/3, /*bin_count=*/64);
    cfg.sync_mode = GetParam();
    return core::Runtime(cfg);
  }
};

TEST_P(AlgoTest, PageRankMatchesSequentialDelta) {
  graph::Csr g = graph::generate_rmat(10, 8, 600);
  auto odg = format::make_mem_graph(g);
  auto rt = make_runtime();

  PageRankOptions opts;
  opts.epsilon = 1e-3;
  opts.max_iterations = 30;
  auto result = pagerank(rt, odg, opts);
  auto want = baseline::inmem::pagerank_delta(g, opts.damping, opts.epsilon,
                                              opts.max_iterations);
  ASSERT_EQ(result.rank.size(), want.size());
  double err = 0, norm = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err += std::fabs(result.rank[i] - want[i]);
    norm += std::fabs(want[i]);
  }
  // Parallel float accumulation reorders additions; allow a small relative
  // L1 error vs the sequential run.
  EXPECT_LT(err / norm, 1e-3);
}

TEST_P(AlgoTest, PageRankCorrelatesWithPowerIteration) {
  graph::Csr g = graph::generate_rmat(9, 8, 601);
  auto odg = format::make_mem_graph(g);
  auto rt = make_runtime();
  auto result = pagerank(rt, odg, {.epsilon = 1e-4, .max_iterations = 60});
  auto exact = baseline::inmem::pagerank(g);
  // Top-10 by exact rank must rank highly in ours too (order-of-magnitude
  // agreement; PR-delta truncates small updates).
  std::vector<vertex_t> order(g.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](vertex_t a, vertex_t b) {
    return exact[a] > exact[b];
  });
  double mean = 1.0 / g.num_vertices();
  for (int i = 0; i < 10; ++i) {
    EXPECT_GT(result.rank[order[i]], mean)
        << "top vertex " << order[i] << " not ranked high";
  }
}

TEST_P(AlgoTest, WccMatchesUnionFind) {
  std::vector<Workload> inputs = two_graph_edge_cases();
  inputs.push_back({"fragmented", graph::generate_uniform(3000, 9000, 602)});
  for (const auto& [name, g] : inputs) {
    graph::Csr gt = graph::transpose(g);
    auto out_g = format::make_mem_graph(g);
    auto in_g = format::make_mem_graph(gt);
    auto rt = make_runtime();
    auto result = wcc(rt, out_g, in_g);
    EXPECT_EQ(result.ids, baseline::inmem::wcc(g)) << name;
  }
}

TEST_P(AlgoTest, WccSingleComponentOnConnectedGraph) {
  graph::Csr g = graph::generate_rmat(9, 16, 603);
  graph::Csr gt = graph::transpose(g);
  auto out_g = format::make_mem_graph(g);
  auto in_g = format::make_mem_graph(gt);
  auto rt = make_runtime();
  auto result = wcc(rt, out_g, in_g);
  auto want = baseline::inmem::wcc(g);
  EXPECT_EQ(result.ids, want);
}

TEST_P(AlgoTest, SpmvMatchesSequential) {
  graph::Csr g = graph::generate_rmat(10, 8, 604);
  auto odg = format::make_mem_graph(g);
  auto rt = make_runtime();
  std::vector<float> x(g.num_vertices());
  Xoshiro256 rng(7);
  for (auto& v : x) v = static_cast<float>(rng.next_double());
  auto result = spmv(rt, odg, x);
  auto want = baseline::inmem::spmv(g, x);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(result.y[i], want[i], 1e-3f + 1e-4f * std::fabs(want[i]))
        << i;
  }
}

TEST_P(AlgoTest, BcMatchesBrandes) {
  graph::Csr g = graph::generate_rmat(9, 8, 605);
  graph::Csr gt = graph::transpose(g);
  auto out_g = format::make_mem_graph(g);
  auto in_g = format::make_mem_graph(gt);
  auto rt = make_runtime();
  auto result = bc(rt, out_g, in_g, 0);
  auto want = baseline::inmem::bc_dependency(g, gt, 0);
  double err = 0, norm = 1e-12;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err += std::fabs(result.dependency[i] - want[i]);
    norm += std::fabs(want[i]);
  }
  EXPECT_LT(err / norm, 1e-3);
  // Path counts are exact integers at small scale.
  std::vector<double> sigma_want(g.num_vertices(), 0.0);
  EXPECT_EQ(result.num_paths[0], 1.0f);
}

TEST_P(AlgoTest, SsspMatchesDijkstra) {
  graph::Csr g = graph::generate_rmat(10, 8, 606);
  auto odg = format::make_mem_graph(g);
  auto rt = make_runtime();
  auto result = sssp(rt, odg, 3);
  auto want = baseline::inmem::sssp_dist(g, 3);
  EXPECT_EQ(result.dist, want);
}

TEST_P(AlgoTest, KcoreMatchesPeeling) {
  std::vector<Workload> inputs = two_graph_edge_cases();
  inputs.push_back({"rmat", graph::generate_rmat(9, 6, 607)});
  for (const auto& [name, g] : inputs) {
    graph::Csr gt = graph::transpose(g);
    auto out_g = format::make_mem_graph(g);
    auto in_g = format::make_mem_graph(gt);
    auto rt = make_runtime();
    auto result = kcore(rt, out_g, in_g);
    EXPECT_EQ(result.coreness, baseline::inmem::coreness(g, gt)) << name;
    // coreness plus the residual-degree array, one u32 each per vertex.
    EXPECT_EQ(result.algorithm_bytes(),
              2 * g.num_vertices() * sizeof(std::uint32_t))
        << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, AlgoTest, ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "sync" : "binned";
                         });

// ------------------------------------------------------- memory accounting

TEST(AlgorithmMemory, FootprintComponentsReported) {
  graph::Csr g = graph::generate_rmat(10, 8, 608);
  auto odg = format::make_mem_graph(g);
  core::Runtime rt(testutil::test_config());
  auto result = bfs(rt, odg, 0);
  EXPECT_EQ(result.algorithm_bytes(),
            g.num_vertices() * sizeof(vertex_t));
  EXPECT_GT(odg.metadata_bytes(), 0u);
  EXPECT_GT(rt.arena_bytes(), 0u);
  // Semi-external promise: metadata is a small fraction of the graph.
  EXPECT_LT(odg.metadata_bytes(), odg.input_bytes());
}

}  // namespace
}  // namespace blaze
