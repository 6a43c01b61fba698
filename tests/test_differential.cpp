// Randomized differential harness: every engine in the repository runs the
// same queries on the same randomly generated graphs and must agree with
// the sequential oracles. One failure here localizes to whichever engine
// disagrees.
//
// Engines covered per round: Blaze (binned), Blaze (sync/CAS),
// FlashGraph-like, Graphene-like, in-core Ligra-style, and the
// destination-partitioned cluster.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/flashgraph.h"
#include "baselines/graphene.h"
#include "baselines/inmem.h"
#include "baselines/ligra.h"
#include "baselines/queries.h"
#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/kcore.h"
#include "algorithms/mis.h"
#include "algorithms/pagerank.h"
#include "algorithms/radii.h"
#include "algorithms/spmv.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "graph/weighted.h"
#include "core/edge_map.h"
#include "core/runtime.h"
#include "format/on_disk_graph.h"
#include "format/partitioner.h"
#include "graph/generators.h"
#include "scaleout/cluster.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace blaze {
namespace {

graph::Csr random_graph(Xoshiro256& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return graph::generate_rmat(8 + static_cast<unsigned>(rng.next_below(3)),
                                  4 + static_cast<unsigned>(rng.next_below(8)),
                                  rng.next());
    case 1: {
      auto n = static_cast<vertex_t>(500 + rng.next_below(3000));
      return graph::generate_uniform(n, n * (2 + rng.next_below(10)),
                                     rng.next());
    }
    case 2:
      return graph::generate_weblike(
          static_cast<vertex_t>(1000 + rng.next_below(3000)),
          4 + static_cast<unsigned>(rng.next_below(12)), rng.next());
    default:
      return graph::generate_preferential(
          static_cast<vertex_t>(500 + rng.next_below(2000)),
          2 + static_cast<unsigned>(rng.next_below(6)), rng.next());
  }
}

/// Visited-set of a parent array.
std::vector<bool> visited_of(const std::vector<vertex_t>& parent) {
  std::vector<bool> v(parent.size());
  for (std::size_t i = 0; i < parent.size(); ++i) {
    v[i] = parent[i] != kInvalidVertex;
  }
  return v;
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, AllEnginesAgreeOnBfsWccSpmv) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  graph::Csr g = random_graph(rng);
  graph::Csr gt = graph::transpose(g);
  const vertex_t source =
      static_cast<vertex_t>(rng.next_below(g.num_vertices()));

  // Oracles.
  auto want_visited = visited_of(baseline::inmem::bfs_parent(g, source));
  auto want_wcc = baseline::inmem::wcc(g);
  std::vector<float> x(g.num_vertices(), 1.0f);
  auto want_y = baseline::inmem::spmv(g, x);
  auto check_spmv = [&](const std::vector<float>& y, const char* who) {
    for (std::size_t i = 0; i < want_y.size(); ++i) {
      ASSERT_NEAR(y[i], want_y[i], 1e-2f + 1e-3f * std::fabs(want_y[i]))
          << who << " vertex " << i;
    }
  };

  // --- Blaze, binned and sync --------------------------------------------
  for (bool sync : {false, true}) {
    auto out_g = format::make_mem_graph(g);
    auto in_g = format::make_mem_graph(gt);
    auto cfg = testutil::test_config(3, 32);
    cfg.sync_mode = sync;
    core::Runtime rt(cfg);
    auto b = algorithms::bfs(rt, out_g, source);
    EXPECT_EQ(visited_of(b.parent), want_visited)
        << (sync ? "blaze-sync" : "blaze");
    auto w = algorithms::wcc(rt, out_g, in_g);
    EXPECT_EQ(w.ids, want_wcc) << (sync ? "blaze-sync" : "blaze");
    auto s = algorithms::spmv(rt, out_g, x);
    check_spmv(s.y, sync ? "blaze-sync" : "blaze");
  }

  // --- FlashGraph-like, both adjacency encodings ---------------------------
  for (auto encoding : {format::AdjacencyEncoding::kFlat,
                        format::AdjacencyEncoding::kDeltaVarint}) {
    const char* who = encoding == format::AdjacencyEncoding::kFlat
                          ? "flashgraph-flat"
                          : "flashgraph-dvarint";
    auto out_g = format::make_mem_graph(g, 1, encoding);
    auto in_g = format::make_mem_graph(gt, 1, encoding);
    baseline::FlashGraphConfig cfg;
    cfg.compute_workers = 3;
    cfg.cache_bytes = 1 << 20;
    cfg.io_buffer_bytes = 1 << 20;
    baseline::FlashGraphEngine out_eng(out_g, cfg);
    baseline::FlashGraphEngine in_eng(in_g, cfg);
    EXPECT_EQ(visited_of(baseline::run_bfs(out_eng, source)), want_visited)
        << who;
    EXPECT_EQ(baseline::run_wcc(out_eng, in_eng), want_wcc) << who;
    check_spmv(baseline::run_spmv(out_eng, x), who);
  }

  // --- Graphene-like --------------------------------------------------------
  {
    auto pg = format::make_partitioned_graph(g, device::optane_p4800x(), 2);
    auto pgt = format::make_partitioned_graph(gt, device::optane_p4800x(),
                                              2);
    for (auto* p : {&pg, &pgt}) {
      for (auto& d : p->devices) {
        static_cast<device::SimulatedSsd*>(d.get())->set_no_wait(true);
      }
    }
    baseline::GrapheneConfig cfg;
    cfg.vertex_map_workers = 3;
    baseline::GrapheneEngine out_eng(pg, cfg);
    baseline::GrapheneEngine in_eng(pgt, cfg);
    EXPECT_EQ(visited_of(baseline::run_bfs(out_eng, source)), want_visited)
        << "graphene";
    EXPECT_EQ(baseline::run_wcc(out_eng, in_eng), want_wcc) << "graphene";
    check_spmv(baseline::run_spmv(out_eng, x), "graphene");
  }

  // --- In-core Ligra-style ---------------------------------------------------
  {
    baseline::LigraEngine out_eng(g, 3), in_eng(gt, 3);
    EXPECT_EQ(visited_of(baseline::run_bfs(out_eng, source)), want_visited)
        << "ligra";
    EXPECT_EQ(baseline::run_wcc(out_eng, in_eng), want_wcc) << "ligra";
    check_spmv(baseline::run_spmv(out_eng, x), "ligra");
  }

  // --- Scale-out cluster ------------------------------------------------------
  {
    scaleout::ClusterConfig cfg;
    cfg.machines = 1 + rng.next_below(4);
    cfg.engine = testutil::test_config(2);
    scaleout::Cluster out_c(g, cfg);
    scaleout::Cluster in_c(gt, cfg);
    EXPECT_EQ(visited_of(baseline::run_bfs(out_c, source)), want_visited)
        << "cluster";
    EXPECT_EQ(baseline::run_wcc(out_c, in_c), want_wcc) << "cluster";
    check_spmv(baseline::run_spmv(out_c, x), "cluster");
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, DifferentialTest, ::testing::Range(0, 6));

// The wider algorithm suite against the in-core oracles, same randomized
// setup: SSSP (synthesized and stored weights), k-core, BC, MIS, radii,
// and PageRank all run in both execution modes on every round's graph.
TEST_P(DifferentialTest, AlgorithmSuiteMatchesInMemoryOracles) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 29);
  graph::Csr g = random_graph(rng);
  graph::Csr gt = graph::transpose(g);
  const vertex_t source =
      static_cast<vertex_t>(rng.next_below(g.num_vertices()));

  // Oracles (mode-independent; computed once per round).
  auto want_sssp = baseline::inmem::sssp_dist(g, source);
  auto want_core = baseline::inmem::coreness(g, gt);
  auto want_bc = baseline::inmem::bc_dependency(g, gt, source);
  auto want_mis = baseline::inmem::greedy_mis(g, gt);
  algorithms::PageRankOptions pr_opts;
  pr_opts.epsilon = 1e-3;
  pr_opts.max_iterations = 30;
  auto want_pr = baseline::inmem::pagerank_delta(
      g, pr_opts.damping, pr_opts.epsilon, pr_opts.max_iterations);

  // Weighted path: the same topology with stored per-edge float weights.
  auto wg = graph::attach_hash_weights(g);
  auto want_wsssp = baseline::inmem::sssp_dist_weighted(wg, source);

  for (bool sync : {false, true}) {
    const char* mode = sync ? "blaze-sync" : "blaze";
    auto out_g = format::make_mem_graph(g);
    auto in_g = format::make_mem_graph(gt);
    auto w_g = format::make_mem_graph(wg);
    auto cfg = testutil::test_config(3, 32);
    cfg.sync_mode = sync;
    core::Runtime rt(cfg);

    // SSSP over synthesized weights is integer arithmetic: exact.
    EXPECT_EQ(algorithms::sssp(rt, out_g, source).dist, want_sssp) << mode;

    // Stored-weight SSSP relaxes with real floats; every path sum is
    // computed the same way in engine and oracle, so only ulp noise.
    auto wdist = algorithms::sssp_weighted(rt, w_g, source).dist;
    ASSERT_EQ(wdist.size(), want_wsssp.size()) << mode;
    for (std::size_t v = 0; v < want_wsssp.size(); ++v) {
      if (std::isinf(want_wsssp[v])) {
        EXPECT_TRUE(std::isinf(wdist[v])) << mode << " vertex " << v;
      } else {
        ASSERT_NEAR(wdist[v], want_wsssp[v],
                    1e-3f * (1.0f + want_wsssp[v]))
            << mode << " vertex " << v;
      }
    }

    // Peeling produces a unique coreness assignment: exact.
    EXPECT_EQ(algorithms::kcore(rt, out_g, in_g).coreness, want_core)
        << mode;

    // Brandes dependencies accumulate floats in parallel: relative L1.
    auto dep = algorithms::bc(rt, out_g, in_g, source).dependency;
    ASSERT_EQ(dep.size(), want_bc.size()) << mode;
    double err = 0, norm = 1e-12;
    for (std::size_t v = 0; v < want_bc.size(); ++v) {
      err += std::fabs(dep[v] - want_bc[v]);
      norm += std::fabs(want_bc[v]);
    }
    EXPECT_LT(err / norm, 1e-3) << mode;

    // Greedy-priority MIS has a unique fixed point: exact membership.
    auto mis_state = algorithms::mis(rt, out_g, in_g).state;
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(mis_state[v] == algorithms::MisState::kIn,
                want_mis[v] == 1)
          << mode << " vertex " << v;
    }

    // Radii: exact per-source BFS maxima over the samples the engine
    // actually chose.
    auto rr = algorithms::radii(rt, out_g, /*seed=*/rng.next());
    if (!rr.sources.empty()) {
      EXPECT_EQ(rr.radii,
                baseline::inmem::radii_from_sources(g, rr.sources))
          << mode;
    }

    // PageRank-delta vs the sequential float reference: relative L1.
    auto rank = algorithms::pagerank(rt, out_g, pr_opts).rank;
    double pr_err = 0, pr_norm = 1e-12;
    for (std::size_t v = 0; v < want_pr.size(); ++v) {
      pr_err += std::fabs(rank[v] - want_pr[v]);
      pr_norm += std::fabs(want_pr[v]);
    }
    EXPECT_LT(pr_err / pr_norm, 1e-3) << mode;
  }
}

// Compressed-format differential: BFS, PageRank, and k-core run on the
// delta+varint layout and on the flat layout of the same random graph;
// both must match the in-memory oracle. BFS additionally runs
// direction-optimized with a zero density threshold so every round pulls
// through the fused dvarint decoder (the early-exit path).
TEST_P(DifferentialTest, DvarintMatchesFlatAndOracle) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 4241 + 71);
  graph::Csr g = random_graph(rng);
  graph::Csr gt = graph::transpose(g);
  const vertex_t source =
      static_cast<vertex_t>(rng.next_below(g.num_vertices()));

  auto want_visited = visited_of(baseline::inmem::bfs_parent(g, source));
  auto want_core_oracle = baseline::inmem::coreness(g, gt);
  algorithms::PageRankOptions pr_opts;
  pr_opts.epsilon = 1e-3;
  pr_opts.max_iterations = 30;
  auto want_pr = baseline::inmem::pagerank_delta(
      g, pr_opts.damping, pr_opts.epsilon, pr_opts.max_iterations);

  for (auto encoding : {format::AdjacencyEncoding::kFlat,
                        format::AdjacencyEncoding::kDeltaVarint}) {
    const char* mode =
        encoding == format::AdjacencyEncoding::kFlat ? "flat" : "dvarint";
    // Stripe across 2 devices: page-interleaved striping must stay
    // decode-transparent.
    auto out_g = format::make_mem_graph(g, 2, encoding);
    auto in_g = format::make_mem_graph(gt, 2, encoding);
    core::Runtime rt(testutil::test_config(3, 32));

    EXPECT_EQ(visited_of(algorithms::bfs(rt, out_g, source).parent),
              want_visited)
        << mode;

    // threshold |E|/(|E|+1) == 0: every non-empty frontier pulls.
    auto hybrid = algorithms::bfs_hybrid(rt, out_g, in_g, source,
                                         g.num_edges() + 1);
    EXPECT_EQ(visited_of(hybrid.parent), want_visited) << mode << "-hybrid";
    EXPECT_GT(hybrid.pull_iterations, 0u) << mode << "-hybrid";

    EXPECT_EQ(algorithms::kcore(rt, out_g, in_g).coreness, want_core_oracle)
        << mode;

    auto rank = algorithms::pagerank(rt, out_g, pr_opts).rank;
    double err = 0, norm = 1e-12;
    for (std::size_t v = 0; v < want_pr.size(); ++v) {
      err += std::fabs(rank[v] - want_pr[v]);
      norm += std::fabs(want_pr[v]);
    }
    EXPECT_LT(err / norm, 1e-3) << mode;
  }
}

// Async-vs-BSP differential: the four monotone algorithms run through the
// sched::AsyncRunner priority loop and must land on the BSP fixed point —
// exactly for SSSP/WCC/k-core (monotone min/peeling has one fixed point),
// within epsilon-scale tolerance for PageRank-delta (both modes truncate
// sub-threshold residual, in different orders). Both adjacency encodings
// are covered, plus one sync-mode (CAS gather) pass to exercise concurrent
// queue pushes from scatter threads.
TEST_P(DifferentialTest, AsyncMatchesBspFixedPoint) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 9973 + 101);
  graph::Csr g = random_graph(rng);
  graph::Csr gt = graph::transpose(g);
  const vertex_t source =
      static_cast<vertex_t>(rng.next_below(g.num_vertices()));

  algorithms::PageRankOptions pr_opts;
  pr_opts.epsilon = 1e-3;
  pr_opts.max_iterations = 50;

  auto async_config = [&](bool sync) {
    auto cfg = testutil::test_config(3, 32);
    cfg.execution_mode = core::ExecutionMode::kAsync;
    cfg.sync_mode = sync;
    return cfg;
  };

  for (auto encoding : {format::AdjacencyEncoding::kFlat,
                        format::AdjacencyEncoding::kDeltaVarint}) {
    const char* label =
        encoding == format::AdjacencyEncoding::kFlat ? "flat" : "dvarint";
    auto out_g = format::make_mem_graph(g, 2, encoding);
    auto in_g = format::make_mem_graph(gt, 2, encoding);

    core::Runtime bsp_rt(testutil::test_config(3, 32));
    core::Runtime async_rt(async_config(false));

    // SSSP: exact equality with the BSP distances.
    EXPECT_EQ(algorithms::sssp(async_rt, out_g, source).dist,
              algorithms::sssp(bsp_rt, out_g, source).dist)
        << label;

    // WCC: both modes converge to the per-component minimum label.
    EXPECT_EQ(algorithms::wcc(async_rt, out_g, in_g).ids,
              algorithms::wcc(bsp_rt, out_g, in_g).ids)
        << label;

    // k-core: peeling level-at-a-time is exact in both modes.
    auto bsp_core = algorithms::kcore(bsp_rt, out_g, in_g);
    auto async_core = algorithms::kcore(async_rt, out_g, in_g);
    EXPECT_EQ(async_core.coreness, bsp_core.coreness) << label;
    EXPECT_EQ(async_core.max_core, bsp_core.max_core) << label;

    // And the bounded sweep peels the same truncated shells.
    EXPECT_EQ(algorithms::kcore(async_rt, out_g, in_g, 2).coreness,
              algorithms::kcore(bsp_rt, out_g, in_g, 2).coreness)
        << label;

    // PageRank-delta: same fixed-point family, epsilon-scale differences.
    auto bsp_rank = algorithms::pagerank(bsp_rt, out_g, pr_opts).rank;
    auto async_rank = algorithms::pagerank(async_rt, out_g, pr_opts).rank;
    double err = 0, norm = 1e-12;
    for (std::size_t v = 0; v < bsp_rank.size(); ++v) {
      err += std::fabs(async_rank[v] - bsp_rank[v]);
      norm += std::fabs(bsp_rank[v]);
    }
    EXPECT_LT(err / norm, 1e-2) << label;
  }

  // Stored-weight SSSP (weighted files are flat-only): every tentative
  // distance is the same sum along the same shortest path in either mode.
  {
    auto wg = graph::attach_hash_weights(g);
    auto w_g = format::make_mem_graph(wg);
    core::Runtime bsp_rt(testutil::test_config(3, 32));
    core::Runtime async_rt(async_config(false));
    auto want = algorithms::sssp_weighted(bsp_rt, w_g, source).dist;
    auto got = algorithms::sssp_weighted(async_rt, w_g, source).dist;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
      if (std::isinf(want[v])) {
        EXPECT_TRUE(std::isinf(got[v])) << "weighted vertex " << v;
      } else {
        ASSERT_NEAR(got[v], want[v], 1e-4f * (1.0f + want[v]))
            << "weighted vertex " << v;
      }
    }
  }

  // Sync-mode async: scatter threads apply gather_atomic directly, so
  // queue pushes race across threads — the atomics-tolerant path.
  {
    auto out_g = format::make_mem_graph(g);
    auto in_g = format::make_mem_graph(gt);
    core::Runtime bsp_rt(testutil::test_config(3, 32));
    core::Runtime async_rt(async_config(true));
    EXPECT_EQ(algorithms::sssp(async_rt, out_g, source).dist,
              algorithms::sssp(bsp_rt, out_g, source).dist)
        << "sync-async";
    EXPECT_EQ(algorithms::kcore(async_rt, out_g, in_g).coreness,
              algorithms::kcore(bsp_rt, out_g, in_g).coreness)
        << "sync-async";
  }
}

}  // namespace
}  // namespace blaze
