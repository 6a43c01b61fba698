// Weighted-graph substrate tests: interleaved 8-byte records through the
// index, page map, serialization, file IO, page scanning, the EdgeMap
// engine, and the stored-weight SSSP query.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "algorithms/programs.h"
#include "algorithms/sssp.h"
#include "baselines/inmem.h"
#include "core/edge_map.h"
#include "core/runtime.h"
#include "device/ssd_profile.h"
#include "format/on_disk_graph.h"
#include "format/page_scan.h"
#include "graph/generators.h"
#include "graph/weighted.h"
#include "test_helpers.h"

namespace blaze {
namespace {

graph::WeightedCsr make_weighted(unsigned scale, unsigned ef,
                                 std::uint64_t seed) {
  return graph::attach_random_weights(graph::generate_rmat(scale, ef, seed),
                                      seed ^ 0xABCD);
}

// ----------------------------------------------------------------- weighted

TEST(WeightedCsr, TransposeCarriesWeights) {
  auto g = make_weighted(8, 6, 1400);
  auto gt = graph::transpose(g);
  EXPECT_EQ(gt.num_edges(), g.num_edges());
  // Multiset of (u, v, w) triples must match (v, u, w) of the transpose.
  std::multiset<std::tuple<vertex_t, vertex_t, float>> fw, bw;
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    auto ns = g.neighbors(u);
    auto ws = g.weights_of(u);
    for (std::size_t k = 0; k < ns.size(); ++k) fw.emplace(u, ns[k], ws[k]);
  }
  for (vertex_t v = 0; v < gt.num_vertices(); ++v) {
    auto ns = gt.neighbors(v);
    auto ws = gt.weights_of(v);
    for (std::size_t k = 0; k < ns.size(); ++k) bw.emplace(ns[k], v, ws[k]);
  }
  EXPECT_EQ(fw, bw);
}

TEST(WeightedCsr, HashWeightsMatchSyntheticWeights) {
  graph::Csr g = graph::generate_rmat(8, 6, 1401);
  auto wg = graph::attach_hash_weights(g);
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    auto ns = wg.neighbors(u);
    auto ws = wg.weights_of(u);
    for (std::size_t k = 0; k < ns.size(); ++k) {
      EXPECT_EQ(ws[k], algorithms::edge_weight(u, ns[k]));
    }
  }
}

// ------------------------------------------------------------------- format

TEST(WeightedFormat, IndexUsesEightByteRecords) {
  auto g = make_weighted(8, 6, 1402);
  auto odg = format::make_mem_graph(g);
  EXPECT_EQ(odg.index().record_bytes(), 8u);
  // Byte offsets are doubled relative to the unweighted layout.
  auto un = format::make_mem_graph(g.structure());
  for (vertex_t v = 0; v < g.num_vertices(); v += 17) {
    EXPECT_EQ(odg.index().byte_offset(v), 2 * un.index().byte_offset(v));
  }
  EXPECT_EQ(odg.num_pages(),
            ceil_div<std::uint64_t>(g.num_edges() * 8, kPageSize));
}

TEST(WeightedFormat, ScanPageWeightedVisitsAllRecords) {
  auto g = make_weighted(9, 6, 1403);
  auto odg = format::make_mem_graph(g);
  std::map<std::pair<vertex_t, vertex_t>, float> got;
  std::uint64_t edges = 0;
  std::vector<std::byte> page(kPageSize);
  for (std::uint64_t p = 0; p < odg.num_pages(); ++p) {
    odg.device().read(p * kPageSize, page);
    edges += format::for_each_edge(
        odg.index(), odg.page_map(), p, page.data(), kPageSize,
        [](vertex_t) { return true; },
        [&](vertex_t s, vertex_t d, float w) { got[{s, d}] = w; });
  }
  EXPECT_EQ(edges, g.num_edges());
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    auto ns = g.neighbors(u);
    auto ws = g.weights_of(u);
    for (std::size_t k = 0; k < ns.size(); ++k) {
      // Duplicate edges overwrite each other in the map; weights of
      // duplicates may differ, so only require *a* recorded weight that
      // appears among this (u, v)'s weights.
      auto it = got.find({u, ns[k]});
      ASSERT_NE(it, got.end());
    }
  }
}

TEST(WeightedFormat, FileRoundTripVersion2) {
  auto g = make_weighted(8, 6, 1404);
  std::string prefix = "/tmp/blaze_test_weighted";
  format::write_graph_files(g, prefix);
  auto odg = format::load_graph_files(prefix + ".gr.index",
                                      prefix + ".gr.adj.0");
  EXPECT_EQ(odg.index().record_bytes(), 8u);
  EXPECT_EQ(odg.num_edges(), g.num_edges());
  // Spot-check one adjacency list's records.
  vertex_t v = 0;
  while (v < g.num_vertices() && g.degree(v) == 0) ++v;
  ASSERT_LT(v, g.num_vertices());
  std::vector<format::WeightedEdgeRecord> recs(g.degree(v));
  odg.device().read(
      odg.index().byte_offset(v),
      std::span<std::byte>(reinterpret_cast<std::byte*>(recs.data()),
                           recs.size() * 8));
  auto ns = g.neighbors(v);
  auto ws = g.weights_of(v);
  for (std::size_t k = 0; k < recs.size(); ++k) {
    EXPECT_EQ(recs[k].dst, ns[k]);
    EXPECT_EQ(recs[k].weight, ws[k]);
  }
  std::remove((prefix + ".gr.index").c_str());
  std::remove((prefix + ".gr.adj.0").c_str());
}

// ------------------------------------------------------------------- engine

/// Weighted accumulation: y[d] += w for every frontier edge.
struct WeightSumProgram {
  using value_type = float;
  std::vector<float>& y;

  value_type scatter(vertex_t, vertex_t, float w) const { return w; }
  bool cond(vertex_t) const { return true; }
  bool gather(vertex_t d, value_type v) {
    y[d] += v;
    return true;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    std::atomic_ref<float> ref(y[d]);
    float cur = ref.load(std::memory_order_relaxed);
    while (!ref.compare_exchange_weak(cur, cur + v,
                                      std::memory_order_relaxed)) {
    }
    return true;
  }
};

TEST(WeightedEngine, EdgeMapDeliversStoredWeights) {
  auto g = make_weighted(9, 8, 1405);
  for (std::size_t devices : {1u, 3u}) {
    auto odg = format::make_mem_graph(g, devices);
    core::Runtime rt(testutil::test_config());
    std::vector<float> y(g.num_vertices(), 0.0f);
    WeightSumProgram prog{y};
    core::QueryStats stats;
    core::EdgeMapOptions opts;
    opts.output = false;
    opts.stats = &stats;
    core::edge_map(rt, odg, core::VertexSubset::all(g.num_vertices()), prog,
                   opts);
    EXPECT_EQ(stats.edges_scattered, g.num_edges());
    // Oracle: per-destination sum of incoming weights.
    std::vector<float> want(g.num_vertices(), 0.0f);
    for (vertex_t u = 0; u < g.num_vertices(); ++u) {
      auto ns = g.neighbors(u);
      auto ws = g.weights_of(u);
      for (std::size_t k = 0; k < ns.size(); ++k) want[ns[k]] += ws[k];
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(y[i], want[i], 1e-2f + 1e-4f * std::fabs(want[i]))
          << "devices=" << devices << " vertex " << i;
    }
  }
}

TEST(WeightedEngine, SyncModeAgrees) {
  auto g = make_weighted(9, 8, 1406);
  auto odg = format::make_mem_graph(g);
  auto cfg = testutil::test_config();
  cfg.sync_mode = true;
  core::Runtime rt(cfg);
  std::vector<float> y(g.num_vertices(), 0.0f);
  WeightSumProgram prog{y};
  core::edge_map(rt, odg, core::VertexSubset::all(g.num_vertices()), prog,
                 {});
  float total = 0, want_total = 0;
  for (float x : y) total += x;
  for (float w : g.weights()) want_total += w;
  EXPECT_NEAR(total, want_total, want_total * 1e-4f);
}

// ------------------------------------------------------------ weighted SSSP

TEST(WeightedSssp, MatchesDijkstraOnStoredWeights) {
  auto g = make_weighted(10, 8, 1407);
  auto want = baseline::inmem::sssp_dist_weighted(g, 0);
  // Memory-backed, and on two striped simulated SSDs (the layout the
  // weighted async bench query reads).
  for (const auto& odg :
       {format::make_mem_graph(g),
        format::make_simulated_graph(g, device::optane_p4800x(), 2)}) {
    core::Runtime rt(testutil::test_config());
    auto result = algorithms::sssp_weighted(rt, odg, 0);
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (std::isinf(want[i])) {
        EXPECT_TRUE(std::isinf(result.dist[i])) << i;
      } else {
        EXPECT_NEAR(result.dist[i], want[i], 1e-3f) << i;
      }
    }
  }
}

TEST(WeightedSssp, HashWeightsMatchSynthesizedSsspShape) {
  // Stored hash weights and the synthesized-weight SSSP use different
  // weight ranges, but reachability must agree exactly.
  graph::Csr g = graph::generate_rmat(9, 8, 1408);
  auto wg = graph::attach_hash_weights(g);
  auto odg_w = format::make_mem_graph(wg);
  auto odg_u = format::make_mem_graph(g);
  core::Runtime rt(testutil::test_config());
  auto stored = algorithms::sssp_weighted(rt, odg_w, 2);
  auto synth = algorithms::sssp(rt, odg_u, 2);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(std::isinf(stored.dist[v]),
              synth.dist[v] == algorithms::kInfDist)
        << v;
  }
}

TEST(WeightedEngine, UnweightedProgramOnWeightedGraphAborts) {
  auto g = make_weighted(8, 4, 1409);
  auto odg = format::make_mem_graph(g);
  // Everything thread-spawning lives inside the death statement (the check
  // fires before any pipeline thread starts).
  EXPECT_DEATH(
      {
        core::Runtime rt(testutil::test_config(1));
        std::vector<std::uint32_t> dist(g.num_vertices(),
                                        algorithms::kInfDist);
        algorithms::SsspProgram prog{dist};  // 2-arg scatter only
        core::edge_map(rt, odg,
                       core::VertexSubset::all(g.num_vertices()), prog, {});
      },
      "weighted graph requires");
}

}  // namespace
}  // namespace blaze
