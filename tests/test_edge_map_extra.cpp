// Additional EdgeMap engine edge cases: page-boundary alignment, zero-
// degree frontiers, binned/sync equivalence sweeps, stats accumulation,
// option handling, and the one-pass EdgeMap over a graph and its
// transpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>

#include "core/edge_map.h"
#include "core/runtime.h"
#include "device/ssd_profile.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace blaze::core {
namespace {

/// Commutative accumulation program used for equivalence checks.
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

std::vector<std::uint32_t> in_degrees(const graph::Csr& g) {
  std::vector<std::uint32_t> want(g.num_vertices(), 0);
  for (vertex_t d : g.edges()) ++want[d];
  return want;
}

TEST(EdgeMapExtra, PageAlignedAdjacencyBoundaries) {
  // Vertices whose lists are exactly one page (1024 u32 neighbors) force
  // every boundary case: list == page, list starts at page start, list
  // ends at page end.
  const vertex_t n = 4096;
  std::vector<std::pair<vertex_t, vertex_t>> edges;
  for (vertex_t u = 0; u < 4; ++u) {
    for (vertex_t k = 0; k < 1024; ++k) {
      edges.emplace_back(u, (u * 1024 + k) % n);
    }
  }
  graph::Csr g = graph::build_csr(n, edges);
  ASSERT_EQ(g.degree(0), 1024u);
  auto odg = format::make_mem_graph(g);
  Runtime rt(testutil::test_config());

  std::vector<std::uint32_t> acc(n, 0);
  CountProgram prog{acc};
  edge_map(rt, odg, VertexSubset::all(n), prog, {});
  EXPECT_EQ(acc, in_degrees(g));
}

TEST(EdgeMapExtra, FrontierOfOnlyZeroDegreeVertices) {
  std::vector<std::pair<vertex_t, vertex_t>> edges = {{0, 1}};
  graph::Csr g = graph::build_csr(10, edges);
  auto odg = format::make_mem_graph(g);
  Runtime rt(testutil::test_config());

  VertexSubset frontier(10);
  for (vertex_t v = 2; v < 10; ++v) frontier.add(v);  // all degree 0
  std::vector<std::uint32_t> acc(10, 0);
  CountProgram prog{acc};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  VertexSubset out = edge_map(rt, odg, frontier, prog, opts);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.edges_scattered, 0u);
}

TEST(EdgeMapExtra, OutputFalseSkipsFrontierConstruction) {
  graph::Csr g = graph::generate_rmat(9, 8, 900);
  auto odg = format::make_mem_graph(g);
  Runtime rt(testutil::test_config());
  std::vector<std::uint32_t> acc(g.num_vertices(), 0);
  CountProgram prog{acc};
  EdgeMapOptions opts;
  opts.output = false;
  VertexSubset out =
      edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, opts);
  EXPECT_TRUE(out.empty());               // no members materialized
  EXPECT_EQ(acc, in_degrees(g));          // but all updates applied
}

struct EquivalenceParam {
  const char* graph_kind;
  std::size_t devices;
};

class SyncBinnedEquivalence
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(SyncBinnedEquivalence, SameAccumulationBothModes) {
  const auto& p = GetParam();
  graph::Csr g;
  if (std::string(p.graph_kind) == "rmat") {
    g = graph::generate_rmat(10, 8, 901);
  } else if (std::string(p.graph_kind) == "uniform") {
    g = graph::generate_uniform(1500, 18000, 902);
  } else {
    g = graph::generate_weblike(1500, 12, 903);
  }
  auto odg = format::make_mem_graph(g, p.devices);

  std::vector<std::uint32_t> binned(g.num_vertices(), 0);
  std::vector<std::uint32_t> synced(g.num_vertices(), 0);
  {
    Runtime rt(testutil::test_config(4));
    CountProgram prog{binned};
    edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, {});
  }
  {
    auto cfg = testutil::test_config(4);
    cfg.sync_mode = true;
    Runtime rt(cfg);
    CountProgram prog{synced};
    edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, {});
  }
  EXPECT_EQ(binned, synced);
  EXPECT_EQ(binned, in_degrees(g));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SyncBinnedEquivalence,
    ::testing::Values(EquivalenceParam{"rmat", 1},
                      EquivalenceParam{"rmat", 3},
                      EquivalenceParam{"uniform", 1},
                      EquivalenceParam{"weblike", 2}),
    [](const auto& info) {
      return std::string(info.param.graph_kind) + "_d" +
             std::to_string(info.param.devices);
    });

TEST(EdgeMapExtra, StatsAccumulateAcrossCalls) {
  graph::Csr g = graph::generate_rmat(9, 8, 904);
  auto odg = format::make_mem_graph(g);
  Runtime rt(testutil::test_config());
  std::vector<std::uint32_t> acc(g.num_vertices(), 0);
  CountProgram prog{acc};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, opts);
  auto bytes_once = stats.bytes_read;
  edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, opts);
  EXPECT_EQ(stats.edge_map_calls, 2u);
  EXPECT_EQ(stats.bytes_read, 2 * bytes_once);
}

TEST(EdgeMapExtra, ScatterRatioExtremesStillCorrect) {
  graph::Csr g = graph::generate_rmat(9, 8, 906);
  auto odg = format::make_mem_graph(g);
  for (double ratio : {0.01, 0.99}) {
    auto cfg = testutil::test_config(5);
    cfg.scatter_ratio = ratio;
    Runtime rt(cfg);
    ASSERT_GE(cfg.scatter_threads(), 1u);
    ASSERT_GE(cfg.gather_threads(), 1u);
    std::vector<std::uint32_t> acc(g.num_vertices(), 0);
    CountProgram prog{acc};
    edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, {});
    EXPECT_EQ(acc, in_degrees(g)) << "ratio " << ratio;
  }
}

TEST(EdgeMapExtra, TinyBinSpaceForcesRotationButStaysCorrect) {
  graph::Csr g = graph::generate_rmat(10, 8, 907);
  auto odg = format::make_mem_graph(g);
  auto cfg = testutil::test_config(4, /*bin_count=*/8);
  cfg.bin_space_bytes = 2048;  // 8 bins x 2 buffers x 16 records
  Runtime rt(cfg);
  std::vector<std::uint32_t> acc(g.num_vertices(), 0);
  CountProgram prog{acc};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, opts);
  EXPECT_EQ(acc, in_degrees(g));
  EXPECT_EQ(stats.records_binned, g.num_edges());
}

/// Order-insensitive per-destination sum of (source + 1): a page handed to
/// the wrong graph, or mapped to the wrong logical page, changes the sums.
struct SourceSumProgram {
  using value_type = std::uint32_t;
  std::vector<std::uint32_t>& acc;

  value_type scatter(vertex_t s, vertex_t) const { return s + 1; }
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

/// Result of one EdgeMap pass, or of several run back to back.
struct PassResult {
  std::vector<std::uint32_t> acc;
  std::vector<vertex_t> activated;
  std::uint64_t edges_scattered = 0;
  std::uint64_t pages_read = 0;
};

PassResult run_passes(Runtime& rt,
                      std::initializer_list<GraphList> passes,
                      const VertexSubset& frontier) {
  const vertex_t n = frontier.universe();
  PassResult r;
  r.acc.assign(n, 0);
  VertexSubset activated(n);
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  SourceSumProgram prog{r.acc};
  for (GraphList graphs : passes) {
    edge_map(rt.default_context(), graphs, frontier, prog, opts)
        .for_each([&](vertex_t v) { activated.add(v); });
  }
  activated.for_each([&](vertex_t v) { r.activated.push_back(v); });
  std::sort(r.activated.begin(), r.activated.end());
  r.edges_scattered = stats.edges_scattered;
  r.pages_read = stats.pages_read;
  return r;
}

TEST(EdgeMapExtra, TwoGraphPassMatchesSequentialCalls) {
  graph::Csr g = graph::generate_rmat(11, 8, 908);
  graph::Csr gt = graph::transpose(g);
  const vertex_t n = g.num_vertices();
  Xoshiro256 rng(909);
  VertexSubset frontier(n);
  for (vertex_t v = 0; v < n; ++v) {
    if (rng.next_below(3) == 0) frontier.add(v);
  }
  std::uint64_t want_edges = 0;
  frontier.for_each(
      [&](vertex_t v) { want_edges += g.degree(v) + gt.degree(v); });

  for (auto encoding : {format::AdjacencyEncoding::kFlat,
                        format::AdjacencyEncoding::kDeltaVarint}) {
    // The transpose is striped over two devices, the graph sits on one:
    // the two graphs' pages map back through different stripe widths.
    auto out_g = format::make_mem_graph(g, 1, encoding);
    auto in_g = format::make_mem_graph(gt, 2, encoding);
    for (bool sync : {false, true}) {
      auto cfg = testutil::test_config(4);
      cfg.sync_mode = sync;
      Runtime rt(cfg);
      const std::string what =
          std::string(encoding == format::AdjacencyEncoding::kFlat
                          ? "flat"
                          : "dvarint") +
          (sync ? ", sync" : ", binned");

      PassResult seq = run_passes(rt, {{&out_g}, {&in_g}}, frontier);
      PassResult one = run_passes(rt, {{&out_g, &in_g}}, frontier);
      EXPECT_EQ(seq.edges_scattered, want_edges) << what;
      EXPECT_EQ(one.acc, seq.acc) << what;
      EXPECT_EQ(one.activated, seq.activated) << what;
      EXPECT_EQ(one.edges_scattered, seq.edges_scattered) << what;
      EXPECT_EQ(one.pages_read, seq.pages_read) << what;

      // Both graphs on one device object: its single reader serves the two
      // batches FIFO, which must still deliver every page once per graph.
      PassResult seq_same = run_passes(rt, {{&out_g}, {&out_g}}, frontier);
      PassResult one_same = run_passes(rt, {{&out_g, &out_g}}, frontier);
      EXPECT_EQ(one_same.acc, seq_same.acc) << what << ", one device";
      EXPECT_EQ(one_same.edges_scattered, seq_same.edges_scattered)
          << what << ", one device";
      EXPECT_EQ(one_same.pages_read, seq_same.pages_read)
          << what << ", one device";
    }
  }
}

TEST(EdgeMapExtra, TwoGraphPassOverlapsDevices) {
  // Each graph on its own simulated SSD, slowed until one graph's full
  // scan models ~80 ms: a pass over both must take about as long as the
  // slower one, not their sum. Guards against the two readers being
  // serialized again.
  graph::Csr g = graph::generate_rmat(13, 16, 910);
  graph::Csr gt = graph::transpose(g);
  const auto profile = device::optane_p4800x().scaled(400);
  auto out_g = format::make_simulated_graph(g, profile);
  auto in_g = format::make_simulated_graph(gt, profile);
  const vertex_t n = g.num_vertices();
  const auto all = VertexSubset::all(n);
  Runtime rt(testutil::test_config(2));

  std::vector<std::uint32_t> acc(n, 0);
  CountProgram prog{acc};
  auto wall_s = [&](GraphList graphs) {
    const auto t0 = std::chrono::steady_clock::now();
    edge_map(rt.default_context(), graphs, all, prog, {});
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const std::uint64_t busy0 = out_g.device().stats().busy_ns();
  wall_s({&out_g});
  ASSERT_GE(out_g.device().stats().busy_ns() - busy0, 40'000'000u)
      << "profile too fast for a meaningful overlap check";

  // Min of 3 filters scheduler hiccups on a loaded host.
  double separate = 1e9, together = 1e9;
  for (int i = 0; i < 3; ++i) {
    separate = std::min(separate, wall_s({&out_g}) + wall_s({&in_g}));
    together = std::min(together, wall_s({&out_g, &in_g}));
  }
  EXPECT_LT(together, 0.75 * separate)
      << "together " << together << " s, separate " << separate << " s";
}

}  // namespace
}  // namespace blaze::core
