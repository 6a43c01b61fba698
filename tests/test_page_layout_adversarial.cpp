// Adversarial on-disk layouts for the page scanner and the engine: degree
// patterns constructed to hit every page-boundary case exactly.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/edge_map.h"
#include "core/runtime.h"
#include "format/on_disk_graph.h"
#include "format/page_scan.h"
#include "graph/csr.h"
#include "test_helpers.h"

namespace blaze::format {
namespace {

constexpr std::size_t kPerPage = kPageSize / sizeof(vertex_t);  // 1024

/// Builds a graph whose vertex v has exactly degrees[v] edges; edge targets
/// are deterministic (v * 31 + k) % n.
graph::Csr from_degrees(const std::vector<std::uint32_t>& degrees) {
  auto n = static_cast<vertex_t>(degrees.size());
  std::vector<std::pair<vertex_t, vertex_t>> edges;
  for (vertex_t v = 0; v < n; ++v) {
    for (std::uint32_t k = 0; k < degrees[v]; ++k) {
      edges.emplace_back(v,
                         static_cast<vertex_t>((v * 31ull + k) % n));
    }
  }
  return graph::build_csr(n, edges);
}

/// Scans every page of `odg` through for_each_edge, in the order `pages`
/// (any permutation must work: workers pop pages in arbitrary order, and
/// dvarint pages resume from their per-page carries), and returns the
/// multiset of destinations per source. *total gets the kernel's count.
std::map<vertex_t, std::multiset<vertex_t>> scan_pages(
    const OnDiskGraph& odg, const std::vector<std::uint64_t>& pages,
    std::uint64_t* total) {
  std::map<vertex_t, std::multiset<vertex_t>> got;
  std::vector<std::byte> page(kPageSize);
  *total = 0;
  for (std::uint64_t p : pages) {
    odg.device().read(p * kPageSize, page);
    *total += for_each_edge(odg.index(), odg.page_map(), p, page.data(),
                            kPageSize, [](vertex_t) { return true; },
                            [&](vertex_t s, vertex_t d) { got[s].insert(d); });
  }
  return got;
}

/// Lays `g` out flat and delta+varint and checks the scan reproduces every
/// list exactly (as a multiset: dvarint sorts each list), in forward and in
/// reverse page order.
void expect_exact(const graph::Csr& g) {
  for (auto encoding :
       {AdjacencyEncoding::kFlat, AdjacencyEncoding::kDeltaVarint}) {
    auto odg = make_mem_graph(g, 1, encoding);
    std::vector<std::uint64_t> fwd(odg.num_pages());
    for (std::uint64_t p = 0; p < fwd.size(); ++p) fwd[p] = p;
    std::vector<std::uint64_t> rev(fwd.rbegin(), fwd.rend());
    for (const auto& order : {fwd, rev}) {
      std::uint64_t total = 0;
      auto got = scan_pages(odg, order, &total);
      EXPECT_EQ(total, g.num_edges());
      std::map<vertex_t, std::multiset<vertex_t>> want;
      for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        auto nb = g.neighbors(v);
        if (!nb.empty()) want[v].insert(nb.begin(), nb.end());
      }
      EXPECT_EQ(got, want) << "encoding " << static_cast<int>(encoding);
    }
  }
}

void expect_exact_cover(const std::vector<std::uint32_t>& degrees) {
  expect_exact(from_degrees(degrees));
}

TEST(PageLayoutAdversarial, ListExactlyOnePage) {
  expect_exact_cover({kPerPage, 3, kPerPage, 5});
}

TEST(PageLayoutAdversarial, ListEndsExactlyAtPageBoundary) {
  // 1000 + 24 fills page 0 exactly; next list starts at page 1 offset 0.
  expect_exact_cover({1000, 24, 7, kPerPage - 7, 2});
}

TEST(PageLayoutAdversarial, ListStraddlesManyPages) {
  expect_exact_cover({5, 3 * kPerPage + 17, 9});
}

TEST(PageLayoutAdversarial, AlternatingEmptyAndHuge) {
  std::vector<std::uint32_t> degrees;
  for (int i = 0; i < 8; ++i) {
    degrees.push_back(0);
    degrees.push_back(static_cast<std::uint32_t>(kPerPage + i));
    degrees.push_back(0);
    degrees.push_back(1);
  }
  expect_exact_cover(degrees);
}

TEST(PageLayoutAdversarial, AllSingletonLists) {
  expect_exact_cover(std::vector<std::uint32_t>(3 * kPerPage, 1));
}

TEST(PageLayoutAdversarial, TrailingZeroDegreeVertices) {
  std::vector<std::uint32_t> degrees(100, 13);
  degrees.resize(300, 0);  // 200 sinks after the last stored byte
  expect_exact_cover(degrees);
}

/// A bool callback that returns false mid-list stops that list only: the
/// kernel visits exactly the list's prefix, then carries on with the next
/// vertex, and counts what it visited.
TEST(PageLayoutAdversarial, EarlyExitVisitsExactlyThePrefix) {
  constexpr std::uint32_t kStopAfter = 10;
  std::vector<std::uint32_t> degrees{100, 5, 3 * kPerPage + 17};
  degrees.resize(400, 0);  // distinct targets (v * 31 + k) % n for v = 0
  graph::Csr g = from_degrees(degrees);
  for (auto encoding :
       {AdjacencyEncoding::kFlat, AdjacencyEncoding::kDeltaVarint}) {
    auto odg = make_mem_graph(g, 1, encoding);
    std::vector<std::byte> page(kPageSize);
    odg.device().read(0, page);
    std::map<vertex_t, std::vector<vertex_t>> got;
    const std::uint64_t visited = for_each_edge(
        odg.index(), odg.page_map(), 0, page.data(), kPageSize,
        [](vertex_t v) { return v < 2; },
        [&](vertex_t s, vertex_t d) {
          got[s].push_back(d);
          return got[s].size() < kStopAfter;
        });
    auto nb0 = g.neighbors(0);  // build_csr sorts, as dvarint does
    EXPECT_EQ(got[0],
              std::vector<vertex_t>(nb0.begin(), nb0.begin() + kStopAfter));
    auto nb1 = g.neighbors(1);
    EXPECT_EQ(got[1], std::vector<vertex_t>(nb1.begin(), nb1.end()));
    EXPECT_EQ(got.count(2), 0u);  // inactive
    EXPECT_EQ(visited, kStopAfter + 5);
  }
}

TEST(PageLayoutAdversarial, DvarintSmallLists) {
  expect_exact(from_degrees({5, 0, 3, 1, 0, 7}));
}

TEST(PageLayoutAdversarial, DvarintVarintSplitsPageBoundary) {
  // Vertex 0's single one-byte varint shifts vertex 1's list to odd byte
  // offsets, and vertex 1's gaps of 128 are 2-byte varints, so one of them
  // straddles every page boundary. The carry must snapshot the split
  // accumulator (partial_shift != 0) for the decode to resume. The graph
  // has enough vertices for every target to be in range.
  constexpr std::uint32_t kDeg = 5000;  // ~10 kB encoded, 3 pages
  std::vector<vertex_t> neighbors{0};
  for (std::uint32_t k = 0; k < kDeg; ++k) {
    neighbors.push_back((k + 1) * 128u);
  }
  std::vector<std::uint64_t> offsets(kDeg * 128u + 2, kDeg + 1);
  offsets[0] = 0;
  offsets[1] = 1;
  graph::Csr g(std::move(offsets), std::move(neighbors));
  expect_exact(g);

  auto odg = make_mem_graph(g, 1, AdjacencyEncoding::kDeltaVarint);
  bool saw_split_varint = false;
  for (std::uint64_t p = 1; p < odg.num_pages(); ++p) {
    if (odg.index().page_carry(p).partial_shift != 0) {
      saw_split_varint = true;
    }
  }
  EXPECT_TRUE(saw_split_varint)
      << "no page boundary split a varint; the carry path went untested";
}

TEST(PageLayoutAdversarial, DvarintVertexSpansManyPages) {
  // One list of ~13000 one-byte gaps: > 3 pages of encoded bytes, so two
  // interior pages decode entirely from carry state.
  std::vector<std::uint32_t> degrees{5, 13000, 9};
  graph::Csr g = from_degrees(degrees);
  auto odg = make_mem_graph(g, 1, AdjacencyEncoding::kDeltaVarint);
  EXPECT_GE(odg.num_pages(), 3u);
  expect_exact(g);
}

TEST(PageLayoutAdversarial, DvarintEmptyListsBetweenHuge) {
  std::vector<std::uint32_t> degrees;
  for (int i = 0; i < 6; ++i) {
    degrees.push_back(0);
    degrees.push_back(static_cast<std::uint32_t>(5000 + i));
    degrees.push_back(0);
    degrees.push_back(0);
    degrees.push_back(1);
  }
  expect_exact(from_degrees(degrees));
}

TEST(PageLayoutAdversarial, DvarintDuplicateEdgesGapZero) {
  // build_csr keeps duplicates; sorted duplicates encode as gap 0 and must
  // decode back as the same multiset.
  std::vector<std::pair<vertex_t, vertex_t>> edges;
  for (int k = 0; k < 300; ++k) edges.emplace_back(0, 7);
  edges.emplace_back(0, 3);
  edges.emplace_back(1, 0);
  expect_exact(graph::build_csr(10, edges));
}

/// The engine must scatter exactly |E| edges from a dvarint graph too —
/// including striped across devices (page-interleaved striping is encoding
/// agnostic).
TEST(PageLayoutAdversarial, DvarintEngineEdgeCountsMatch) {
  for (std::size_t devices : {std::size_t{1}, std::size_t{3}}) {
    graph::Csr g = from_degrees({5, 13000, 0, 9, 4000, 1});
    auto odg = make_mem_graph(g, devices, AdjacencyEncoding::kDeltaVarint);
    core::Runtime rt(testutil::test_config());
    struct NopProgram {
      using value_type = std::uint32_t;
      value_type scatter(vertex_t, vertex_t) const { return 0; }
      bool cond(vertex_t) const { return true; }
      bool gather(vertex_t, value_type) { return false; }
      bool gather_atomic(vertex_t, value_type) { return false; }
    } prog;
    core::QueryStats stats;
    core::EdgeMapOptions opts;
    opts.stats = &stats;
    core::edge_map(rt, odg, core::VertexSubset::all(g.num_vertices()), prog,
                   opts);
    EXPECT_EQ(stats.edges_scattered, g.num_edges()) << devices << " devices";
    EXPECT_EQ(stats.records_binned, g.num_edges());
  }
}

/// The engine must count the same edges the raw scanner sees, on the same
/// adversarial shapes.
TEST(PageLayoutAdversarial, EngineEdgeCountsMatchScanner) {
  for (auto degrees :
       {std::vector<std::uint32_t>{kPerPage, 3, kPerPage, 5},
        std::vector<std::uint32_t>{5, 3 * kPerPage + 17, 9},
        std::vector<std::uint32_t>(2 * kPerPage, 1)}) {
    graph::Csr g = from_degrees(degrees);
    auto odg = make_mem_graph(g);
    core::Runtime rt(testutil::test_config());
    struct NopProgram {
      using value_type = std::uint32_t;
      value_type scatter(vertex_t, vertex_t) const { return 0; }
      bool cond(vertex_t) const { return true; }
      bool gather(vertex_t, value_type) { return false; }
      bool gather_atomic(vertex_t, value_type) { return false; }
    } prog;
    core::QueryStats stats;
    core::EdgeMapOptions opts;
    opts.stats = &stats;
    core::edge_map(rt, odg, core::VertexSubset::all(g.num_vertices()), prog,
                   opts);
    EXPECT_EQ(stats.edges_scattered, g.num_edges());
    EXPECT_EQ(stats.records_binned, g.num_edges());
  }
}

}  // namespace
}  // namespace blaze::format
