// Adversarial on-disk layouts for the page scanner and the engine: degree
// patterns constructed to hit every page-boundary case exactly.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>

#include "core/edge_map.h"
#include "core/page_frontier.h"
#include "core/runtime.h"
#include "format/on_disk_graph.h"
#include "format/page_scan.h"
#include "graph/csr.h"
#include "graph/weighted.h"
#include "test_helpers.h"
#include "util/rng.h"

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

// ---------------------------------------------------------- page frontier

/// Every page-boundary case the page-frontier pass must get right, in one
/// layout: a list ending exactly on a page boundary, runs of zero-degree
/// vertices, a hub spanning ten pages, a random mix of lists with
/// zero-degree vertices among them, and a partial (clamped) tail page
/// followed by trailing zero-degree vertices. Flat and weighted, it spans
/// more than the 1024 pages one parallel task builds.
std::vector<std::uint32_t> page_frontier_degrees() {
  std::vector<std::uint32_t> d{1000, 24};  // flat: ends page 0 exactly
  d.insert(d.end(), 150, 0);
  d.push_back(9 * kPerPage + 300);  // the hub, vertex 152
  Xoshiro256 rng(7);
  for (std::uint64_t max_degree : {60, 400}) {
    for (int i = 0; i < 12000; ++i) {
      d.push_back(rng.next_below(4) == 0 ? 0
                                         : static_cast<std::uint32_t>(
                                               1 + rng.next_below(max_degree)));
    }
  }
  d.insert(d.end(), 70, 0);
  d.push_back(3 * kPerPage + 5);
  d.push_back(37);
  d.insert(d.end(), 90, 0);
  return d;
}
constexpr vertex_t kHub = 152;

/// The pages the per-member definition gives: the union of page_range(v)
/// over members with edges.
std::vector<std::uint64_t> union_of_page_ranges(const OnDiskGraph& odg,
                                                const core::VertexSubset& f) {
  std::set<std::uint64_t> pages;
  f.for_each([&](vertex_t v) {
    if (odg.degree(v) == 0) return;
    const auto [first, last] = odg.page_range(v);
    for (std::uint64_t p = first; p <= last; ++p) pages.insert(p);
  });
  return {pages.begin(), pages.end()};
}

/// The members of `f` that `keep` accepts.
core::VertexSubset members_where(const core::VertexSubset& f,
                                 const std::function<bool(vertex_t)>& keep) {
  core::VertexSubset out(f.universe());
  f.for_each([&](vertex_t v) {
    if (keep(v)) out.add(v);
  });
  return out;
}

struct FrontierCase {
  std::string name;
  core::VertexSubset frontier;
};

std::vector<FrontierCase> frontier_cases(vertex_t n) {
  std::vector<FrontierCase> cases;
  cases.push_back({"empty", core::VertexSubset(n)});
  cases.push_back({"single hub", core::VertexSubset::single(n, kHub)});
  cases.push_back({"single zero-degree", core::VertexSubset::single(n, 5)});
  core::VertexSubset sparse(n);
  for (vertex_t v = 3; v < n; v += 211) sparse.add(v);
  sparse.add(n - 1);  // trailing zero-degree vertex
  cases.push_back({"sparse", std::move(sparse)});
  core::VertexSubset dense(n);
  Xoshiro256 rng(11);
  for (vertex_t v = 0; v < n; ++v) {
    if (rng.next_below(2) == 0) dense.add(v);
  }
  cases.push_back({"dense", dense.clone()});
  cases.push_back({"all", core::VertexSubset::all(n)});
  cases.push_back({"all without v % 3 == 0",
                   members_where(core::VertexSubset::all(n),
                                 [](vertex_t v) { return v % 3 != 0; })});
  cases.push_back(
      {"dense without the hub and v % 5 == 0",
       members_where(dense,
                     [](vertex_t v) { return v != kHub && v % 5 != 0; })});
  return cases;
}

/// The page-frontier pass equals the union of its members' page ranges on
/// every encoding's byte layout, for every frontier shape.
TEST(PageFrontier, EqualsUnionOfMemberPageRanges) {
  graph::Csr g = from_degrees(page_frontier_degrees());
  const vertex_t n = g.num_vertices();
  std::vector<float> weights(g.num_edges());
  for (std::size_t e = 0; e < weights.size(); ++e) {
    weights[e] = static_cast<float>(e % 17);
  }
  struct Layout {
    std::string name;
    OnDiskGraph odg;
  };
  std::vector<Layout> layouts;
  layouts.push_back({"flat", make_mem_graph(g)});
  layouts.push_back(
      {"dvarint", make_mem_graph(g, 1, AdjacencyEncoding::kDeltaVarint)});
  layouts.push_back(
      {"weighted", make_mem_graph(graph::WeightedCsr(g, std::move(weights)))});
  // The layout's boundary cases, on the flat bytes.
  const OnDiskGraph& flat = layouts[0].odg;
  ASSERT_EQ(flat.index().byte_end(1) % kPageSize, 0u);
  ASSERT_GT(flat.page_range(kHub).second - flat.page_range(kHub).first, 8u);
  ASSERT_NE(flat.index().total_adjacency_bytes() % kPageSize, 0u);
  ASSERT_GT(flat.num_pages(), 1024u);  // more than one task: on the pool

  ThreadPool pool(3);
  for (const Layout& l : layouts) {
    for (const FrontierCase& c : frontier_cases(n)) {
      ConcurrentBitmap bits = core::page_frontier(pool, l.odg, c.frontier);
      ASSERT_EQ(bits.size(), l.odg.num_pages()) << l.name;
      std::vector<std::uint64_t> got;
      bits.for_each([&](std::size_t p) { got.push_back(p); });
      EXPECT_EQ(got, union_of_page_ranges(l.odg, c.frontier))
          << l.name << ", " << c.name;
      EXPECT_EQ(bits.count(), got.size()) << l.name << ", " << c.name;
    }
  }
}

/// Striped 3 ways, the same pages leave in per-device batches: logical
/// page p on device p % 3 as its page p / 3, in ascending order, tagged
/// with the graph's position in the list.
TEST(PageFrontier, StripedBatchesSplitTheSamePages) {
  graph::Csr g = from_degrees(page_frontier_degrees());
  const vertex_t n = g.num_vertices();
  const OnDiskGraph striped_flat = make_mem_graph(g, 3);
  const OnDiskGraph striped_dvarint =
      make_mem_graph(g, 3, AdjacencyEncoding::kDeltaVarint);
  core::Runtime rt(testutil::test_config());
  for (const FrontierCase& c : frontier_cases(n)) {
    auto batches = core::detail::page_frontier_batches(
        rt.default_context(), {&striped_flat, &striped_dvarint}, c.frontier);
    ASSERT_EQ(batches.size(), 6u) << c.name;
    for (std::uint32_t s = 0; s < 2; ++s) {
      const OnDiskGraph& odg = s == 0 ? striped_flat : striped_dvarint;
      const auto want = union_of_page_ranges(odg, c.frontier);
      for (std::uint32_t d = 0; d < 3; ++d) {
        const io::ReadBatch& b = batches[s * 3 + d];
        EXPECT_EQ(b.origin.source, s);
        EXPECT_EQ(b.origin.stripe_width, 3u);
        EXPECT_EQ(b.origin.stripe_index, d);
        std::vector<std::uint64_t> want_d;
        for (std::uint64_t p : want) {
          if (p % 3 == d) want_d.push_back(p / 3);
        }
        EXPECT_EQ(b.pages, want_d)
            << c.name << ", graph " << s << ", device " << d;
      }
    }
  }
}

}  // namespace
}  // namespace blaze::format
