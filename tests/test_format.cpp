// Unit tests for the on-disk format: indirection index, page-to-vertex
// map, serialization round trips, file IO, partitioners, page scanning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>

#include "format/dvarint.h"
#include "format/graph_index.h"
#include "format/on_disk_graph.h"
#include "format/page_scan.h"
#include "format/page_vertex_map.h"
#include "format/partitioner.h"
#include "graph/generators.h"
#include "graph/weighted.h"

namespace blaze::format {
namespace {

// --------------------------------------------------------------- GraphIndex

TEST(GraphIndex, MatchesNaivePrefixSums) {
  graph::Csr g = graph::generate_rmat(9, 8, 100);
  std::vector<std::uint32_t> degrees(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) degrees[v] = g.degree(v);
  GraphIndex idx(degrees);
  ASSERT_EQ(idx.num_vertices(), g.num_vertices());
  EXPECT_EQ(idx.num_edges(), g.num_edges());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(idx.edge_offset(v), g.offset(v)) << "vertex " << v;
    EXPECT_EQ(idx.degree(v), g.degree(v));
  }
}

TEST(GraphIndex, CompactMemory) {
  std::vector<std::uint32_t> degrees(100000, 3);
  GraphIndex idx(degrees);
  // ~4 bytes per degree + 8 bytes per 16 vertices = 4.5 B/vertex.
  EXPECT_LE(idx.memory_bytes(), 100000 * 5);
  // A flat u64 offsets array would cost 8 B/vertex.
  EXPECT_LT(idx.memory_bytes(), 100000 * sizeof(std::uint64_t));
}

TEST(GraphIndex, EmptyAndSingleVertex) {
  GraphIndex empty(std::span<const std::uint32_t>{});
  EXPECT_EQ(empty.num_vertices(), 0u);
  EXPECT_EQ(empty.num_edges(), 0u);

  std::vector<std::uint32_t> one = {7};
  GraphIndex idx(one);
  EXPECT_EQ(idx.edge_offset(0), 0u);
  EXPECT_EQ(idx.byte_end(0), 28u);
}

// ------------------------------------------------------------ PageVertexMap

TEST(PageVertexMap, RangesCoverExactlyOverlappingVertices) {
  graph::Csr g = graph::generate_rmat(9, 8, 101);
  std::vector<std::uint32_t> degrees(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) degrees[v] = g.degree(v);
  GraphIndex idx(degrees);
  PageVertexMap map(idx);

  for (std::uint64_t p = 0; p < map.num_pages(); ++p) {
    auto r = map.range(p);
    std::uint64_t page_b = p * kPageSize, page_e = page_b + kPageSize;
    // Every vertex in [begin, end) with degree > 0 must overlap the page...
    bool any = false;
    for (vertex_t v = r.begin; v < r.end; ++v) {
      if (idx.degree(v) == 0) continue;
      any = true;
      EXPECT_LT(idx.byte_offset(v), page_e);
      EXPECT_GT(idx.byte_end(v), page_b);
    }
    EXPECT_TRUE(any) << "page " << p << " has an empty range";
    // ...and the neighbors just outside must not.
    if (r.begin > 0 && idx.degree(r.begin - 1) > 0) {
      EXPECT_LE(idx.byte_end(r.begin - 1), page_b);
    }
    if (r.end < idx.num_vertices() && idx.degree(r.end) > 0) {
      EXPECT_GE(idx.byte_offset(r.end), page_e);
    }
  }
}

TEST(PageVertexMap, HubSpanningManyPages) {
  // One vertex with a giant list spanning pages, plus small ones around it.
  std::vector<std::uint32_t> degrees = {2, 5000, 3};
  GraphIndex idx(degrees);
  PageVertexMap map(idx);
  ASSERT_GE(map.num_pages(), 4u);
  // Middle pages are covered entirely by vertex 1.
  auto mid = map.range(1);
  EXPECT_EQ(mid.begin, 1u);
  EXPECT_EQ(mid.end, 2u);
  // First page holds vertices 0 and 1.
  EXPECT_EQ(map.range(0).begin, 0u);
  // Last page holds vertex 1's tail and vertex 2.
  auto last = map.range(map.num_pages() - 1);
  EXPECT_EQ(last.end, 3u);
}

// -------------------------------------------------------- OnDiskGraph + IO

TEST(OnDiskGraph, MemGraphServesAdjacency) {
  graph::Csr g = graph::generate_rmat(8, 8, 102);
  auto odg = make_mem_graph(g);
  EXPECT_EQ(odg.num_vertices(), g.num_vertices());
  EXPECT_EQ(odg.num_edges(), g.num_edges());
  // Read back a few adjacency lists directly.
  for (vertex_t v = 0; v < g.num_vertices(); v += 37) {
    if (g.degree(v) == 0) continue;
    std::vector<vertex_t> nbrs(g.degree(v));
    odg.device().read(
        odg.index().byte_offset(v),
        std::span<std::byte>(reinterpret_cast<std::byte*>(nbrs.data()),
                             nbrs.size() * sizeof(vertex_t)));
    auto want = g.neighbors(v);
    EXPECT_TRUE(std::equal(nbrs.begin(), nbrs.end(), want.begin()));
  }
}

TEST(OnDiskGraph, FileRoundTrip) {
  graph::Csr g = graph::generate_rmat(8, 6, 103);
  std::string prefix = "/tmp/blaze_test_graph";
  write_graph_files(g, prefix);
  auto odg = load_graph_files(prefix + ".gr.index", prefix + ".gr.adj.0");
  EXPECT_EQ(odg.num_vertices(), g.num_vertices());
  EXPECT_EQ(odg.num_edges(), g.num_edges());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(odg.degree(v), g.degree(v));
  }
  std::vector<vertex_t> nbrs(g.degree(0));
  if (!nbrs.empty()) {
    odg.device().read(
        odg.index().byte_offset(0),
        std::span<std::byte>(reinterpret_cast<std::byte*>(nbrs.data()),
                             nbrs.size() * sizeof(vertex_t)));
    auto want = g.neighbors(0);
    EXPECT_TRUE(std::equal(nbrs.begin(), nbrs.end(), want.begin()));
  }
  std::remove((prefix + ".gr.index").c_str());
  std::remove((prefix + ".gr.adj.0").c_str());
}

TEST(OnDiskGraph, LoadRejectsCorruptIndex) {
  std::string path = "/tmp/blaze_test_badidx.gr.index";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::uint32_t garbage[4] = {1, 2, 3, 4};
    std::fwrite(garbage, sizeof(garbage), 1, f);
    std::fclose(f);
  }
  EXPECT_THROW(load_graph_files(path, path), std::runtime_error);
  std::remove(path.c_str());
}

/// Index file bytes, and writing them back.
std::vector<char> read_all(const std::string& path) {
  std::vector<char> bytes;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    std::fclose(f);
  }
  return bytes;
}

void write_all(const std::string& path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

TEST(OnDiskGraph, LoadRejectsTamperedVertexCount) {
  // Header: magic, version (4 B each), vertex count, edge count (8 B each).
  graph::Csr g = graph::generate_rmat(8, 6, 104);
  const std::string prefix = "/tmp/blaze_test_tampered_v";
  const std::string index = prefix + ".gr.index";
  const std::string adj = prefix + ".gr.adj.0";
  write_graph_files(g, prefix);
  const std::vector<char> good = read_all(index);
  ASSERT_GT(good.size(), 24u);
  // Past vertex_t, then within vertex_t but past the file's bytes.
  for (std::uint64_t v : {std::uint64_t{1} << 40, std::uint64_t{1} << 20}) {
    std::vector<char> bad = good;
    std::memcpy(bad.data() + 8, &v, sizeof(v));
    write_all(index, bad);
    EXPECT_THROW(load_graph_files(index, adj), std::runtime_error) << v;
  }
  std::remove(index.c_str());
  std::remove(adj.c_str());
}

TEST(OnDiskGraph, LoadRejectsShortDvarintCarryTable) {
  // A v3 index ends with the carry count and one 16-byte carry per
  // adjacency page; cut the table one page short.
  graph::Csr g = graph::generate_rmat(9, 8, 109);
  const std::string prefix = "/tmp/blaze_test_short_carries";
  const std::string index = prefix + ".gr.index";
  const std::string adj = prefix + ".gr.adj.0";
  write_graph_files(g, prefix, AdjacencyEncoding::kDeltaVarint);
  const std::uint64_t pages = ceil_div<std::uint64_t>(
      load_graph_files(index, adj).index().total_adjacency_bytes(),
      kPageSize);
  ASSERT_GE(pages, 2u);
  std::vector<char> bytes = read_all(index);
  const std::size_t count_at = 24 + 8 * std::size_t{g.num_vertices()};
  const std::uint64_t num_carries = pages - 1;
  std::memcpy(bytes.data() + count_at, &num_carries, sizeof(num_carries));
  bytes.resize(count_at + 8 + 16 * num_carries);
  write_all(index, bytes);
  EXPECT_THROW(load_graph_files(index, adj), std::runtime_error);
  std::remove(index.c_str());
  std::remove(adj.c_str());
}

/// A delta+varint graph written to disk, for tampering its carry table:
/// the table follows the header (24 B), the degrees and encoded lengths
/// (4 B per vertex each) and the carry count (8 B), 16 B per carry.
struct DvarintFiles {
  graph::Csr g = graph::generate_rmat(9, 8, 109);
  std::string index, adj;
  std::vector<char> good;

  explicit DvarintFiles(const std::string& prefix)
      : index(prefix + ".gr.index"), adj(prefix + ".gr.adj.0") {
    write_graph_files(g, prefix, AdjacencyEncoding::kDeltaVarint);
    good = read_all(index);
  }
  ~DvarintFiles() {
    std::remove(index.c_str());
    std::remove(adj.c_str());
  }

  /// Loads the index as written.
  OnDiskGraph load() const {
    write_all(index, good);
    return load_graph_files(index, adj);
  }

  /// Loads the index with the 4-byte carry field at `field` (an offset
  /// into PageCarry) of page `page` set to `value`.
  OnDiskGraph load_with(std::uint64_t page, std::size_t field,
                        std::uint32_t value) const {
    std::vector<char> bad = good;
    const std::size_t at =
        24 + 8 * std::size_t{g.num_vertices()} + 8 + 16 * page + field;
    std::memcpy(bad.data() + at, &value, sizeof(value));
    write_all(index, bad);
    return load_graph_files(index, adj);
  }
};

TEST(OnDiskGraph, LoadRejectsCarryShiftOutsideVarintGroups) {
  DvarintFiles f("/tmp/blaze_test_carry_shift");
  const std::size_t field = offsetof(PageCarry, partial_shift);
  for (std::uint32_t shift : {3u, 35u}) {
    EXPECT_THROW(f.load_with(1, field, shift), std::runtime_error) << shift;
  }
  // Every whole 7-bit group that page 1's partial value fits in loads.
  const std::uint32_t acc = f.load().index().page_carry(1).partial_acc;
  for (std::uint32_t shift = 0; shift <= 28; shift += 7) {
    if ((acc >> shift) != 0) continue;
    EXPECT_NO_THROW(f.load_with(1, field, shift)) << shift;
  }
}

TEST(OnDiskGraph, LoadRejectsCarryWiderThanItsShift) {
  DvarintFiles f("/tmp/blaze_test_carry_acc");
  const std::size_t field = offsetof(PageCarry, partial_acc);
  const std::uint32_t shift = f.load().index().page_carry(1).partial_shift;
  EXPECT_THROW(f.load_with(1, field, 1u << shift), std::runtime_error);
  EXPECT_NO_THROW(f.load_with(1, field, (1u << shift) - 1));
}

TEST(OnDiskGraph, LoadRejectsCarryPastTheEndOfItsList) {
  // Find a list that crosses into a page; its carry there must leave
  // neighbors to decode.
  DvarintFiles f("/tmp/blaze_test_carry_done");
  const OnDiskGraph odg = f.load();
  const GraphIndex& idx = odg.index();
  vertex_t crossing = 0;
  std::uint64_t page = 0;
  for (vertex_t u = 0; u < idx.num_vertices() && page == 0; ++u) {
    const std::uint64_t next =
        (idx.byte_offset(u) / kPageSize + 1) * kPageSize;
    if (idx.byte_offset(u) + idx.encoded_length(u) > next) {
      crossing = u;
      page = next / kPageSize;
    }
  }
  ASSERT_NE(page, 0u);
  const std::uint32_t deg = idx.degree(crossing);
  const std::size_t field = offsetof(PageCarry, edges_done);
  EXPECT_THROW(f.load_with(page, field, deg), std::runtime_error);
  EXPECT_NO_THROW(f.load_with(page, field, deg - 1));
}

TEST(OnDiskGraph, RaidStripingPreservesData) {
  graph::Csr g = graph::generate_rmat(9, 8, 104);
  auto one = make_mem_graph(g, 1);
  auto four = make_mem_graph(g, 4);
  // Same logical bytes through both layouts.
  for (vertex_t v = 1; v < g.num_vertices(); v += 101) {
    if (g.degree(v) == 0) continue;
    std::vector<std::byte> a(g.degree(v) * sizeof(vertex_t));
    std::vector<std::byte> b(a.size());
    one.device().read(one.index().byte_offset(v), a);
    four.device().read(four.index().byte_offset(v), b);
    EXPECT_EQ(a, b) << "vertex " << v;
  }
}

// ------------------------------------------------- Delta+varint encoding

/// Per-vertex sorted-list equality: dvarint sorts each list, so compare
/// against the sorted original.
void expect_same_sorted_lists(const graph::Csr& got, const graph::Csr& want) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (vertex_t v = 0; v < want.num_vertices(); ++v) {
    auto wn = want.neighbors(v);
    std::vector<vertex_t> w(wn.begin(), wn.end());
    std::sort(w.begin(), w.end());
    auto gn = got.neighbors(v);
    ASSERT_EQ(gn.size(), w.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(gn.begin(), gn.end(), w.begin()))
        << "vertex " << v;
  }
}

TEST(Dvarint, EncodeDecodeRoundTrip) {
  graph::Csr g = graph::generate_rmat(10, 8, 106);
  DvarintAdjacency enc = encode_dvarint(g);
  EXPECT_EQ(enc.bytes.size() % kPageSize, 0u);
  EXPECT_LE(enc.encoded_bytes, enc.bytes.size());
  for (vertex_t v = 0; v < g.num_vertices(); v += 17) {
    auto nb = g.neighbors(v);
    std::vector<vertex_t> want(nb.begin(), nb.end());
    std::sort(want.begin(), want.end());
    std::uint64_t off = 0;
    for (vertex_t u = 0; u < v; ++u) off += enc.enc_lengths[u];
    auto got = decode_dvarint_list(enc.bytes.data() + off,
                                   enc.enc_lengths[v], g.degree(v));
    EXPECT_EQ(got, want) << "vertex " << v;
  }
}

TEST(Dvarint, MemGraphDecodesToSortedOriginal) {
  graph::Csr g = graph::generate_rmat(10, 8, 107);
  auto odg = make_mem_graph(g, 2, AdjacencyEncoding::kDeltaVarint);
  EXPECT_EQ(odg.index().encoding(), AdjacencyEncoding::kDeltaVarint);
  expect_same_sorted_lists(decode_to_csr(odg), g);
}

TEST(Dvarint, CompressesPowerLawGraph) {
  // Sorted power-law lists give mostly 1-2 byte gaps; anything short of a
  // 1.5x saving over the flat 4 B/neighbor means the encoder regressed.
  graph::Csr g = graph::generate_rmat(12, 16, 108);
  auto odg = make_mem_graph(g, 1, AdjacencyEncoding::kDeltaVarint);
  EXPECT_LT(odg.bytes_per_edge(), 4.0 / 1.5);
  auto flat = make_mem_graph(g);
  EXPECT_DOUBLE_EQ(flat.bytes_per_edge(), 4.0);
}

TEST(Dvarint, FileRoundTripV3) {
  graph::Csr g = graph::generate_rmat(9, 8, 109);
  std::string prefix = "/tmp/blaze_test_dvarint";
  write_graph_files(g, prefix, AdjacencyEncoding::kDeltaVarint);
  auto odg = load_graph_files(prefix + ".gr.index", prefix + ".gr.adj.0");
  EXPECT_EQ(odg.index().encoding(), AdjacencyEncoding::kDeltaVarint);
  EXPECT_EQ(odg.num_vertices(), g.num_vertices());
  EXPECT_EQ(odg.num_edges(), g.num_edges());
  // Carries and encoded lengths must survive the file round trip for the
  // fused scan to work at all; decode proves them end to end.
  expect_same_sorted_lists(decode_to_csr(odg), g);
  std::remove((prefix + ".gr.index").c_str());
  std::remove((prefix + ".gr.adj.0").c_str());
}

TEST(Dvarint, WeightedGraphDecodeThrowsTypedError) {
  // Weighted files interleave 8-byte (dst, weight) records; the dvarint
  // re-encode path only packs 4-byte neighbor ids, so the transcode entry
  // point must refuse with the typed error blaze-run turns into exit 2.
  graph::Csr g = graph::generate_rmat(8, 8, 110);
  auto odg = make_mem_graph(graph::attach_hash_weights(g));
  ASSERT_EQ(odg.index().record_bytes(), 8u);
  EXPECT_THROW(decode_to_csr(odg), EncodingError);
}

TEST(Dvarint, EmptyAndSingletonLists) {
  graph::Csr g({0, 0, 1, 1, 4, 4}, {42, 7, 7, 1000000});
  auto odg = make_mem_graph(g, 1, AdjacencyEncoding::kDeltaVarint);
  expect_same_sorted_lists(decode_to_csr(odg), g);
}

// ---------------------------------------------------- Fail-fast guard rails

using OnDiskGraphDeathTest = ::testing::Test;

TEST(OnDiskGraphDeathTest, PageRangeOnZeroDegreeVertexAborts) {
  graph::Csr g({0, 0, 3}, {1, 0, 1});
  auto odg = make_mem_graph(g);
  EXPECT_EQ(odg.degree(0), 0u);
  EXPECT_DEATH(odg.page_range(0), "degree-0");
}

TEST(OnDiskGraphDeathTest, PageVerifierOnStripedGraphAborts) {
  graph::Csr g = graph::generate_rmat(8, 8, 110);
  auto striped = make_mem_graph(g, 2);
  EXPECT_DEATH(
      striped.set_page_verifier(
          [](std::uint64_t, std::span<const std::byte>) { return true; }),
      "striped");
  // Single-device graphs still accept one.
  auto single = make_mem_graph(g, 1);
  single.set_page_verifier(
      [](std::uint64_t, std::span<const std::byte>) { return true; });
  EXPECT_TRUE(static_cast<bool>(single.page_verifier()));
}

// ----------------------------------------------------------------- Scanning

TEST(PageScan, VisitsExactlyFrontierEdges) {
  graph::Csr g = graph::generate_rmat(9, 8, 105);
  auto odg = make_mem_graph(g);
  // Frontier: every third vertex.
  auto active = [](vertex_t v) { return v % 3 == 0; };

  std::uint64_t want_edges = 0;
  std::map<std::pair<vertex_t, vertex_t>, int> want;
  for (vertex_t v = 0; v < g.num_vertices(); v += 3) {
    for (vertex_t d : g.neighbors(v)) {
      ++want[{v, d}];
      ++want_edges;
    }
  }

  std::map<std::pair<vertex_t, vertex_t>, int> got;
  std::uint64_t got_edges = 0;
  std::vector<std::byte> page(kPageSize);
  for (std::uint64_t p = 0; p < odg.num_pages(); ++p) {
    odg.device().read(p * kPageSize, page);
    got_edges += for_each_edge(odg.index(), odg.page_map(), p, page.data(),
                               kPageSize, active, [&](vertex_t s, vertex_t d) {
                                 ++got[{s, d}];
                               });
  }
  EXPECT_EQ(got_edges, want_edges);
  EXPECT_EQ(got, want);
}

// -------------------------------------------------------------- Partitioner

TEST(Partitioner, EqualEdgesPerDevice) {
  graph::Csr g = graph::generate_rmat(10, 8, 106);
  std::vector<std::uint32_t> degrees(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) degrees[v] = g.degree(v);
  GraphIndex idx(degrees);
  TopologyPartitioner part(idx, 32, 8);
  auto bytes = part.device_bytes(8);
  auto [lo, hi] = std::minmax_element(bytes.begin(), bytes.end());
  // Equal-edge construction: devices within ~15 % of each other.
  EXPECT_LT(static_cast<double>(*hi - *lo),
            0.15 * static_cast<double>(*hi) + 2 * kPageSize);
}

TEST(Partitioner, PartitionsCoverVertexSpace) {
  std::vector<std::uint32_t> degrees(1000, 4);
  GraphIndex idx(degrees);
  TopologyPartitioner part(idx, 7, 3);
  vertex_t expect_begin = 0;
  for (const auto& p : part.partitions()) {
    EXPECT_EQ(p.begin_vertex, expect_begin);
    EXPECT_GT(p.end_vertex, p.begin_vertex);
    expect_begin = p.end_vertex;
  }
  EXPECT_EQ(expect_begin, 1000u);
}

TEST(Partitioner, LocateReturnsReadableAddress) {
  graph::Csr g = graph::generate_rmat(9, 8, 107);
  auto pg = make_partitioned_graph(g, device::optane_p4800x(), 4);
  for (auto& d : pg.devices) {
    static_cast<device::SimulatedSsd*>(d.get())->set_no_wait(true);
  }
  for (vertex_t v = 0; v < g.num_vertices(); v += 53) {
    if (g.degree(v) == 0) continue;
    auto [dev, off] = pg.partitioner.locate(pg.index, v);
    std::vector<vertex_t> nbrs(g.degree(v));
    pg.devices[dev]->read(
        off, std::span<std::byte>(reinterpret_cast<std::byte*>(nbrs.data()),
                                  nbrs.size() * sizeof(vertex_t)));
    auto want = g.neighbors(v);
    EXPECT_TRUE(std::equal(nbrs.begin(), nbrs.end(), want.begin()))
        << "vertex " << v;
  }
}

}  // namespace
}  // namespace blaze::format
