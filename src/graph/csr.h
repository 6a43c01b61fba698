// In-memory Compressed Sparse Row graph.
//
// The in-memory CSR is the source of truth that the on-disk page-interleaved
// format (src/format) serializes, the oracle the tests compare the
// out-of-core engine against, and the input to the in-memory reference
// engine used by Figure 4.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/common.h"

namespace blaze::graph {

/// Immutable directed graph in CSR form. Vertex IDs are dense in
/// [0, num_vertices()).
class Csr {
 public:
  Csr() = default;

  /// Constructs from prebuilt arrays. `offsets` must have V+1 entries with
  /// offsets.front() == 0 and offsets.back() == neighbors.size().
  Csr(std::vector<std::uint64_t> offsets, std::vector<vertex_t> neighbors)
      : offsets_(std::move(offsets)), neighbors_(std::move(neighbors)) {
    BLAZE_CHECK(!offsets_.empty(), "CSR offsets empty");
    BLAZE_CHECK(offsets_.front() == 0, "CSR offsets must start at 0");
    // degree() (and every consumer downstream: GraphIndex,
    // format::for_each_edge) carries per-vertex degrees as u32; a vertex
    // whose offset span exceeds 32 bits would silently scan a truncated
    // list. Fail loudly here instead. Checked before the total-size
    // consistency check so an oversized vertex is reported as such.
    for (std::size_t v = 0; v + 1 < offsets_.size(); ++v) {
      BLAZE_CHECK(offsets_[v + 1] >= offsets_[v],
                  "CSR offsets must be non-decreasing");
      BLAZE_CHECK(offsets_[v + 1] - offsets_[v] <= 0xFFFFFFFFull,
                  "vertex degree exceeds 32 bits; degree() would truncate");
    }
    BLAZE_CHECK(offsets_.back() == neighbors_.size(),
                "CSR offsets/neighbors mismatch");
  }

  vertex_t num_vertices() const {
    return static_cast<vertex_t>(offsets_.size() - 1);
  }
  std::uint64_t num_edges() const { return neighbors_.size(); }

  std::uint32_t degree(vertex_t v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  std::uint64_t offset(vertex_t v) const { return offsets_[v]; }

  /// Out-neighbors of `v`.
  std::span<const vertex_t> neighbors(vertex_t v) const {
    return std::span<const vertex_t>(neighbors_.data() + offsets_[v],
                                     degree(v));
  }

  std::span<const std::uint64_t> offsets() const { return offsets_; }
  std::span<const vertex_t> edges() const { return neighbors_; }

 private:
  std::vector<std::uint64_t> offsets_;  // V+1 prefix sums
  std::vector<vertex_t> neighbors_;     // E destination IDs
};

/// Builds the transpose (in-edges graph). WCC and BC run EdgeMap over both
/// directions (paper Algorithms 1-3).
Csr transpose(const Csr& g);

/// Builds a CSR from an arbitrary edge list (counting sort, stable). Self
/// loops are kept; duplicates are kept unless `dedup` is set.
Csr build_csr(vertex_t num_vertices,
              std::span<const std::pair<vertex_t, vertex_t>> edges,
              bool dedup = false);

}  // namespace blaze::graph
