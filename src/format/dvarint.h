// Delta+varint adjacency encoding (ROADMAP "Compressed CSR").
//
// EdgeMap is bandwidth-bound, so bytes/edge multiplies throughput the same
// way adding SSDs does. Each neighbor list is sorted, delta-encoded
// (first value absolute, then non-negative gaps — duplicates allowed, gap
// 0), and packed as LEB128 varints back-to-back in vertex order, padded to
// whole 4 kB pages exactly like the flat format so RAID-0 page
// interleaving is unchanged.
//
// Decode is fused into the page scan: pages are decoded one at a time,
// possibly out of order and by different workers. Two things make a page
// independently decodable when a vertex's encoded run straddles into it:
//   * byte offsets in GraphIndex are *encoded*-byte offsets (a second
//     per-vertex length array), locating each vertex's bytes in any page;
//   * a 16-byte PageCarry per page snapshots the decoder state at the
//     page boundary — the last fully-decoded neighbor, how many neighbors
//     were already emitted, and the low bits of a varint split across the
//     boundary — produced here at encode time.
#pragma once

#include <cstdint>
#include <vector>

#include "format/graph_index.h"
#include "graph/csr.h"

namespace blaze::format {

/// Encoder output: the page-padded adjacency region plus the index-side
/// metadata (per-vertex encoded lengths, per-page decode carries).
struct DvarintAdjacency {
  std::vector<std::byte> bytes;             ///< padded to a page multiple
  std::vector<std::uint32_t> enc_lengths;   ///< encoded bytes per vertex
  std::vector<PageCarry> carries;           ///< one per adjacency page
  std::uint64_t encoded_bytes = 0;          ///< total before padding
};

/// Sorts, delta-encodes and varint-packs every neighbor list of `g`.
DvarintAdjacency encode_dvarint(const graph::Csr& g);

/// Builds the dvarint GraphIndex for `g` from an encoder result.
GraphIndex make_dvarint_index(const graph::Csr& g, DvarintAdjacency& enc);

/// Reference decoder for one vertex's complete encoded run (tests and
/// transcoding; the hot path decodes per page via format::for_each_edge).
std::vector<vertex_t> decode_dvarint_list(const std::byte* data,
                                          std::uint32_t enc_length,
                                          std::uint32_t degree);

}  // namespace blaze::format
