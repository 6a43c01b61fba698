// The page-scan kernel (paper Sections IV-B and IV-C).
//
// Both EdgeMap paths (core::edge_map and the FlashGraph baseline) do one
// job on a fetched 4 kB adjacency page: find the page's active
// sources through the page-to-vertex map, then visit their edges. That job
// is for_each_edge(), for every on-disk encoding. The vertex-range walk and
// the byte-overlap clamp are written once; each encoding supplies only its
// inner decode loop. Byte offsets advance incrementally, so the indirection
// index is consulted once per page, not once per vertex.
//
// Page bytes are untrusted. A neighbor id >= num_vertices(), a varint
// longer than 5 bytes or a page carry past 28 bits raises
// io::IoError{kCorruption} before the id reaches the caller's arrays.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <type_traits>

#include "format/graph_index.h"
#include "format/page_vertex_map.h"
#include "io/io_error.h"
#include "util/common.h"

namespace blaze::format {

/// Aborts unless `EdgeFn` takes what `index`'s records hold: (src, dst,
/// weight) on weighted graphs, (src, dst) otherwise. Engines run it before
/// starting IO; for_each_edge() runs it on a mismatch.
template <typename EdgeFn>
void check_edge_fn(const GraphIndex& index) {
  if (index.record_bytes() == sizeof(vertex_t) + sizeof(float)) {
    BLAZE_CHECK((std::is_invocable_v<EdgeFn&, vertex_t, vertex_t, float>),
                "weighted graph requires an edge callback (src, dst, weight)");
  } else {
    BLAZE_CHECK((std::is_invocable_v<EdgeFn&, vertex_t, vertex_t>),
                "unweighted graph requires an edge callback (src, dst)");
  }
}

namespace detail {

[[noreturn, gnu::cold, gnu::noinline]] inline void corrupt_page(
    std::uint64_t logical_page, const char* what) {
  throw io::IoError(io::ErrorKind::kCorruption, "adjacency",
                    "page " + std::to_string(logical_page) + ": " + what);
}

}  // namespace detail

/// Visits the edges of every active source (`is_active(v)`) whose bytes lie
/// in `page`, logical page `logical_page` of the adjacency region, of which
/// the first `page_valid` bytes hold data (fewer than kPageSize only for a
/// tail-clamped read). Weighted graphs call `edge_fn(src, dst, weight)`, the
/// others `edge_fn(src, dst)`; `edge_fn` returns void, and every edge of
/// an active list is visited. Delta+varint lists that straddle into the
/// page resume from its PageCarry, so pages decode independently and in
/// any order. Returns the number of edges visited; throws
/// io::IoError{kCorruption} on a corrupt page.
template <typename Pred, typename EdgeFn>
std::uint64_t for_each_edge(const GraphIndex& index,
                            const PageVertexMap& pvmap,
                            std::uint64_t logical_page, const std::byte* page,
                            std::uint64_t page_valid, Pred&& is_active,
                            EdgeFn&& edge_fn) {
  // Rejects a neighbor id outside the graph before edge_fn indexes with it.
  auto checked = [n = index.num_vertices(), logical_page](vertex_t dst) {
    if (dst >= n) detail::corrupt_page(logical_page, "neighbor id >= |V|");
    return dst;
  };
  // The walk every encoding shares: each active vertex whose bytes
  // [vb, vb + length(v)) overlap the page's valid bytes hands that overlap
  // to decode(v, straddles_in, begin, end), which returns the edges it
  // visited. `straddles_in`: the list began on an earlier page.
  auto walk = [&](auto length, auto decode) {
    const std::uint64_t page_base = logical_page * kPageSize;
    const std::uint64_t page_end =
        page_base + std::min<std::uint64_t>(page_valid, kPageSize);
    const auto range = pvmap.range(logical_page);
    std::uint64_t off = index.byte_offset(range.begin);
    std::uint64_t visited = 0;
    for (vertex_t v = range.begin; v < range.end; ++v) {
      const std::uint64_t vb = off;
      off += length(v);
      if (off == vb || !is_active(v)) continue;
      const std::uint64_t ob = std::max(vb, page_base);
      const std::uint64_t oe = std::min(off, page_end);
      if (ob >= oe) continue;
      visited += decode(v, vb < page_base, page + (ob - page_base),
                        page + (oe - page_base));
    }
    return visited;
  };
  // Fixed-size records: the destination, then the weight on weighted
  // graphs. kPageSize is a multiple of both sizes, so none straddles.
  auto records = [&](auto weighted) {
    constexpr std::size_t kRec =
        sizeof(vertex_t) + (decltype(weighted)::value ? sizeof(float) : 0);
    return walk(
        [&](vertex_t v) { return std::uint64_t{index.degree(v)} * kRec; },
        [&](vertex_t v, bool, const std::byte* p,
            const std::byte* pe) -> std::uint64_t {
          const std::size_t cnt = static_cast<std::size_t>(pe - p) / kRec;
          for (std::size_t k = 0; k < cnt; ++k, p += kRec) {
            vertex_t dst;
            std::memcpy(&dst, p, sizeof(dst));
            if constexpr (decltype(weighted)::value) {
              float weight;
              std::memcpy(&weight, p + sizeof(dst), sizeof(weight));
              edge_fn(v, checked(dst), weight);
            } else {
              edge_fn(v, checked(dst));
            }
          }
          return cnt;
        });
  };
  // Delta+varint: the first neighbor is absolute, the rest are gaps off
  // the running value (sorted lists; duplicates encode as gap 0).
  auto dvarint = [&](auto& fn) {
    return walk(
        [&](vertex_t v) { return std::uint64_t{index.encoded_length(v)}; },
        [&](vertex_t v, bool straddles_in, const std::byte* p,
            const std::byte* pe) {
          const std::uint32_t deg = index.degree(v);
          std::uint32_t acc = 0, shift = 0, prev = 0, done = 0;
          if (straddles_in) {
            // Resume from the boundary snapshot, including the low bits of
            // a split varint.
            const PageCarry& c = index.page_carry(logical_page);
            if (c.partial_shift > 28) {
              detail::corrupt_page(logical_page, "carry shift > 28");
            }
            acc = c.partial_acc;
            shift = c.partial_shift;
            prev = c.prev;
            done = c.edges_done;
          }
          const std::uint32_t first = done;
          while (p < pe && done < deg) {
            const auto b = static_cast<std::uint32_t>(*p++);
            acc |= (b & 0x7fu) << shift;
            if (b & 0x80u) {
              shift += 7;
              if (shift > 28) {
                detail::corrupt_page(logical_page, "varint longer than 5 B");
              }
              continue;
            }
            prev = checked(done == 0 ? acc : prev + acc);
            acc = 0;
            shift = 0;
            ++done;
            fn(v, prev);
          }
          return std::uint64_t{done - first};
        });
  };

  static_assert(
      !std::is_invocable_r_v<bool, EdgeFn&, vertex_t, vertex_t> &&
          !std::is_invocable_r_v<bool, EdgeFn&, vertex_t, vertex_t, float>,
      "edge callbacks return void: there is no early exit");
  // One dispatch per page on the encoding and record size.
  constexpr bool kTakesPair =
      std::is_invocable_v<EdgeFn&, vertex_t, vertex_t>;
  if (index.encoding() == AdjacencyEncoding::kDeltaVarint) {
    if constexpr (kTakesPair) return dvarint(edge_fn);
  } else if (index.record_bytes() == sizeof(vertex_t)) {
    if constexpr (kTakesPair) return records(std::false_type{});
  } else if constexpr (std::is_invocable_v<EdgeFn&, vertex_t, vertex_t,
                                           float>) {
    return records(std::true_type{});
  }
  check_edge_fn<EdgeFn>(index);  // aborts: the callback cannot take these
  return 0;
}

}  // namespace blaze::format
