// Page frontier (paper Section IV-B, EdgeMap step 1): the on-disk pages a
// vertex frontier's adjacency occupies, computed before any IO is posted.
//
// The pass runs over pages, not frontier members. The page-to-vertex map
// (Section IV-F) gives each page the vertex range whose lists overlap it,
// and the frontier's bitmap words over that range answer whether any of
// them is a member. Each parallel task owns whole 64-page words of the
// result and stores each once. No atomic read-modify-write and no index
// walk is needed, and a dense and a sparse frontier take the same path. The
// cost is O(pages + |V| / 64): ranges overlap only in the vertices that
// straddle a page boundary.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/vertex_subset.h"
#include "format/on_disk_graph.h"
#include "util/concurrent_bitmap.h"
#include "util/thread_pool.h"

namespace blaze::core {

/// The pages of `g` holding the adjacency of a member `v` of `frontier`
/// with degree(v) != 0.
inline ConcurrentBitmap page_frontier(ThreadPool& pool,
                                      const format::OnDiskGraph& g,
                                      const VertexSubset& frontier) {
  BLAZE_CHECK(frontier.universe() == g.num_vertices(),
              "page_frontier: frontier and graph differ in vertex count");
  // Words one task builds: 1024 pages. A graph that small is done inline,
  // because the pass over it (about 5 us) is cheaper than waking the pool.
  constexpr std::size_t kWordsPerTask = 16;
  const std::uint64_t pages = g.num_pages();
  ConcurrentBitmap bits(pages);
  // A vertex of the range is needed: a member with edges.
  auto any_needed = [&](format::PageVertexMap::Range r) {
    if (r.begin >= r.end) return false;
    const std::size_t first = r.begin >> 6, last = (r.end - 1) >> 6;
    for (std::size_t k = first; k <= last; ++k) {
      std::uint64_t w = frontier.word(k);
      if (k == first) w &= ~0ULL << (r.begin & 63);
      if (k == last) w &= ~0ULL >> (63 - ((r.end - 1) & 63));
      for (; w != 0; w &= w - 1) {
        const auto v = static_cast<vertex_t>((k << 6) + __builtin_ctzll(w));
        if (g.degree(v) != 0) return true;
      }
    }
    return false;
  };
  pool.parallel_for(
      0, bits.word_count(),
      [&](std::size_t k) {
        std::uint64_t word = 0;
        const std::uint64_t end = std::min<std::uint64_t>(pages, (k + 1) * 64);
        for (std::uint64_t p = k * 64; p < end; ++p) {
          if (any_needed(g.page_map().range(p))) word |= 1ULL << (p & 63);
        }
        if (word != 0) bits.store_word(k, word);
      },
      kWordsPerTask);
  return bits;
}

}  // namespace blaze::core
