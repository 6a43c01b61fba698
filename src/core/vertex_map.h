// VERTEXMAP (paper Section IV-B): applies a function to every frontier
// member fully in memory; the members where it returns true form the result.
//
// This is the one implementation. The Blaze QueryContext/Runtime forms
// (core/edge_map.h) and the baseline engines forward to it, so every
// comparison runs the same VertexMap.
#pragma once

#include "core/stats.h"
#include "core/vertex_subset.h"
#include "util/thread_pool.h"

namespace blaze::core {

/// VertexMap on `pool`. A dense frontier is filtered a word at a time: each
/// output word is built in a register and stored once by the worker that
/// owns its 64-vertex block. A sparse frontier adds its kept members to the
/// output bitmap.
template <typename Fn>
VertexSubset vertex_map(ThreadPool& pool, const VertexSubset& frontier,
                        Fn&& f, QueryStats* stats = nullptr) {
  if (stats) ++stats->vertex_map_calls;
  if (!frontier.is_dense()) {
    VertexSubset out(frontier.universe());
    frontier.for_each_parallel(pool, [&](vertex_t v) {
      if (f(v)) out.add(v);
    });
    return out;
  }
  return VertexSubset::from_words(
      pool, frontier.universe(), [&](std::size_t k) {
        std::uint64_t in = frontier.word(k);
        std::uint64_t keep = 0;
        while (in != 0) {
          const int bit = __builtin_ctzll(in);
          if (f(static_cast<vertex_t>((k << 6) + bit))) keep |= 1ULL << bit;
          in &= in - 1;
        }
        return keep;
      });
}

}  // namespace blaze::core
