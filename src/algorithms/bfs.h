// Out-of-core Breadth-First Search (paper Algorithm 1).
#pragma once

#include <vector>

#include "core/query_context.h"
#include "core/runtime.h"
#include "core/stats.h"
#include "format/on_disk_graph.h"

namespace blaze::algorithms {

struct BfsResult {
  /// parent[v] is the BFS-tree parent of v, the source for the source
  /// itself, and kInvalidVertex for unreached vertices.
  std::vector<vertex_t> parent;
  std::uint32_t iterations = 0;
  core::QueryStats stats;

  /// DRAM bytes of the algorithm-specific arrays (Figure 12).
  std::uint64_t algorithm_bytes() const {
    return parent.size() * sizeof(vertex_t);
  }
};

/// Runs BFS from `source` over the on-disk graph `g` using the query's own
/// execution context (bins, buffers, compute pool). Concurrent sessions
/// each pass their own context over one shared Runtime.
BfsResult bfs(core::QueryContext& qc, const format::OnDiskGraph& g,
              vertex_t source);

/// Single-query convenience: runs on the Runtime's default context.
BfsResult bfs(core::Runtime& rt, const format::OnDiskGraph& g,
              vertex_t source);

}  // namespace blaze::algorithms
