// Out-of-core k-core decomposition (iterative peeling).
//
// Extension query: computes each vertex's coreness over the undirected
// closure of the graph (degrees count both directions, so both the graph
// and its transpose are consumed, like WCC). ExecutionMode::kAsync runs
// the same BSP peel: exact coreness needs level-at-a-time peeling, which
// a priority queue could only replay round for round.
#pragma once

#include <vector>

#include "core/query_context.h"
#include "core/runtime.h"
#include "core/stats.h"
#include "format/on_disk_graph.h"

namespace blaze::algorithms {

struct KcoreResult {
  /// coreness[v]: the largest k such that v belongs to the k-core.
  std::vector<std::uint32_t> coreness;
  std::uint32_t max_core = 0;
  core::QueryStats stats;

  std::uint64_t algorithm_bytes() const {
    // coreness + residual-degree arrays.
    return 2 * coreness.size() * sizeof(std::uint32_t);
  }
};

/// Peels the graph level by level on the query's own execution context.
/// `max_k` bounds the sweep (0 = no bound).
KcoreResult kcore(core::QueryContext& qc, const format::OnDiskGraph& out_g,
                  const format::OnDiskGraph& in_g, std::uint32_t max_k = 0);

/// Single-query convenience: runs on the Runtime's default context.
KcoreResult kcore(core::Runtime& rt, const format::OnDiskGraph& out_g,
                  const format::OnDiskGraph& in_g, std::uint32_t max_k = 0);

}  // namespace blaze::algorithms
