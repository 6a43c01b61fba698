// Out-of-core PageRank using the delta variant (paper Algorithm 2).
//
// Vertices stay active only while their rank keeps changing by more than
// epsilon relative to their current rank, so later iterations touch only a
// shrinking frontier (selective scheduling). ExecutionMode::kAsync runs
// this same BSP loop: residual-priority rounds read more bytes than it.
#pragma once

#include <vector>

#include "core/query_context.h"
#include "core/runtime.h"
#include "core/stats.h"
#include "format/on_disk_graph.h"

namespace blaze::algorithms {

struct PageRankOptions {
  double damping = 0.85;
  double epsilon = 1e-2;       ///< relative-change activation threshold
  std::uint32_t max_iterations = 100;
};

struct PageRankResult {
  std::vector<float> rank;  ///< p in the paper's Algorithm 2
  std::uint32_t iterations = 0;
  core::QueryStats stats;

  std::uint64_t algorithm_bytes() const {
    // Three float arrays: p, delta, ngh_sum (the reason the paper reports
    // 16-33 % memory footprint for PageRank).
    return 3 * rank.size() * sizeof(float);
  }
};

/// Runs PageRank-delta until no vertex is active or max_iterations, on the
/// query's own execution context.
PageRankResult pagerank(core::QueryContext& qc,
                        const format::OnDiskGraph& g,
                        const PageRankOptions& options = {});

/// Single-query convenience: runs on the Runtime's default context.
PageRankResult pagerank(core::Runtime& rt, const format::OnDiskGraph& g,
                        const PageRankOptions& options = {});

}  // namespace blaze::algorithms
