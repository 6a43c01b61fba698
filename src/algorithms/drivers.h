// The query drivers: each paper query's loop, written once against the
// Ligra-style engine concept, so every engine runs the same iterations
// over the same Programs (programs.h) and cross-engine results compare
// edge for edge.
//
// An Engine provides
//   vertex_t num_vertices();
//   core::VertexSubset edge_map(const core::VertexSubset& frontier,
//                               Program& prog, bool output,
//                               core::QueryStats* stats);
//   core::VertexSubset vertex_map(const core::VertexSubset& frontier,
//                                 Fn&& f, core::QueryStats* stats);
// FlashGraphEngine, GrapheneEngine, LigraEngine and scaleout::Cluster
// provide it directly; Blaze provides it through BlazeEngine below.
#pragma once

#include <atomic>
#include <cmath>
#include <vector>

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/programs.h"
#include "algorithms/spmv.h"
#include "algorithms/wcc.h"
#include "core/edge_map.h"

namespace blaze::algorithms {

/// Blaze as a driver engine: a view over a query context and the graphs
/// each edge_map streams, a graph alone or a graph and its transpose read
/// in one pass (core::GraphList).
class BlazeEngine {
 public:
  BlazeEngine(core::QueryContext& qc, const format::OnDiskGraph& g)
      : qc_(qc), g_(&g) {}
  BlazeEngine(core::QueryContext& qc, const format::OnDiskGraph& g,
              const format::OnDiskGraph& transpose)
      : qc_(qc), g_(&g), transpose_(&transpose) {}

  vertex_t num_vertices() const { return g_->num_vertices(); }

  template <typename Program>
  core::VertexSubset edge_map(const core::VertexSubset& frontier,
                              Program& prog, bool output,
                              core::QueryStats* stats) {
    const core::EdgeMapOptions opts{output, stats};
    if (transpose_) {
      return core::edge_map(qc_, {g_, transpose_}, frontier, prog, opts);
    }
    return core::edge_map(qc_, {g_}, frontier, prog, opts);
  }

  template <typename Fn>
  core::VertexSubset vertex_map(const core::VertexSubset& frontier, Fn&& f,
                                core::QueryStats* stats) {
    return core::vertex_map(qc_, frontier, std::forward<Fn>(f), stats);
  }

 private:
  core::QueryContext& qc_;
  const format::OnDiskGraph* g_;
  const format::OnDiskGraph* transpose_ = nullptr;
};

/// Runs `prog` from `frontier` until an iteration activates no vertex
/// (BFS, Bellman-Ford SSSP); returns the iterations.
template <typename Engine, typename Program>
std::uint32_t run_until_empty(Engine& eng, core::VertexSubset frontier,
                              Program& prog, core::QueryStats* stats) {
  std::uint32_t iterations = 0;
  while (!frontier.empty()) {
    frontier = eng.edge_map(frontier, prog, /*output=*/true, stats);
    ++iterations;
  }
  return iterations;
}

/// BFS (paper Algorithm 1).
template <typename Engine>
BfsResult run_bfs(Engine& eng, vertex_t source) {
  const vertex_t n = eng.num_vertices();
  BfsResult result;
  result.parent.assign(n, kInvalidVertex);
  result.parent[source] = source;
  BfsProgram prog{result.parent};
  result.iterations = run_until_empty(
      eng, core::VertexSubset::single(n, source), prog, &result.stats);
  return result;
}

/// PageRank-delta (paper Algorithm 2). `index` supplies out-degrees.
template <typename Engine>
PageRankResult run_pagerank(Engine& eng, const format::GraphIndex& index,
                            const PageRankOptions& options = {}) {
  const vertex_t n = eng.num_vertices();
  PageRankResult result;
  result.rank.assign(n, 0.0f);
  std::vector<float> delta(n, 1.0f / static_cast<float>(n));
  std::vector<float> ngh_sum(n, 0.0f);
  const auto damping = static_cast<float>(options.damping);
  const auto epsilon = static_cast<float>(options.epsilon);

  // First iteration applies the base rank in addition to the propagated
  // delta, as in Ligra's PageRank-delta; afterwards only deltas propagate.
  PrProgram prog{index, delta, ngh_sum};
  core::VertexSubset frontier = core::VertexSubset::all(n);
  while (!frontier.empty() && result.iterations < options.max_iterations) {
    eng.edge_map(frontier, prog, /*output=*/false, &result.stats);
    const float base = result.iterations == 0
                           ? (1.0f - damping) / static_cast<float>(n)
                           : 0.0f;
    frontier = eng.vertex_map(
        core::VertexSubset::all(n),
        [&](vertex_t i) {
          // APPLYFILTER from paper Algorithm 2 (plus the first-iteration
          // base term).
          delta[i] = ngh_sum[i] * damping + base;
          ngh_sum[i] = 0.0f;
          if (std::fabs(delta[i]) > epsilon * result.rank[i]) {
            result.rank[i] += delta[i];
            return true;
          }
          return false;
        },
        &result.stats);
    ++result.iterations;
  }
  return result;
}

/// WCC (paper Algorithm 3): each iteration runs edge_map on every engine
/// given (the graph and its transpose, as two engines or as one engine
/// that reads both in one pass), then one pointer-jumping VertexMap.
template <typename Engine, typename... More>
WccResult run_wcc(Engine& eng, More&... more) {
  const vertex_t n = eng.num_vertices();
  WccResult result;
  result.ids.resize(n);
  std::vector<vertex_t> prev_ids(n);
  for (vertex_t v = 0; v < n; ++v) {
    result.ids[v] = v;
    prev_ids[v] = v;
  }
  WccProgram prog{result.ids};
  core::VertexSubset frontier = core::VertexSubset::all(n);
  while (!frontier.empty()) {
    eng.edge_map(frontier, prog, /*output=*/false, &result.stats);
    (more.edge_map(frontier, prog, /*output=*/false, &result.stats), ...);
    frontier = eng.vertex_map(
        core::VertexSubset::all(n),
        [&](vertex_t i) {
          // APPLYFILTER: pointer jumping, then activate changed vertices.
          // Neighboring lambda invocations may touch the same label slots
          // concurrently, so go through relaxed atomics; labels only ever
          // decrease, so stale reads just delay convergence by a round.
          std::atomic_ref<vertex_t> my(result.ids[i]);
          vertex_t label = my.load(std::memory_order_relaxed);
          vertex_t id = std::atomic_ref<vertex_t>(result.ids[label])
                            .load(std::memory_order_relaxed);
          if (label != id) my.store(id, std::memory_order_relaxed);
          if (prev_ids[i] != id) {
            prev_ids[i] = id;
            return true;
          }
          return false;
        },
        &result.stats);
    ++result.iterations;
  }
  return result;
}

/// SpMV with the shared synthetic weights: one edge_map over every vertex.
template <typename Engine>
SpmvResult run_spmv(Engine& eng, const std::vector<float>& x) {
  const vertex_t n = eng.num_vertices();
  BLAZE_CHECK(x.size() == n, "spmv: |x| != |V|");
  SpmvResult result;
  result.y.assign(n, 0.0f);
  SpmvProgram prog{x, result.y};
  eng.edge_map(core::VertexSubset::all(n), prog, /*output=*/false,
               &result.stats);
  return result;
}

/// Brandes BC from one source: forward BFS levels with path counting on
/// `out_eng`, then dependency accumulation over the transpose on `in_eng`.
template <typename Engine>
BcResult run_bc(Engine& out_eng, Engine& in_eng, vertex_t source) {
  constexpr std::uint32_t kUnvisited = BcForwardProgram::kUnvisited;
  const vertex_t n = out_eng.num_vertices();
  BcResult result;
  result.num_paths.assign(n, 0.0f);
  result.dependency.assign(n, 0.0f);
  std::vector<float> sigma_next(n, 0.0f);
  std::vector<std::uint32_t> level(n, kUnvisited);
  std::vector<std::vector<vertex_t>> level_members;

  result.num_paths[source] = 1.0f;
  level[source] = 0;
  level_members.push_back({source});

  // ---- Forward: BFS levels with path counting ----------------------------
  core::VertexSubset frontier = core::VertexSubset::single(n, source);
  std::uint32_t round = 0;
  while (!frontier.empty()) {
    BcForwardProgram fwd{result.num_paths, sigma_next, level};
    core::VertexSubset next =
        out_eng.edge_map(frontier, fwd, /*output=*/true, &result.stats);
    ++round;
    next.for_each([&](vertex_t v) {
      level[v] = round;
      result.num_paths[v] = sigma_next[v];
      sigma_next[v] = 0.0f;
    });
    if (!next.empty()) {
      level_members.push_back(next.sparse_view());
      result.frontier_bytes +=
          level_members.back().size() * sizeof(vertex_t);
    }
    frontier = std::move(next);
  }
  result.levels = static_cast<std::uint32_t>(level_members.size());

  // ---- Backward: dependency accumulation over the transpose --------------
  std::vector<float>& acc = sigma_next;  // reuse as the accumulator
  for (std::uint32_t r = result.levels; r-- > 1;) {
    core::VertexSubset senders(n);
    for (vertex_t v : level_members[r]) senders.add(v);
    BcBackwardProgram bwd{result.num_paths, result.dependency, acc, level,
                          r - 1};
    in_eng.edge_map(senders, bwd, /*output=*/false, &result.stats);
    for (vertex_t v : level_members[r - 1]) {
      result.dependency[v] = result.num_paths[v] * acc[v];
      acc[v] = 0.0f;
    }
  }
  return result;
}

}  // namespace blaze::algorithms
