#include "algorithms/bfs.h"

#include "algorithms/drivers.h"
#include "core/edge_map_pull.h"

namespace blaze::algorithms {

BfsResult bfs(core::QueryContext& qc, const format::OnDiskGraph& g,
              vertex_t source) {
  BlazeEngine eng(qc, g);
  return run_bfs(eng, source);
}

BfsResult bfs(core::Runtime& rt, const format::OnDiskGraph& g,
              vertex_t source) {
  return bfs(rt.default_context(), g, source);
}

HybridBfsResult bfs_hybrid(core::QueryContext& qc,
                           const format::OnDiskGraph& g,
                           const format::OnDiskGraph& gt, vertex_t source,
                           std::uint64_t threshold_div) {
  HybridBfsResult result;
  result.parent.assign(g.num_vertices(), kInvalidVertex);
  result.parent[source] = source;

  BfsProgram prog{result.parent};
  core::VertexSubset frontier =
      core::VertexSubset::single(g.num_vertices(), source);
  core::EdgeMapOptions opts;
  opts.output = true;
  opts.stats = &result.stats;
  while (!frontier.empty()) {
    const std::uint64_t push_volume =
        core::frontier_out_edges(qc, g, frontier);
    if (push_volume > g.num_edges() / threshold_div) {
      // Dense round: pull over the transpose. Candidates are the vertices
      // BFS could still claim.
      core::VertexSubset candidates = core::vertex_map(
          qc, core::VertexSubset::all(g.num_vertices()),
          [&](vertex_t v) { return result.parent[v] == kInvalidVertex; },
          &result.stats);
      frontier =
          core::edge_map_pull(qc, gt, frontier, candidates, prog, opts);
      ++result.pull_iterations;
    } else {
      frontier = core::edge_map(qc, g, frontier, prog, opts);
    }
    ++result.iterations;
  }
  return result;
}

HybridBfsResult bfs_hybrid(core::Runtime& rt, const format::OnDiskGraph& g,
                           const format::OnDiskGraph& gt, vertex_t source,
                           std::uint64_t threshold_div) {
  return bfs_hybrid(rt.default_context(), g, gt, source, threshold_div);
}

}  // namespace blaze::algorithms
