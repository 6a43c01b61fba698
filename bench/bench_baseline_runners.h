// Query runners for the baseline engines, shared by the comparison benches.
#pragma once

#include "algorithms/drivers.h"
#include "baselines/flashgraph.h"
#include "baselines/graphene.h"
#include "bench/bench_common.h"
#include "format/partitioner.h"

namespace blaze::bench {

/// Runs one query on a baseline engine pair (out/in graphs) through the
/// shared query drivers. Graphene has no BC (the paper: "we could not
/// compare the result of BC with Graphene since Graphene does not
/// implement BC"), so callers skip that pair; it has no selective-
/// scheduling PR either, so the paper compares it at one PR iteration.
template <typename Engine>
RunResult run_baseline_query(Engine& out_eng, Engine& in_eng,
                             const format::GraphIndex& index,
                             const std::string& query, unsigned pr_iters) {
  RunResult r;
  Timer t;
  if (query == "BFS") {
    r.stats = algorithms::run_bfs(out_eng, 0).stats;
  } else if (query == "PR") {
    algorithms::PageRankOptions opts;
    opts.max_iterations = pr_iters;
    r.stats = algorithms::run_pagerank(out_eng, index, opts).stats;
  } else if (query == "WCC") {
    r.stats = algorithms::run_wcc(out_eng, in_eng).stats;
  } else if (query == "SpMV") {
    std::vector<float> x(out_eng.num_vertices(), 1.0f);
    r.stats = algorithms::run_spmv(out_eng, x).stats;
  } else if (query == "BC") {
    r.stats = algorithms::run_bc(out_eng, in_eng, 0).stats;
  } else {
    std::abort();
  }
  r.seconds = t.seconds();
  return r;
}

/// FlashGraph config at bench scale. The cache is sized well below the
/// graph (paper: 100+ GB graphs vs a DRAM cache), so cache hits come from
/// access locality, not raw capacity — which is exactly what hands
/// FlashGraph its sk2005 win and nothing else.
inline baseline::FlashGraphConfig bench_fg_config(
    const format::OnDiskGraph& g) {
  baseline::FlashGraphConfig cfg;
  cfg.compute_workers = bench_workers();
  cfg.cache_bytes = std::max<std::size_t>(
      128u << 10, static_cast<std::size_t>(g.input_bytes() / 32));
  cfg.io_buffer_bytes = 16u << 20;
  return cfg;
}

/// Graphene config at bench scale.
inline baseline::GrapheneConfig bench_graphene_config() {
  baseline::GrapheneConfig cfg;
  cfg.vertex_map_workers = bench_workers();
  return cfg;
}

}  // namespace blaze::bench
