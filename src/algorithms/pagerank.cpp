#include "algorithms/pagerank.h"

#include <cmath>

#include "algorithms/drivers.h"
#include "sched/async_runner.h"

namespace blaze::algorithms {

namespace {

/// The async fixed point must be the BSP one, so seeding replays BSP's
/// first iteration exactly: propagate the uniform 1/n delta, then fold in
/// the (1-d)/n base term. Everything after is residual propagation.
PageRankResult pagerank_async(core::QueryContext& qc,
                              const format::OnDiskGraph& g,
                              const PageRankOptions& options) {
  const vertex_t n = g.num_vertices();
  PageRankResult result;
  result.rank.assign(n, 0.0f);
  const auto damping = static_cast<float>(options.damping);
  const auto epsilon = static_cast<float>(options.epsilon);

  std::vector<float> residual(n, 0.0f);
  std::vector<float> claimed(n, 0.0f);
  BlazeEngine eng(qc, g);
  {
    std::vector<float> delta(n, 1.0f / static_cast<float>(n));
    PrProgram seed{g.index(), delta, residual};
    eng.edge_map(core::VertexSubset::all(n), seed, /*output=*/false,
                 &result.stats);
    const float base = (1.0f - damping) / static_cast<float>(n);
    for (vertex_t i = 0; i < n; ++i) {
      residual[i] = residual[i] * damping + base;
    }
  }

  sched::AsyncOptions aopts;
  // Damping contracts the residual geometrically, so the run always
  // drains; the cap only guards pathological float cycling.
  aopts.max_rounds =
      static_cast<std::uint64_t>(options.max_iterations) * 100;
  aopts.stop_residual = options.epsilon;
  aopts.total_residual = [&residual]() {
    double total = 0.0;
    for (float r : residual) total += std::fabs(r);
    return total;
  };
  sched::AsyncRunner runner(qc, g, aopts);
  for (vertex_t i = 0; i < n; ++i) {
    if (std::fabs(residual[i]) > 0.0f) {
      runner.queue().push(i, sched::residual_priority(std::fabs(residual[i])));
    }
  }

  // The BSP program pushes the round frontier's damped residual shares,
  // `claimed`, into `residual`.
  sched::Enqueue<PrProgram> prog{{g.index(), claimed, residual},
                                 runner.updated()};
  auto round = [&](const core::VertexSubset& frontier, sched::priority_t) {
    // Claim: exchange each round vertex's residual into `claimed` and
    // absorb it into the rank. Nothing else touches `residual` between
    // rounds, and one sequential pass keeps the mass sum free of a shared
    // atomic that every worker would fight over.
    double claimed_total = 0.0;
    frontier.for_each([&](vertex_t v) {
      const float c = residual[v];
      residual[v] = 0.0f;
      claimed[v] = damping * c;
      result.rank[v] += c;
      claimed_total += std::fabs(c);
    });
    eng.edge_map(frontier, prog, /*output=*/false, &result.stats);
    return claimed_total;
  };
  // A destination is re-queued while its residual stays above the same
  // relative activation threshold the BSP variant uses.
  auto priority = [&](vertex_t d) {
    const float r = std::fabs(residual[d]);
    return r > epsilon * result.rank[d] ? sched::residual_priority(r)
                                        : sched::BucketQueue::kNotQueued;
  };
  auto rs = runner.run(round, priority);
  result.iterations = static_cast<std::uint32_t>(rs.rounds) + 1;
  return result;
}

}  // namespace

PageRankResult pagerank(core::QueryContext& qc,
                        const format::OnDiskGraph& g,
                        const PageRankOptions& options) {
  if (qc.config().execution_mode == core::ExecutionMode::kAsync) {
    return pagerank_async(qc, g, options);
  }
  BlazeEngine eng(qc, g);
  return run_pagerank(eng, g.index(), options);
}

PageRankResult pagerank(core::Runtime& rt, const format::OnDiskGraph& g,
                        const PageRankOptions& options) {
  return pagerank(rt.default_context(), g, options);
}

}  // namespace blaze::algorithms
