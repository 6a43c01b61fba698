#include "algorithms/pagerank.h"

#include <cmath>

#include "algorithms/drivers.h"
#include "sched/async_runner.h"

namespace blaze::algorithms {

namespace {

/// Push-style PageRank-delta for the async scheduler: the round frontier
/// has already exchanged its residual into `claimed` (and absorbed it into
/// the rank), so scatter forwards the damped share and gather accumulates
/// it back into `residual`, re-enqueueing destinations whose residual
/// crosses the same relative activation threshold the BSP variant uses.
struct AsyncPrProgram {
  using value_type = float;
  const format::GraphIndex& index;
  std::vector<float>& claimed;
  std::vector<float>& residual;
  const std::vector<float>& rank;
  float damping;
  float epsilon;
  sched::BucketQueue& queue;

  value_type scatter(vertex_t s, vertex_t) const {
    return damping * claimed[s] / static_cast<float>(index.degree(s));
  }
  bool cond(vertex_t) const { return true; }
  bool gather(vertex_t d, value_type v) {
    // Binned gather: this thread owns destination d.
    const float nr = residual[d] + v;
    residual[d] = nr;
    maybe_enqueue(d, nr);
    return false;  // frontier comes from the queue, not edge_map output
  }
  bool gather_atomic(vertex_t d, value_type v) {
    const float nr = detail::atomic_add_fetch(residual[d], v);
    maybe_enqueue(d, nr);
    return false;
  }
  void maybe_enqueue(vertex_t d, float nr) {
    if (std::fabs(nr) > epsilon * detail::relaxed_load(rank[d])) {
      queue.push(d, sched::residual_priority(std::fabs(nr)));
    }
  }
};

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

  const core::Config& cfg = qc.config();
  sched::AsyncOptions aopts;
  aopts.num_buckets = cfg.async_buckets;
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

  AsyncPrProgram prog{g.index(),  claimed, residual, result.rank,
                      damping,    epsilon, runner.queue()};
  auto rs = runner.run([&](const core::VertexSubset& frontier,
                           sched::priority_t) {
    // Claim: exchange each round vertex's residual into `claimed` and
    // absorb it into the rank. Nothing else touches `residual` between
    // rounds, and one sequential pass keeps the mass sum free of a shared
    // atomic that every worker would fight over.
    double claimed_total = 0.0;
    frontier.for_each([&](vertex_t v) {
      const float c = residual[v];
      residual[v] = 0.0f;
      claimed[v] = c;
      result.rank[v] += c;
      claimed_total += std::fabs(c);
    });
    eng.edge_map(frontier, prog, /*output=*/false, &result.stats);
    return claimed_total;
  });
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
