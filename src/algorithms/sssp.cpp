#include "algorithms/sssp.h"

#include <cmath>
#include <limits>

#include "algorithms/detail/atomics.h"
#include "algorithms/drivers.h"
#include "sched/async_runner.h"

namespace blaze::algorithms {

namespace {

/// Bucket width for integer distances: synthesized weights average ~8.5,
/// so 4 distance units per bucket keeps nearby vertices in the same round
/// without collapsing the ordering.
constexpr std::uint32_t kIntDistShift = 2;

inline sched::priority_t int_dist_priority(std::uint32_t d) {
  return d >> kIntDistShift;
}

/// Stored weights are floats of unknown scale, so buckets are logarithmic
/// in (1 + dist): scale-free, monotone, and near-the-source-first — the
/// only property correctness needs (relaxations are monotone min).
inline sched::priority_t float_dist_priority(float d) {
  if (!(d > 0.0f)) return 0;
  return static_cast<sched::priority_t>(std::log2(1.0 + d) * 8.0);
}

/// Stored-weight relaxation: the engine hands the on-disk weight to
/// scatter; gather keeps the minimum tentative distance.
struct WeightedSsspProgram {
  using value_type = float;
  std::vector<float>& dist;

  // As SsspProgram: scatter's read of dist[s] races gather's lowering of
  // it, so both sides are relaxed atomics.
  value_type scatter(vertex_t s, vertex_t, float w) const {
    return detail::relaxed_load(dist[s]) + w;
  }
  bool cond(vertex_t) const { return true; }
  bool gather(vertex_t d, value_type v) {
    if (v < detail::relaxed_load(dist[d])) {
      detail::relaxed_store(dist[d], v);
      return true;
    }
    return false;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    return detail::atomic_min(dist[d], v);
  }
};

/// Both SSSP variants from `source`: frontier Bellman-Ford under BSP;
/// under ExecutionMode::kAsync the AsyncRunner's bucket queue orders the
/// relaxations (delta-stepping flavored: priority = bucketed tentative
/// distance, read after the round). Scatter reads the source's
/// current distance, which may have improved since its pop; the fresher
/// value only helps.
template <typename Program, typename Result, typename Dist,
          typename DistPriority>
Result run_sssp(core::QueryContext& qc, const format::OnDiskGraph& g,
                vertex_t source, Dist infinity, DistPriority dist_priority) {
  Result result;
  result.dist.assign(g.num_vertices(), infinity);
  result.dist[source] = Dist{0};
  Program prog{result.dist};
  BlazeEngine eng(qc, g);
  if (qc.config().execution_mode != core::ExecutionMode::kAsync) {
    result.iterations = run_until_empty(
        eng, core::VertexSubset::single(g.num_vertices(), source), prog,
        &result.stats);
    return result;
  }
  sched::AsyncRunner runner(qc, g);
  runner.queue().push(source, 0);
  sched::Enqueue<Program> async_prog{prog, runner.updated()};
  auto rs = runner.run(
      [&](const core::VertexSubset& frontier) {
        eng.edge_map(frontier, async_prog, /*output=*/false, &result.stats);
      },
      [&dist = result.dist, dist_priority](vertex_t d) {
        return dist_priority(dist[d]);
      });
  result.iterations = static_cast<std::uint32_t>(rs.rounds);
  return result;
}

}  // namespace

SsspResult sssp(core::QueryContext& qc, const format::OnDiskGraph& g,
                vertex_t source) {
  return run_sssp<SsspProgram, SsspResult>(qc, g, source, kInfDist,
                                           int_dist_priority);
}

SsspResult sssp(core::Runtime& rt, const format::OnDiskGraph& g,
                vertex_t source) {
  return sssp(rt.default_context(), g, source);
}

WeightedSsspResult sssp_weighted(core::QueryContext& qc,
                                 const format::OnDiskGraph& g,
                                 vertex_t source) {
  return run_sssp<WeightedSsspProgram, WeightedSsspResult>(
      qc, g, source, std::numeric_limits<float>::infinity(),
      float_dist_priority);
}

WeightedSsspResult sssp_weighted(core::Runtime& rt,
                                 const format::OnDiskGraph& g,
                                 vertex_t source) {
  return sssp_weighted(rt.default_context(), g, source);
}

}  // namespace blaze::algorithms
