#include "algorithms/sssp.h"

#include <cmath>
#include <limits>

#include "algorithms/detail/atomics.h"
#include "algorithms/programs.h"
#include "core/edge_map.h"
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

/// Delta-stepping-flavored relaxation: scatter reads the source's current
/// tentative distance (it may have improved since the pop — using the
/// fresher value only helps), gather keeps the min and re-enqueues the
/// destination at its new bucket.
struct AsyncSsspProgram {
  using value_type = std::uint32_t;
  std::vector<std::uint32_t>& dist;
  sched::BucketQueue& queue;

  value_type scatter(vertex_t s, vertex_t d) const {
    return detail::relaxed_load(dist[s]) + sssp_weight(s, d);
  }
  bool cond(vertex_t) const { return true; }
  bool gather(vertex_t d, value_type v) {
    // Scatter reads dist[s] concurrently (s may be a destination of this
    // round too), so the owner's store is a relaxed atomic as well.
    if (v < dist[d]) {
      detail::relaxed_store(dist[d], v);
      queue.push(d, int_dist_priority(v));
    }
    return false;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    if (detail::atomic_min(dist[d], v)) queue.push(d, int_dist_priority(v));
    return false;
  }
};

SsspResult sssp_async(core::QueryContext& qc, const format::OnDiskGraph& g,
                      vertex_t source) {
  SsspResult result;
  result.dist.assign(g.num_vertices(), kInfDist);
  result.dist[source] = 0;

  const core::Config& cfg = qc.config();
  sched::AsyncOptions aopts;
  aopts.num_buckets = cfg.async_buckets;
  aopts.round_page_budget = cfg.async_round_pages;
  sched::AsyncRunner runner(qc, g, aopts);
  runner.queue().push(source, 0);

  AsyncSsspProgram prog{result.dist, runner.queue()};
  core::EdgeMapOptions opts;
  opts.output = false;
  opts.stats = &result.stats;
  auto rs = runner.run(
      [&](const core::VertexSubset& frontier, sched::priority_t) {
        core::edge_map(qc, g, frontier, prog, opts);
        return static_cast<double>(frontier.count());
      });
  result.iterations = static_cast<std::uint32_t>(rs.rounds);
  return result;
}

/// Stored-weight relaxation: the engine hands the on-disk weight to
/// scatter; gather keeps the minimum tentative distance.
struct WeightedSsspProgram {
  using value_type = float;
  std::vector<float>& dist;

  value_type scatter(vertex_t s, vertex_t, float w) const {
    return dist[s] + w;
  }
  bool cond(vertex_t) const { return true; }
  bool gather(vertex_t d, value_type v) {
    if (v < dist[d]) {
      dist[d] = v;
      return true;
    }
    return false;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    return detail::atomic_min(dist[d], v);
  }
};

struct AsyncWeightedSsspProgram {
  using value_type = float;
  std::vector<float>& dist;
  sched::BucketQueue& queue;

  value_type scatter(vertex_t s, vertex_t, float w) const {
    return detail::relaxed_load(dist[s]) + w;
  }
  bool cond(vertex_t) const { return true; }
  bool gather(vertex_t d, value_type v) {
    if (v < dist[d]) {
      detail::relaxed_store(dist[d], v);
      queue.push(d, float_dist_priority(v));
    }
    return false;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    if (detail::atomic_min(dist[d], v)) {
      queue.push(d, float_dist_priority(v));
    }
    return false;
  }
};

WeightedSsspResult sssp_weighted_async(core::QueryContext& qc,
                                       const format::OnDiskGraph& g,
                                       vertex_t source) {
  WeightedSsspResult result;
  result.dist.assign(g.num_vertices(),
                     std::numeric_limits<float>::infinity());
  result.dist[source] = 0.0f;

  const core::Config& cfg = qc.config();
  sched::AsyncOptions aopts;
  aopts.num_buckets = cfg.async_buckets;
  aopts.round_page_budget = cfg.async_round_pages;
  sched::AsyncRunner runner(qc, g, aopts);
  runner.queue().push(source, 0);

  AsyncWeightedSsspProgram prog{result.dist, runner.queue()};
  core::EdgeMapOptions opts;
  opts.output = false;
  opts.stats = &result.stats;
  auto rs = runner.run(
      [&](const core::VertexSubset& frontier, sched::priority_t) {
        core::edge_map(qc, g, frontier, prog, opts);
        return static_cast<double>(frontier.count());
      });
  result.iterations = static_cast<std::uint32_t>(rs.rounds);
  return result;
}

}  // namespace

SsspResult sssp(core::QueryContext& qc, const format::OnDiskGraph& g,
                vertex_t source) {
  if (qc.config().execution_mode == core::ExecutionMode::kAsync) {
    return sssp_async(qc, g, source);
  }
  SsspResult result;
  result.dist.assign(g.num_vertices(), kInfDist);
  result.dist[source] = 0;

  SsspProgram prog{result.dist};
  core::VertexSubset frontier =
      core::VertexSubset::single(g.num_vertices(), source);
  core::EdgeMapOptions opts;
  opts.output = true;
  opts.stats = &result.stats;
  while (!frontier.empty()) {
    frontier = core::edge_map(qc, g, frontier, prog, opts);
    ++result.iterations;
  }
  return result;
}

SsspResult sssp(core::Runtime& rt, const format::OnDiskGraph& g,
                vertex_t source) {
  return sssp(rt.default_context(), g, source);
}

WeightedSsspResult sssp_weighted(core::QueryContext& qc,
                                 const format::OnDiskGraph& g,
                                 vertex_t source) {
  if (qc.config().execution_mode == core::ExecutionMode::kAsync) {
    return sssp_weighted_async(qc, g, source);
  }
  WeightedSsspResult result;
  result.dist.assign(g.num_vertices(),
                     std::numeric_limits<float>::infinity());
  result.dist[source] = 0.0f;

  WeightedSsspProgram prog{result.dist};
  core::VertexSubset frontier =
      core::VertexSubset::single(g.num_vertices(), source);
  core::EdgeMapOptions opts;
  opts.output = true;
  opts.stats = &result.stats;
  while (!frontier.empty()) {
    frontier = core::edge_map(qc, g, frontier, prog, opts);
    ++result.iterations;
  }
  return result;
}

WeightedSsspResult sssp_weighted(core::Runtime& rt,
                                 const format::OnDiskGraph& g,
                                 vertex_t source) {
  return sssp_weighted(rt.default_context(), g, source);
}

}  // namespace blaze::algorithms
