// The EdgeMap programs for all queries, shared by every engine.
//
// The same Program struct drives Blaze's binned edge_map, its
// synchronization-based variant, and both baseline engines (FlashGraph-like
// message passing and Graphene-like CAS) — so every cross-engine comparison
// in the evaluation executes identical per-edge logic and differences come
// only from the execution machinery.
//
// A Program provides:
//   using value_type = <trivially copyable, 4 bytes>;
//   value_type scatter(vertex_t src, vertex_t dst);
//   bool cond(vertex_t dst);                        // pre-scatter filter
//   bool gather(vertex_t dst, value_type v);        // exclusivity-protected
//   bool gather_atomic(vertex_t dst, value_type v); // CAS engines
#pragma once

#include <vector>

#include "algorithms/detail/atomics.h"
#include "algorithms/spmv.h"
#include "algorithms/sssp.h"
#include "format/on_disk_graph.h"

namespace blaze::algorithms {

/// Paper Algorithm 1 (BFS): scatter forwards the source ID; gather claims
/// unvisited destinations; cond prunes edges to visited destinations.
struct BfsProgram {
  using value_type = vertex_t;
  std::vector<vertex_t>& parent;

  // cond() is an optimistic scatter-side filter racing with gather's
  // claim on another thread, so both sides go through relaxed atomics
  // (same codegen, defined behaviour; a stale read only lets a redundant
  // record through, which gather's exclusive re-check drops).
  value_type scatter(vertex_t s, vertex_t) const { return s; }
  bool cond(vertex_t d) const {
    return detail::relaxed_load(parent[d]) == kInvalidVertex;
  }
  bool gather(vertex_t d, value_type v) {
    if (detail::relaxed_load(parent[d]) == kInvalidVertex) {
      detail::relaxed_store(parent[d], v);
      return true;
    }
    return false;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    return detail::cas(parent[d], kInvalidVertex, v);
  }
};

/// Paper Algorithm 2 (PageRank-delta): scatter sends the source's delta
/// normalized by out-degree; gather accumulates into ngh_sum.
struct PrProgram {
  using value_type = float;
  const format::GraphIndex& index;
  std::vector<float>& delta;
  std::vector<float>& ngh_sum;

  value_type scatter(vertex_t s, vertex_t) const {
    return delta[s] / static_cast<float>(index.degree(s));
  }
  bool cond(vertex_t) const { return true; }
  bool gather(vertex_t d, value_type v) {
    ngh_sum[d] += v;
    return true;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    detail::atomic_add(ngh_sum[d], v);
    return true;
  }
};

/// Paper Algorithm 3 (WCC): scatter forwards the source's label; gather
/// keeps the per-destination minimum and reports whether it lowered it.
struct WccProgram {
  using value_type = vertex_t;
  std::vector<vertex_t>& ids;

  // scatter reads a label gather may be lowering on another thread;
  // relaxed atomics keep it defined — label propagation is monotone, so a
  // stale (higher) label only costs an extra round.
  value_type scatter(vertex_t s, vertex_t) const {
    return detail::relaxed_load(ids[s]);
  }
  bool cond(vertex_t) const { return true; }
  bool gather(vertex_t d, value_type v) {
    if (v < detail::relaxed_load(ids[d])) {
      detail::relaxed_store(ids[d], v);
      return true;
    }
    return false;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    return detail::atomic_min(ids[d], v);
  }
};

/// SpMV: y[d] += w(s, d) * x[s] with deterministic synthetic weights.
struct SpmvProgram {
  using value_type = float;
  const std::vector<float>& x;
  std::vector<float>& y;

  value_type scatter(vertex_t s, vertex_t d) const {
    return edge_weight(s, d) * x[s];
  }
  bool cond(vertex_t) const { return true; }
  bool gather(vertex_t d, value_type v) {
    y[d] += v;
    return true;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    detail::atomic_add(y[d], v);
    return true;
  }
};

/// BC forward phase: accumulate shortest-path counts into the next level.
struct BcForwardProgram {
  using value_type = float;
  static constexpr std::uint32_t kUnvisited = ~0u;
  const std::vector<float>& sigma;
  std::vector<float>& sigma_next;
  const std::vector<std::uint32_t>& level;

  value_type scatter(vertex_t s, vertex_t) const { return sigma[s]; }
  bool cond(vertex_t d) const { return level[d] == kUnvisited; }
  bool gather(vertex_t d, value_type v) {
    sigma_next[d] += v;
    return true;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    detail::atomic_add(sigma_next[d], v);
    return true;
  }
};

/// BC backward phase over the transpose: vertices at level r+1 send
/// (1 + delta) / sigma to predecessors at level r.
struct BcBackwardProgram {
  using value_type = float;
  const std::vector<float>& sigma;
  const std::vector<float>& dependency;
  std::vector<float>& acc;
  const std::vector<std::uint32_t>& level;
  std::uint32_t target_level;

  value_type scatter(vertex_t w, vertex_t) const {
    return (1.0f + dependency[w]) / sigma[w];
  }
  bool cond(vertex_t d) const { return level[d] == target_level; }
  bool gather(vertex_t d, value_type v) {
    acc[d] += v;
    return true;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    detail::atomic_add(acc[d], v);
    return true;
  }
};

/// SSSP (Bellman-Ford): relax weighted edges, keep the minimum distance.
struct SsspProgram {
  using value_type = std::uint32_t;
  std::vector<std::uint32_t>& dist;

  // Same shape as WCC: relaxation is monotone, scatter's read of dist[s]
  // races gather's lowering of it, so both sides are relaxed atomics.
  value_type scatter(vertex_t s, vertex_t d) const {
    return detail::relaxed_load(dist[s]) + sssp_weight(s, d);
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

/// k-core peeling: removed vertices shed one unit of degree per incident
/// edge at still-alive neighbors.
struct PeelProgram {
  using value_type = std::uint32_t;
  static constexpr std::uint32_t kAlive = ~0u;
  std::vector<std::uint32_t>& residual;
  const std::vector<std::uint32_t>& coreness;

  value_type scatter(vertex_t, vertex_t) const { return 1; }
  bool cond(vertex_t d) const {
    return detail::relaxed_load(coreness[d]) == kAlive;
  }
  bool gather(vertex_t d, value_type v) {
    residual[d] = residual[d] >= v ? residual[d] - v : 0;
    return true;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    std::atomic_ref<std::uint32_t> ref(residual[d]);
    std::uint32_t cur = ref.load(std::memory_order_relaxed);
    std::uint32_t next;
    do {
      next = cur >= v ? cur - v : 0;
    } while (
        !ref.compare_exchange_weak(cur, next, std::memory_order_relaxed));
    return true;
  }
};

}  // namespace blaze::algorithms
