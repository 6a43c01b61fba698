// In-core Ligra-style parallel engine.
//
// The paper builds its API on Ligra's EDGEMAP/VERTEXMAP and implements its
// queries "based on the implementations in Ligra"; this engine is the
// in-core comparison point: the whole CSR lives in DRAM, edge_map runs the
// same Programs push-style with atomic (CAS) updates, and there is no IO
// at all. It satisfies the engine concept of the query drivers
// (algorithms/drivers.h), so every query runs on it unchanged — useful
// both as a fast oracle and for quantifying what out-of-core execution
// costs when the graph would actually fit in memory.
#pragma once

#include <atomic>

#include "core/stats.h"
#include "core/vertex_map.h"
#include "core/vertex_subset.h"
#include "graph/csr.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace blaze::baseline {

/// Parallel in-memory EdgeMap/VertexMap over a Csr.
class LigraEngine {
 public:
  LigraEngine(const graph::Csr& g, std::size_t workers)
      : g_(g), pool_(workers) {}

  vertex_t num_vertices() const { return g_.num_vertices(); }
  const graph::Csr& graph() const { return g_; }
  ThreadPool& pool() { return pool_; }

  template <typename Program>
  core::VertexSubset edge_map(const core::VertexSubset& frontier,
                              Program& prog, bool output,
                              core::QueryStats* stats = nullptr) {
    Timer timer;
    core::VertexSubset out(g_.num_vertices());
    if (stats) ++stats->edge_map_calls;
    std::atomic<std::uint64_t> edges{0};
    frontier.for_each_parallel(pool_, [&](vertex_t s) {
      edges.fetch_add(g_.degree(s), std::memory_order_relaxed);
      for (vertex_t d : g_.neighbors(s)) {
        if (!prog.cond(d)) continue;
        const auto val = prog.scatter(s, d);
        if (prog.gather_atomic(d, val) && output) out.add(d);
      }
    });
    if (stats) {
      stats->edges_scattered += edges.load(std::memory_order_relaxed);
      stats->seconds += timer.seconds();
    }
    return out;
  }

  template <typename Fn>
  core::VertexSubset vertex_map(const core::VertexSubset& frontier, Fn&& f,
                                core::QueryStats* stats = nullptr) {
    return core::vertex_map(pool_, frontier, std::forward<Fn>(f), stats);
  }

 private:
  const graph::Csr& g_;
  ThreadPool pool_;
};

}  // namespace blaze::baseline
