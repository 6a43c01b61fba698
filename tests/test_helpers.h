// Shared test fixtures: small deterministic graphs and reference (oracle)
// implementations the out-of-core engine is checked against.
#pragma once

#include <queue>
#include <vector>

#include "core/config.h"
#include "graph/csr.h"
#include "graph/generators.h"

namespace blaze::testutil {

/// Reference BFS distances (hop counts; ~0u = unreached).
inline std::vector<std::uint32_t> reference_bfs_dist(const graph::Csr& g,
                                                     vertex_t source) {
  std::vector<std::uint32_t> dist(g.num_vertices(), ~0u);
  std::queue<vertex_t> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    vertex_t u = q.front();
    q.pop();
    for (vertex_t v : g.neighbors(u)) {
      if (dist[v] == ~0u) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

/// Union-find components over the undirected closure of g.
inline std::vector<vertex_t> reference_components(const graph::Csr& g) {
  std::vector<vertex_t> parent(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) parent[v] = v;
  std::vector<vertex_t>* p = &parent;
  auto find = [p](vertex_t x) {
    while ((*p)[x] != x) {
      (*p)[x] = (*p)[(*p)[x]];
      x = (*p)[x];
    }
    return x;
  };
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (vertex_t v : g.neighbors(u)) {
      vertex_t ru = find(u), rv = find(v);
      if (ru != rv) parent[std::max(ru, rv)] = std::min(ru, rv);
    }
  }
  for (vertex_t v = 0; v < g.num_vertices(); ++v) parent[v] = find(v);
  return parent;
}

/// Small default engine config for tests (a few workers: enough to
/// exercise concurrency without oversubscribing a small CI runner).
inline core::Config test_config(std::size_t workers = 3,
                                std::size_t bin_count = 64) {
  core::Config cfg;
  cfg.compute_workers = workers;
  cfg.bin_count = bin_count;
  cfg.bin_space_bytes = 1 << 20;
  cfg.io_buffer_bytes = 1 << 20;
  return cfg;
}

}  // namespace blaze::testutil
