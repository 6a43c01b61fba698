// In-memory reference implementations (Ligra-style, sequential).
//
// These serve three roles: (1) oracles the out-of-core engines are tested
// against, (2) the single-threaded compute-speed measurements of paper
// Figure 4, and (3) the in-core comparison point the related-work section
// discusses. They operate directly on the in-memory CSR.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/weighted.h"

namespace blaze::baseline::inmem {

/// BFS hop distances from `source` (~0u = unreached).
std::vector<std::uint32_t> bfs_dist(const graph::Csr& g, vertex_t source);

/// BFS parents (kInvalidVertex = unreached; source parents itself).
std::vector<vertex_t> bfs_parent(const graph::Csr& g, vertex_t source);

/// PageRank by power iteration (damping 0.85) until the L1 delta falls
/// below `tol` or `max_iter` rounds. Dangling mass is redistributed
/// uniformly.
std::vector<double> pagerank(const graph::Csr& g, double damping = 0.85,
                             double tol = 1e-9, unsigned max_iter = 200);

/// One PageRank-delta pass compatible with algorithms::pagerank (float
/// arithmetic, same epsilon semantics) for exact comparison.
std::vector<float> pagerank_delta(const graph::Csr& g, double damping,
                                  double epsilon, unsigned max_iter);

/// Weakly connected component labels (smallest reachable vertex ID over
/// the undirected closure).
std::vector<vertex_t> wcc(const graph::Csr& g);

/// y[d] = sum over edges (s,d) of w(s,d) * x[s] with the same synthetic
/// weights as algorithms::spmv.
std::vector<float> spmv(const graph::Csr& g, const std::vector<float>& x);

/// Brandes single-source dependency scores (exact, O(V+E) per source).
std::vector<double> bc_dependency(const graph::Csr& g,
                                  const graph::Csr& gt, vertex_t source);

/// Dijkstra distances with the same synthetic weights as algorithms::sssp.
std::vector<std::uint32_t> sssp_dist(const graph::Csr& g, vertex_t source);

/// Dijkstra over stored float weights (+inf when unreachable).
std::vector<float> sssp_dist_weighted(const graph::WeightedCsr& g,
                                      vertex_t source);

/// Coreness by bucket peeling over the undirected closure.
std::vector<std::uint32_t> coreness(const graph::Csr& g,
                                    const graph::Csr& gt);

/// Edges traversed per second by a sequential BFS sweep (Figure 4's
/// "single-threaded graph computation speed"; multiply by 4 bytes/edge to
/// compare with device bandwidth).
double bfs_edges_per_second(const graph::Csr& g, vertex_t source);

}  // namespace blaze::baseline::inmem
