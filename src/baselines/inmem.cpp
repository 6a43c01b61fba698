#include "baselines/inmem.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "algorithms/spmv.h"
#include "algorithms/sssp.h"
#include "util/timer.h"

namespace blaze::baseline::inmem {

std::vector<std::uint32_t> bfs_dist(const graph::Csr& g, vertex_t source) {
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

std::vector<vertex_t> bfs_parent(const graph::Csr& g, vertex_t source) {
  std::vector<vertex_t> parent(g.num_vertices(), kInvalidVertex);
  std::queue<vertex_t> q;
  parent[source] = source;
  q.push(source);
  while (!q.empty()) {
    vertex_t u = q.front();
    q.pop();
    for (vertex_t v : g.neighbors(u)) {
      if (parent[v] == kInvalidVertex) {
        parent[v] = u;
        q.push(v);
      }
    }
  }
  return parent;
}

std::vector<double> pagerank(const graph::Csr& g, double damping, double tol,
                             unsigned max_iter) {
  const vertex_t n = g.num_vertices();
  std::vector<double> rank(n, 1.0 / n), next(n);
  for (unsigned it = 0; it < max_iter; ++it) {
    double dangling = 0.0;
    for (vertex_t v = 0; v < n; ++v) {
      if (g.degree(v) == 0) dangling += rank[v];
    }
    std::fill(next.begin(), next.end(),
              (1.0 - damping) / n + damping * dangling / n);
    for (vertex_t u = 0; u < n; ++u) {
      if (g.degree(u) == 0) continue;
      double share = damping * rank[u] / g.degree(u);
      for (vertex_t v : g.neighbors(u)) next[v] += share;
    }
    double delta = 0.0;
    for (vertex_t v = 0; v < n; ++v) delta += std::fabs(next[v] - rank[v]);
    rank.swap(next);
    if (delta < tol) break;
  }
  return rank;
}

std::vector<float> pagerank_delta(const graph::Csr& g, double damping,
                                  double epsilon, unsigned max_iter) {
  const vertex_t n = g.num_vertices();
  std::vector<float> rank(n, 0.0f);
  std::vector<float> delta(n, 1.0f / static_cast<float>(n));
  std::vector<float> ngh_sum(n, 0.0f);
  std::vector<char> active(n, 1);
  const auto d = static_cast<float>(damping);
  const auto eps = static_cast<float>(epsilon);

  for (unsigned it = 0; it < max_iter; ++it) {
    bool any_active = false;
    for (vertex_t v = 0; v < n; ++v) any_active |= active[v] != 0;
    if (!any_active) break;
    for (vertex_t u = 0; u < n; ++u) {
      if (!active[u] || g.degree(u) == 0) continue;
      float share = delta[u] / static_cast<float>(g.degree(u));
      for (vertex_t v : g.neighbors(u)) ngh_sum[v] += share;
    }
    const float base = it == 0 ? (1.0f - d) / static_cast<float>(n) : 0.0f;
    for (vertex_t v = 0; v < n; ++v) {
      delta[v] = ngh_sum[v] * d + base;
      ngh_sum[v] = 0.0f;
      if (std::fabs(delta[v]) > eps * rank[v]) {
        rank[v] += delta[v];
        active[v] = 1;
      } else {
        active[v] = 0;
      }
    }
  }
  return rank;
}

std::vector<vertex_t> wcc(const graph::Csr& g) {
  std::vector<vertex_t> label(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) label[v] = v;
  // Union-find with path halving, then normalize labels to the component
  // minimum.
  auto find = [&](vertex_t x) {
    while (label[x] != x) {
      label[x] = label[label[x]];
      x = label[x];
    }
    return x;
  };
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (vertex_t v : g.neighbors(u)) {
      vertex_t ru = find(u), rv = find(v);
      if (ru != rv) label[std::max(ru, rv)] = std::min(ru, rv);
    }
  }
  for (vertex_t v = 0; v < g.num_vertices(); ++v) label[v] = find(v);
  return label;
}

std::vector<float> spmv(const graph::Csr& g, const std::vector<float>& x) {
  std::vector<float> y(g.num_vertices(), 0.0f);
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (vertex_t v : g.neighbors(u)) {
      y[v] += algorithms::edge_weight(u, v) * x[u];
    }
  }
  return y;
}

std::vector<double> bc_dependency(const graph::Csr& g, const graph::Csr& gt,
                                  vertex_t source) {
  const vertex_t n = g.num_vertices();
  std::vector<std::uint32_t> dist(n, ~0u);
  std::vector<double> sigma(n, 0.0), delta(n, 0.0);
  std::vector<vertex_t> order;  // vertices in BFS visitation order
  order.reserve(n);

  std::queue<vertex_t> q;
  dist[source] = 0;
  sigma[source] = 1.0;
  q.push(source);
  while (!q.empty()) {
    vertex_t u = q.front();
    q.pop();
    order.push_back(u);
    for (vertex_t v : g.neighbors(u)) {
      if (dist[v] == ~0u) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
      if (dist[v] == dist[u] + 1) sigma[v] += sigma[u];
    }
  }
  // Reverse accumulation: predecessors of w are its in-neighbors one level
  // up (iterate via the transpose).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    vertex_t w = *it;
    for (vertex_t v : gt.neighbors(w)) {
      if (dist[v] != ~0u && dist[v] + 1 == dist[w]) {
        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
      }
    }
  }
  return delta;
}

std::vector<std::uint32_t> sssp_dist(const graph::Csr& g, vertex_t source) {
  const std::uint32_t inf = algorithms::kInfDist;
  std::vector<std::uint32_t> dist(g.num_vertices(), inf);
  using Item = std::pair<std::uint32_t, vertex_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0;
  pq.emplace(0, source);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    for (vertex_t v : g.neighbors(u)) {
      std::uint32_t nd = d + algorithms::sssp_weight(u, v);
      if (nd < dist[v]) {
        dist[v] = nd;
        pq.emplace(nd, v);
      }
    }
  }
  return dist;
}

std::vector<float> sssp_dist_weighted(const graph::WeightedCsr& g,
                                      vertex_t source) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> dist(g.num_vertices(), inf);
  using Item = std::pair<float, vertex_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0.0f;
  pq.emplace(0.0f, source);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    auto ns = g.neighbors(u);
    auto ws = g.weights_of(u);
    for (std::size_t k = 0; k < ns.size(); ++k) {
      float nd = d + ws[k];
      if (nd < dist[ns[k]]) {
        dist[ns[k]] = nd;
        pq.emplace(nd, ns[k]);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> coreness(const graph::Csr& g,
                                    const graph::Csr& gt) {
  const vertex_t n = g.num_vertices();
  std::vector<std::uint32_t> deg(n), core(n, ~0u);
  for (vertex_t v = 0; v < n; ++v) deg[v] = g.degree(v) + gt.degree(v);

  // Repeatedly peel all vertices with residual degree <= k.
  std::uint64_t remaining = n;
  std::uint32_t k = 0;
  std::vector<vertex_t> stack;
  while (remaining > 0) {
    for (vertex_t v = 0; v < n; ++v) {
      if (core[v] == ~0u && deg[v] <= k) stack.push_back(v);
    }
    while (!stack.empty()) {
      vertex_t v = stack.back();
      stack.pop_back();
      if (core[v] != ~0u) continue;
      core[v] = k;
      --remaining;
      auto relax = [&](vertex_t w) {
        if (core[w] == ~0u) {
          if (deg[w] > 0) --deg[w];
          if (deg[w] <= k) stack.push_back(w);
        }
      };
      for (vertex_t w : g.neighbors(v)) relax(w);
      for (vertex_t w : gt.neighbors(v)) relax(w);
    }
    ++k;
  }
  return core;
}

double bfs_edges_per_second(const graph::Csr& g, vertex_t source) {
  Timer t;
  std::uint64_t edges = 0;
  std::vector<std::uint32_t> dist(g.num_vertices(), ~0u);
  std::queue<vertex_t> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    vertex_t u = q.front();
    q.pop();
    edges += g.degree(u);
    for (vertex_t v : g.neighbors(u)) {
      if (dist[v] == ~0u) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  double sec = t.seconds();
  return sec > 0 ? static_cast<double>(edges) / sec : 0.0;
}

}  // namespace blaze::baseline::inmem
