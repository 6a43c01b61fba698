// Pull-direction EDGEMAP (extension).
//
// Blaze's engine is push-only: the frontier's out-edges are scattered
// through the bins. Ligra — whose API the paper adopts — additionally
// switches to a *pull* traversal when the frontier is dense: every
// still-interesting destination scans its in-neighbors and stops as soon
// as one is in the frontier. Out-of-core, pull reads the transpose
// adjacency of the candidate destinations instead of the frontier's
// out-adjacency, which is cheaper exactly when the frontier's out-edge
// volume exceeds the candidates' in-edge volume (classic BFS mid-rounds).
// algorithms::bfs_hybrid makes that per-round switch with
// frontier_out_edges() below.
//
// Pull needs no bins: each destination accumulates locally while its page
// is scanned. Pages arrive through the same io::ReadHandle::consume() loop
// and decode through the same format::for_each_edge() kernel as push; the
// edge callback returns false to stop scanning a destination's list the
// moment cond() turns false (the early exit). One subtlety is
// out-of-core-specific: a destination whose in-adjacency spans a page
// boundary can be processed by two scatter workers concurrently, so pull
// applies updates through gather_atomic() (for BFS-style claims that is one
// CAS per *successful* update — rare).
#pragma once

#include "core/edge_map.h"

namespace blaze::core {

/// Pull-mode EdgeMap over the transpose graph `in_g`: for every vertex d
/// in `candidates`, applies gather_atomic(d, scatter(s, d)) for each
/// in-neighbor s of d that is in `frontier`, until cond(d) turns false
/// (early exit). Returns the activated destinations.
template <typename Program>
VertexSubset edge_map_pull(QueryContext& qc, const format::OnDiskGraph& in_g,
                           const VertexSubset& frontier,
                           const VertexSubset& candidates, Program& prog,
                           const EdgeMapOptions& opts = {}) {
  using value_type = typename Program::value_type;
  Timer timer;
  BLAZE_CHECK(in_g.index().record_bytes() == sizeof(vertex_t),
              "pull mode currently supports unweighted graphs");
  const vertex_t n = in_g.num_vertices();
  VertexSubset out(n);
  if (opts.stats) ++opts.stats->edge_map_calls;
  trace::ScopedQuery trace_scope(qc.trace_id());
  trace::Span trace_span(trace::Name::kEdgeMapPull, candidates.universe());
  trace::instant(trace::Name::kIteration,
                 opts.stats ? opts.stats->edge_map_calls : 0);
  if (const auto* m = detail::core_metrics()) {
    m->iterations->inc();
    m->frontier->set(static_cast<double>(frontier.count()));
  }
  if (frontier.empty() || candidates.empty()) return out;

  // Page frontier over the *candidates'* in-adjacency, handed to the
  // Runtime's persistent IO pipeline.
  auto batches = detail::page_frontier_batches(
      qc, {&in_g}, candidates, [&](vertex_t v) { return prog.cond(v); });

  io::IoBufferPool& io_pool = qc.io_pool();
  auto io = qc.io_pipeline().submit(io_pool, std::move(batches),
                                    io::kMaxInflightIo);

  std::atomic<std::uint64_t> edges_scanned{0};
  std::atomic<std::uint64_t> io_wait_ns{0};

  qc.pool().run_on_all([&](std::size_t worker) {
    trace::ScopedQuery worker_scope(qc.trace_id());
    // Pull workers scan and gather in place (no bins): one scatter-side
    // span covers each worker's whole page-consumption loop.
    trace::Span scatter_span(trace::Name::kScatter, worker);
    std::uint64_t local_edges = 0;
    const std::uint64_t local_io_wait = io->consume(
        io_pool,
        [&](std::uint32_t, std::uint64_t logical_page, const std::byte* page,
            std::uint64_t page_valid) {
          local_edges += format::for_each_edge(
              in_g.index(), in_g.page_map(), logical_page, page, page_valid,
              [&](vertex_t d) {
                return candidates.contains(d) && prog.cond(d);
              },
              [&](vertex_t d, vertex_t s) {
                if (!frontier.contains(s)) return true;
                const value_type val = prog.scatter(s, d);
                if (prog.gather_atomic(d, val) && opts.output) out.add(d);
                return prog.cond(d);  // false: d satisfied, early exit
              });
        },
        // Pull workers have no gather bins to steal from: an empty queue
        // is always the device's fault.
        [] { return false; });
    edges_scanned.fetch_add(local_edges, std::memory_order_relaxed);
    io_wait_ns.fetch_add(local_io_wait, std::memory_order_relaxed);
  });
  io->wait();

  if (auto err = io->error()) {
    // A device fault or a corrupt page. The reader reclaimed its buffers
    // and the workers drained the filled queue: the pool is whole, the
    // Runtime stays reusable. Surface it.
    std::rethrow_exception(err);
  }
  if (const auto* m = detail::core_metrics()) {
    m->edges->add(edges_scanned.load(std::memory_order_relaxed));
  }
  if (opts.stats) {
    opts.stats->merge(io->stats());
    opts.stats->io_wait_ns += io_wait_ns.load(std::memory_order_relaxed);
    opts.stats->edges_scattered +=
        edges_scanned.load(std::memory_order_relaxed);
    opts.stats->seconds += timer.seconds();
  }
  return out;
}

/// Single-query convenience: runs on the Runtime's default context.
template <typename Program>
VertexSubset edge_map_pull(Runtime& rt, const format::OnDiskGraph& in_g,
                           const VertexSubset& frontier,
                           const VertexSubset& candidates, Program& prog,
                           const EdgeMapOptions& opts = {}) {
  return edge_map_pull(rt.default_context(), in_g, frontier, candidates,
                       prog, opts);
}

/// Sum of out-degrees of the frontier (the Ligra density measure),
/// computed in parallel from the index.
inline std::uint64_t frontier_out_edges(QueryContext& qc,
                                        const format::OnDiskGraph& g,
                                        const VertexSubset& frontier) {
  std::atomic<std::uint64_t> sum{0};
  frontier.for_each_parallel(qc.pool(), [&](vertex_t v) {
    sum.fetch_add(g.degree(v), std::memory_order_relaxed);
  });
  return sum.load(std::memory_order_relaxed);
}

}  // namespace blaze::core
