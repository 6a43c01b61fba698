// Out-of-core EDGEMAP / VERTEXMAP (paper Sections IV-B and IV-C).
//
// edge_map() executes a user Program over all out-edges of the frontier,
// in one graph or in a short list of graphs sharing one vertex space (an
// out-graph and its transpose, for the undirected algorithms):
//
//   1. The frontier is transformed in parallel into a page frontier per
//      graph (the on-disk pages holding the frontier vertices' adjacency),
//      all graphs in one walk over the frontier.
//   2. Every graph's page frontier is posted at once, through one
//      io::IoPipeline::submit(), to the Runtime's persistent pipeline: one
//      reader thread per device streams its pages into buffers from the
//      free MPMC queue (merging up to 4 contiguous pages per request) and
//      pushes filled buffers, tagged with their graph, to the one handle's
//      filled queue. A graph and a transpose on different SSDs therefore
//      stream at the same time instead of taking turns.
//   3. Scatter threads drain the handle with io::ReadHandle::consume(); on
//      each page, format::for_each_edge() locates the frontier vertices via
//      the page-to-vertex map of the page's graph and decodes their edges,
//      whatever the encoding, and the workers evaluate cond() and scatter()
//      per edge and stage (dst, value) records into the bins — records
//      from every graph into the same per-destination bins.
//   4. Gather threads drain full bins and apply gather() to the
//      algorithm's vertex data — without synchronization, thanks to the
//      bins' per-destination exclusivity — setting output-frontier bits.
//
// A Program provides:
//   using value_type = <trivially copyable, 4 bytes>;
//   value_type scatter(vertex_t src, vertex_t dst);
//     (or scatter(src, dst, float weight) to run on weighted graphs)
//   bool cond(vertex_t dst);                      // pre-scatter filter
//   bool gather(vertex_t dst, value_type v);      // no atomics needed
//   bool gather_atomic(vertex_t dst, value_type v); // sync-variant (CAS)
//
// gather()/gather_atomic() return true to activate dst in the output
// frontier.
#pragma once

#include <atomic>
#include <bit>
#include <initializer_list>
#include <thread>
#include <utility>
#include <vector>

#include "core/core_metrics.h"
#include "core/query_context.h"
#include "core/runtime.h"
#include "core/stats.h"
#include "core/vertex_map.h"
#include "core/vertex_subset.h"
#include "device/raid0_device.h"
#include "format/on_disk_graph.h"
#include "format/page_scan.h"
#include "io/io_pipeline.h"
#include "util/backoff.h"
#include "util/busy_wait.h"
#include "util/timer.h"

namespace blaze::core {

struct EdgeMapOptions {
  /// When false, no output frontier is materialized (the paper's
  /// `output = false` mode used by PageRank/WCC, which rebuild the
  /// frontier in VertexMap instead).
  bool output = true;
  /// Optional accumulator for IO/compute statistics.
  QueryStats* stats = nullptr;
};

/// The graphs one EdgeMap call streams: a graph alone, or graphs sharing
/// one vertex space (an out-graph and its transpose) read in one pass.
using GraphList = std::initializer_list<const format::OnDiskGraph*>;

namespace detail {

/// Unwraps RAID-0 into its member devices so the engine can run one IO
/// thread per physical device (paper: "Blaze uses one thread for each SSD
/// and maintains the page frontier for each SSD").
inline std::vector<device::BlockDevice*> leaf_devices(
    device::BlockDevice& dev) {
  if (auto* raid = dynamic_cast<device::Raid0Device*>(&dev)) {
    std::vector<device::BlockDevice*> out;
    for (std::size_t i = 0; i < raid->num_children(); ++i) {
      out.push_back(&raid->child(i));
    }
    return out;
  }
  return {&dev};
}

/// Computes the page frontier of `subset` over every graph of `graphs` in
/// one parallel walk and returns per-device read batches, each tagged with
/// its graph's position in `graphs` and its RAID-0 stripe: logical page p
/// of a graph striped over D devices lives on device p % D as that
/// device's page p / D. `filter(v)` additionally gates membership.
template <typename Filter>
std::vector<io::ReadBatch> page_frontier_batches(QueryContext& qc,
                                                 GraphList graphs,
                                                 const VertexSubset& subset,
                                                 Filter&& filter) {
  std::vector<ConcurrentBitmap> page_bits;
  page_bits.reserve(graphs.size());
  for (const format::OnDiskGraph* g : graphs) {
    page_bits.emplace_back(g->num_pages());
  }
  subset.for_each_parallel(qc.pool(), [&](vertex_t v) {
    if (!filter(v)) return;
    ConcurrentBitmap* bits = page_bits.data();
    for (const format::OnDiskGraph* g : graphs) {
      if (g->degree(v) != 0) {
        auto [first, last] = g->page_range(v);
        for (std::uint64_t p = first; p <= last; ++p) bits->set(p);
      }
      ++bits;
    }
  });
  std::vector<io::ReadBatch> batches;
  for (std::uint32_t s = 0; s < graphs.size(); ++s) {
    const format::OnDiskGraph& g = *graphs.begin()[s];
    auto devices = leaf_devices(g.device());
    const auto width = static_cast<std::uint32_t>(devices.size());
    const std::size_t first_batch = batches.size();
    for (std::uint32_t d = 0; d < width; ++d) {
      io::ReadBatch& b = batches.emplace_back();
      b.device = devices[d];
      b.origin = {s, width, d};
      // Graph-level integrity gate (single-device graphs; see
      // OnDiskGraph::set_page_verifier).
      if (g.page_verifier()) b.verifier = g.page_verifier();
    }
    page_bits[s].for_each([&](std::size_t p) {
      batches[first_batch + p % width].pages.push_back(p / width);
    });
  }
  return batches;
}

}  // namespace detail

/// EDGEMAP over every graph of `graphs` in one pass: the frontier's edges
/// in all of them, as if edge_map() ran on each in turn (the undirected
/// algorithms pass {&out_g, &in_g}), but with every graph's pages in
/// flight at once and one scatter/gather phase. The graphs must share one
/// vertex space.
template <typename Program>
VertexSubset edge_map(QueryContext& qc, GraphList graphs,
                      const VertexSubset& frontier, Program& prog,
                      const EdgeMapOptions& opts = {}) {
  static_assert(sizeof(typename Program::value_type) == sizeof(bin_value_t),
                "Program::value_type must be 4 bytes");
  using value_type = typename Program::value_type;

  Timer timer;
  const Config& cfg = qc.config();
  const format::OnDiskGraph* const* graph_of = graphs.begin();
  const vertex_t n = graph_of[0]->num_vertices();
  VertexSubset out(n);
  if (opts.stats) ++opts.stats->edge_map_calls;
  // Trace identity for everything this call does — including the IO jobs
  // it posts (the pipeline snapshots the id per job) — plus the iteration
  // boundary instant the Figure 2/8 idle-gap analysis keys on.
  trace::ScopedQuery trace_scope(qc.trace_id());
  trace::Span trace_span(trace::Name::kEdgeMap, frontier.universe());
  trace::instant(trace::Name::kIteration,
                 opts.stats ? opts.stats->edge_map_calls : 0);
  if (const auto* m = detail::core_metrics()) {
    m->iterations->inc();
    m->frontier->set(static_cast<double>(frontier.count()));
  }
  const bool sync_mode = cfg.sync_mode;
  BinSet* bins = nullptr;  // acquired below, once there is work to bin
  const std::size_t scatter_threads =
      sync_mode ? cfg.compute_workers : cfg.scatter_threads();

  // ---- Gather helpers -----------------------------------------------------
  auto process_full = [&](const FullBinRef& ref) {
    for (const BinRecord& rec : bins->records(ref)) {
      value_type v = std::bit_cast<value_type>(rec.value);
      if (prog.gather(rec.dst, v) && opts.output) out.add(rec.dst);
    }
    bins->complete(ref);
  };
  auto help_gather_once = [&] {
    if (auto ref = bins->pop_full()) {
      process_full(*ref);
    } else {
      std::this_thread::yield();
    }
  };
  // Like help_gather_once, but backs off the CPU while the pipeline is
  // quiet (idle spinners must not starve working threads when workers
  // outnumber cores).
  auto drain_with_backoff = [&] {
    Backoff backoff;
    while (!bins->drained()) {
      if (auto ref = bins->pop_full()) {
        process_full(*ref);
        backoff.reset();
      } else {
        backoff.pause();
      }
    }
  };

  // ---- Scatter: the per-edge step -----------------------------------------
  auto apply_update = [&](ScatterBuffer* sbuf, std::uint64_t* local_records,
                          vertex_t dst, value_type val) {
    if (sync_mode) {
      if (prog.gather_atomic(dst, val) && opts.output) out.add(dst);
      busy_spin_ns(cfg.sim_atomic_contention_ns);
    } else {
      sbuf->append(*bins, dst, std::bit_cast<bin_value_t>(val),
                   help_gather_once);
      ++*local_records;
    }
  };
  // One scatter worker's edge callback. It takes a weight exactly when the
  // program's scatter() does, which is what for_each_edge checks against
  // the graph's records. Forced inline: the kernel calls it from each
  // encoding's loop, and GCC then kept it out of line, a call per edge that
  // cost ~10% of a dense iteration (mem-flat PageRank).
  auto scatter_edge = [&](ScatterBuffer* sbuf, std::uint64_t* local_records) {
    return [&, sbuf, local_records]<typename... W>(
               vertex_t src, vertex_t dst,
               W... weight) __attribute__((always_inline))
               requires requires { prog.scatter(src, dst, weight...); }
    {
      if (prog.cond(dst)) {
        apply_update(sbuf, local_records, dst,
                     prog.scatter(src, dst, weight...));
      }
    };
  };
  // Program/graph record-format compatibility, checked before any pipeline
  // work starts.
  for (const format::OnDiskGraph* g : graphs) {
    BLAZE_CHECK(g->num_vertices() == n,
                "edge_map: graphs must share one vertex space");
    format::check_edge_fn<decltype(scatter_edge(nullptr, nullptr))>(
        g->index());
  }
  if (frontier.empty()) return out;

  // ---- Step 1: vertex frontier -> page frontier of every graph -----------
  auto batches = detail::page_frontier_batches(
      qc, graphs, frontier, [](vertex_t) { return true; });

  // ---- Step 2: hand the page frontier to the persistent IO pipeline ------
  io::IoBufferPool& io_pool = qc.io_pool();
  auto io = qc.io_pipeline().submit(io_pool, std::move(batches),
                                    io::kMaxInflightIo);

  std::atomic<std::uint64_t> edges_scattered{0};
  std::atomic<std::uint64_t> records_binned{0};
  std::atomic<std::uint64_t> io_wait_ns{0};

  if (!sync_mode) {
    bins = &qc.acquire_bins();
    qc.scatter_buffer(0);  // materialize before workers race
  }

  // ---- Compute workers (paper steps 5-9) ----------------------------------
  qc.pool().run_on_all([&](std::size_t worker) {
    // Pool threads carry no query identity of their own; adopt this
    // call's so worker spans land in the right per-query tree.
    trace::ScopedQuery worker_scope(qc.trace_id());
    const bool is_scatter = worker < scatter_threads;
    std::uint64_t local_edges = 0, local_records = 0, local_io_wait = 0;
    if (is_scatter) {
      trace::Span scatter_span(trace::Name::kScatter, worker);
      ScatterBuffer* sbuf = sync_mode ? nullptr : &qc.scatter_buffer(worker);
      auto on_edge = scatter_edge(sbuf, &local_records);
      local_io_wait = io->consume(
          io_pool,
          [&](std::uint32_t source, std::uint64_t logical_page,
              const std::byte* page, std::uint64_t page_valid) {
            const format::OnDiskGraph& g = *graph_of[source];
            local_edges += format::for_each_edge(
                g.index(), g.page_map(), logical_page, page, page_valid,
                [&](vertex_t v) { return frontier.contains(v); }, on_edge);
          },
          // No filled buffer: steal gather work before idling on IO.
          [&] {
            if (sync_mode || !bins->pop_full_hint()) return false;
            help_gather_once();
            return true;
          });
      if (!sync_mode) {
        sbuf->flush_all(*bins, help_gather_once);
        if (bins->scatter_done(scatter_threads)) bins->seal(help_gather_once);
      }
    }
    // Everyone — dedicated gather workers from the start, scatter workers
    // once their input is exhausted — drains the bins to completion.
    if (!sync_mode) {
      trace::Span gather_span(trace::Name::kGather, worker);
      drain_with_backoff();
    }
    edges_scattered.fetch_add(local_edges, std::memory_order_relaxed);
    records_binned.fetch_add(local_records, std::memory_order_relaxed);
    io_wait_ns.fetch_add(local_io_wait, std::memory_order_relaxed);
  });

  io->wait();

  if (auto err = io->error()) {
    // A device failed mid-pipeline, or a page failed to decode. The reader
    // has already reclaimed every buffer it acquired and the workers above
    // drained the filled queue, so the pool is back at full occupancy and
    // the arenas stay valid — the Runtime remains usable for the next
    // query. Just surface the failure.
    std::rethrow_exception(err);
  }

  if (const auto* m = detail::core_metrics()) {
    m->edges->add(edges_scattered.load(std::memory_order_relaxed));
    m->records->add(records_binned.load(std::memory_order_relaxed));
  }
  if (opts.stats) {
    opts.stats->merge(io->stats());  // unified device->io accounting
    opts.stats->io_wait_ns += io_wait_ns.load(std::memory_order_relaxed);
    opts.stats->edges_scattered +=
        edges_scattered.load(std::memory_order_relaxed);
    opts.stats->records_binned +=
        records_binned.load(std::memory_order_relaxed);
    opts.stats->seconds += timer.seconds();
  }
  return out;
}

/// EDGEMAP over one graph: the one-element call of the body above.
template <typename Program>
VertexSubset edge_map(QueryContext& qc, const format::OnDiskGraph& g,
                      const VertexSubset& frontier, Program& prog,
                      const EdgeMapOptions& opts = {}) {
  return edge_map(qc, {&g}, frontier, prog, opts);
}

/// Single-query conveniences: run on the Runtime's default context.
template <typename Program>
VertexSubset edge_map(Runtime& rt, GraphList graphs,
                      const VertexSubset& frontier, Program& prog,
                      const EdgeMapOptions& opts = {}) {
  return edge_map(rt.default_context(), graphs, frontier, prog, opts);
}
template <typename Program>
VertexSubset edge_map(Runtime& rt, const format::OnDiskGraph& g,
                      const VertexSubset& frontier, Program& prog,
                      const EdgeMapOptions& opts = {}) {
  return edge_map(rt.default_context(), {&g}, frontier, prog, opts);
}

/// VERTEXMAP on the query's compute pool (core/vertex_map.h).
template <typename Fn>
VertexSubset vertex_map(QueryContext& qc, const VertexSubset& frontier,
                        Fn&& f, QueryStats* stats = nullptr) {
  return vertex_map(qc.pool(), frontier, std::forward<Fn>(f), stats);
}

/// Single-query convenience: runs on the Runtime's default context.
template <typename Fn>
VertexSubset vertex_map(Runtime& rt, const VertexSubset& frontier, Fn&& f,
                        QueryStats* stats = nullptr) {
  return vertex_map(rt.default_context(), frontier, std::forward<Fn>(f),
                    stats);
}

}  // namespace blaze::core
