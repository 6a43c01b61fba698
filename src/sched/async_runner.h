// sched::AsyncRunner: the asynchronous, priority-driven execution loop.
//
// Where the BSP loop streams the whole frontier through edge_map once per
// iteration and barriers, the AsyncRunner keeps a BucketQueue of vertices
// ordered by how much unconverged work they carry and repeatedly:
//
//   1. pops the lowest priority buckets into a round frontier until their
//      adjacency spans a page budget, then widens it to every queued
//      vertex whose adjacency lies on pages the round already reads (page
//      coalescing);
//   2. runs the algorithm's round body — an edge_map over the round
//      frontier whose gather applies an atomics-tolerant monotone update
//      and marks the destination in a per-round bitmap — then files each
//      marked vertex once, at its priority read after the round;
//   3. compacts the queue (drops stale and duplicate entries) once stale
//      entries outnumber live ones;
//   4. repeats until the queue drains.
//
// Only algorithms that reach the same fixed point in any order run here
// (SSSP and WCC: monotone min relaxations). PageRank-delta and k-core run
// their BSP loops in async mode; async forms of both read more bytes and
// took longer than BSP.
//
// The runner owns round pacing, trace spans (kSchedRound / kSchedQueue)
// and the sched metrics series; the algorithm supplies the round body and
// the priority function. Priorities only fall within a round (distances
// and labels only fall), so the one priority filed after the round is the
// best any of the round's updates reached, and gathers never touch the
// queue.
#pragma once

#include <cstdint>
#include <vector>

#include "core/query_context.h"
#include "core/vertex_subset.h"
#include "format/on_disk_graph.h"
#include "sched/bucket_queue.h"
#include "sched/sched_metrics.h"
#include "trace/tracer.h"
#include "util/concurrent_bitmap.h"

namespace blaze::sched {

struct AsyncOptions {
  /// Rounds keep popping buckets until their vertices span at least this
  /// many pages. 0 = derive from the query's IO buffer (half of it), so a
  /// round roughly fills the pipeline without thrashing the pool.
  std::size_t round_page_budget = 0;
};

struct AsyncRunStats {
  std::uint64_t rounds = 0;
  std::uint64_t popped = 0;        ///< vertices popped from buckets
  std::uint64_t coalesced = 0;     ///< vertices claimed by page coalescing
  std::uint64_t pushes = 0;        ///< queue pushes that changed state
  std::uint64_t stale_drops = 0;   ///< entries superseded before pop
  std::uint64_t pages_spanned = 0; ///< sum of each round's distinct pages
  std::uint64_t unique_pages = 0;  ///< distinct pages ever spanned

  /// Pages a later round read again. The BSP-vs-async total-bytes
  /// comparison lives in bench_async; this is the per-run view.
  std::uint64_t page_refetches() const {
    return pages_spanned > unique_pages ? pages_spanned - unique_pages : 0;
  }
};

/// A BSP Program in its async form. scatter and cond are the program's
/// own; when the program's gather updates destination `d`, the adapter
/// marks `d` in the runner's per-round bitmap (a bit already set costs a
/// load, not an atomic), and the runner files it after the round. Its
/// gathers return false: the next round's frontier comes from the queue,
/// not from edge_map's output.
template <typename Program>
struct Enqueue : Program {
  ConcurrentBitmap& updated;

  bool gather(vertex_t d, typename Program::value_type v) {
    if (Program::gather(d, v)) mark(d);
    return false;
  }
  bool gather_atomic(vertex_t d, typename Program::value_type v) {
    if (Program::gather_atomic(d, v)) mark(d);
    return false;
  }
  void mark(vertex_t d) {
    if (!updated.test(d)) updated.set(d);
  }
};

class AsyncRunner {
 public:
  /// `g` is the graph the rounds read (for WCC, the out-graph; the round
  /// body may map further graphs). The queue spans its vertex space.
  AsyncRunner(core::QueryContext& qc, const format::OnDiskGraph& g,
              AsyncOptions opts = {})
      : qc_(qc),
        g_(g),
        opts_(std::move(opts)),
        queue_(g.num_vertices()),
        touched_(g.num_pages(), 0),
        round_marked_(g.num_pages(), 0),
        updated_(g.num_vertices()) {}

  BucketQueue& queue() { return queue_; }
  /// The vertices this round's gathers updated (what Enqueue marks).
  ConcurrentBitmap& updated() { return updated_; }

  /// Drives rounds until the queue drains. `round` is invoked as
  /// `void round(const core::VertexSubset& frontier)`. After each round,
  /// every vertex marked in updated() is pushed once, in vertex order, at
  /// `priority_t priority(vertex_t)` read then, unless that returns
  /// BucketQueue::kNotQueued.
  template <typename RoundFn, typename PriorityFn>
  AsyncRunStats run(RoundFn&& round, PriorityFn&& priority) {
    trace::ScopedQuery trace_scope(qc_.trace_id());
    const auto* sm = detail::sched_metrics();
    AsyncRunStats rs;
    const vertex_t n = g_.num_vertices();
    const std::size_t budget = page_budget();
    std::vector<vertex_t> popped;
    while (!queue_.empty()) {
      popped.clear();
      // Pop the lowest buckets until the round's adjacency spans the page
      // budget, then claim what else lies on the pages it reads.
      std::size_t pages = 0;
      while (pages < budget && !queue_.empty()) {
        const std::size_t before = popped.size();
        queue_.pop_bucket(popped);
        for (std::size_t i = before; i < popped.size(); ++i) {
          pages += mark_pages(popped[i]);
        }
      }
      const std::size_t bucket_pops = popped.size();
      rs.popped += bucket_pops;
      rs.coalesced += coalesce(popped);
      rs.pages_spanned += round_pages_.size();
      for (std::uint64_t p : round_pages_) {
        if (!touched_[p]) {
          touched_[p] = 1;
          ++rs.unique_pages;
        }
        round_marked_[p] = 0;
      }
      round_pages_.clear();

      core::VertexSubset frontier(n);
      for (vertex_t v : popped) frontier.add(v);
      {
        trace::Span span(trace::Name::kSchedRound, rs.rounds);
        round(frontier);
        updated_.for_each([&](std::size_t v) {
          const priority_t p = priority(static_cast<vertex_t>(v));
          if (p != BucketQueue::kNotQueued) {
            queue_.push(static_cast<vertex_t>(v), p);
          }
        });
        updated_.clear();
      }
      // Compact once stale entries outnumber live ones: each compaction
      // then drops at least half the entries, so its cost amortizes
      // against the pushes that made them.
      if (queue_.entries() > 2 * queue_.size()) queue_.compact();

      ++rs.rounds;
      trace::instant(trace::Name::kSchedQueue, queue_.size());
      if (sm) {
        sm->rounds->inc();
        sm->popped->add(bucket_pops);
        sm->occupancy->set(static_cast<double>(queue_.size()));
      }
    }
    queue_.compact();  // makes stale_drops() exact
    rs.pushes = queue_.pushes();
    rs.stale_drops = queue_.stale_drops();
    if (sm) {
      sm->pushes->add(rs.pushes - pushes_reported_);
      sm->stale_drops->add(rs.stale_drops - stale_reported_);
      sm->refetches->add(rs.page_refetches());
    }
    pushes_reported_ = rs.pushes;
    stale_reported_ = rs.stale_drops;
    return rs;
  }

 private:
  std::size_t page_budget() const {
    if (opts_.round_page_budget != 0) return opts_.round_page_budget;
    const std::size_t io_pages =
        qc_.config().io_buffer_bytes / kPageSize / 2;
    return std::max<std::size_t>(64, io_pages);
  }

  /// Marks the pages `v`'s adjacency spans as read this round; returns
  /// the span (what the page budget counts).
  std::size_t mark_pages(vertex_t v) {
    if (g_.degree(v) == 0) return 0;
    const auto [first, last] = g_.page_range(v);
    for (std::uint64_t p = first; p <= last; ++p) {
      if (!round_marked_[p]) {
        round_marked_[p] = 1;
        round_pages_.push_back(p);
      }
    }
    return static_cast<std::size_t>(last - first + 1);
  }

  /// Claims every queued vertex whose adjacency lies entirely on pages
  /// this round already reads (and queued degree-0 vertices in those
  /// pages' vertex ranges) into `popped`. Walks only the marked pages'
  /// vertex ranges; a vertex is judged once, on its first page. Returns
  /// how many it claimed.
  std::size_t coalesce(std::vector<vertex_t>& popped) {
    const std::size_t before = popped.size();
    for (std::uint64_t p : round_pages_) {
      const auto r = g_.page_map().range(p);
      for (vertex_t v = r.begin; v < r.end; ++v) {
        if (queue_.priority_of(v) == BucketQueue::kNotQueued) continue;
        if (g_.degree(v) != 0) {
          const auto [first, last] = g_.page_range(v);
          if (first != p) continue;
          bool covered = true;
          for (std::uint64_t q = first + 1; q <= last && covered; ++q) {
            covered = round_marked_[q] != 0;
          }
          if (!covered) continue;
        }
        if (queue_.claim(v)) popped.push_back(v);
      }
    }
    return popped.size() - before;
  }

  core::QueryContext& qc_;
  const format::OnDiskGraph& g_;
  AsyncOptions opts_;
  BucketQueue queue_;
  std::vector<std::uint8_t> touched_;       ///< pages any round read
  std::vector<std::uint8_t> round_marked_;  ///< this round's pages
  std::vector<std::uint64_t> round_pages_;  ///< the marked pages, listed
  ConcurrentBitmap updated_;                ///< this round's updated vertices
  std::uint64_t pushes_reported_ = 0;
  std::uint64_t stale_reported_ = 0;
};

}  // namespace blaze::sched
