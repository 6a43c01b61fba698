#include "serve/query_fusion.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/edge_map.h"
#include "core/vertex_subset.h"
#include "format/page_scan.h"
#include "trace/tracer.h"
#include "util/timer.h"

namespace blaze::serve {

namespace {

/// Mutable lockstep state of one member query.
struct MemberState {
  FusedQuerySpec spec;
  bool active = true;
  std::uint64_t edges = 0;
  std::size_t rounds = 0;
  // kBfs
  std::vector<std::uint32_t> dist;
  std::unique_ptr<core::VertexSubset> frontier;
  std::unique_ptr<core::VertexSubset> next;
  std::uint32_t depth = 0;
  // kPageRank
  std::vector<float> rank;
  std::vector<float> next_rank;
  std::vector<float> contrib;  ///< damping * rank[v] / degree(v), per round
  std::size_t iter = 0;
};

}  // namespace

std::vector<FusedResult> run_fused(core::QueryContext& qc,
                                   const format::OnDiskGraph& g,
                                   const std::vector<FusedQuerySpec>& specs,
                                   core::QueryStats* stats) {
  BLAZE_CHECK(g.index().record_bytes() == sizeof(std::uint32_t),
              "fused execution supports unweighted 4-byte records only");
  const vertex_t n = g.num_vertices();
  Timer timer;
  trace::ScopedQuery trace_scope(qc.trace_id());
  trace::Span span(trace::Name::kSessionExecute, specs.size());

  // ---- Member initialization ----------------------------------------------
  std::vector<MemberState> members(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    MemberState& m = members[i];
    m.spec = specs[i];
    if (m.spec.kind == FusedQuerySpec::Kind::kBfs) {
      BLAZE_CHECK(m.spec.source < n, "BFS source out of range");
      m.dist.assign(n, kBfsUnreached);
      m.dist[m.spec.source] = 0;
      m.frontier = std::make_unique<core::VertexSubset>(n);
      m.frontier->add(m.spec.source);
      m.next = std::make_unique<core::VertexSubset>(n);
    } else {
      m.rank.assign(n, n > 0 ? 1.0f / static_cast<float>(n) : 0.0f);
      m.next_rank.assign(n, 0.0f);
      m.contrib.assign(n, 0.0f);
      m.active = m.spec.iterations > 0;
    }
  }

  // PageRank streams every vertex's out-edges each round; the page
  // frontier of that is shared by every PR member, so build it once.
  core::VertexSubset all_sources(n);
  for (vertex_t v = 0; v < n; ++v) {
    if (g.degree(v) != 0) all_sources.add(v);
  }

  // ---- Lockstep rounds ----------------------------------------------------
  const std::size_t num_devices =
      core::detail::leaf_devices(g.device()).size();
  for (;;) {
    // Deactivate exhausted members, collect this round's participants.
    std::vector<MemberState*> round;
    for (MemberState& m : members) {
      if (!m.active) continue;
      if (m.spec.kind == FusedQuerySpec::Kind::kBfs && m.frontier->empty()) {
        m.active = false;
        continue;
      }
      round.push_back(&m);
    }
    if (round.empty()) break;

    // Per-round PageRank setup: fresh accumulator at the teleport base,
    // contributions frozen from the current ranks (deterministic
    // regardless of the page order the round ends up using).
    for (MemberState* m : round) {
      if (m->spec.kind != FusedQuerySpec::Kind::kPageRank) continue;
      const float base =
          n > 0 ? (1.0f - m->spec.damping) / static_cast<float>(n) : 0.0f;
      std::fill(m->next_rank.begin(), m->next_rank.end(), base);
      for (vertex_t v = 0; v < n; ++v) {
        const std::uint32_t deg = g.degree(v);
        m->contrib[v] =
            deg != 0 ? m->spec.damping * m->rank[v] / static_cast<float>(deg)
                     : 0.0f;
      }
    }

    // Frontier UNION -> one page stream for the whole batch.
    core::VertexSubset uni(n);
    for (const MemberState* m : round) {
      const core::VertexSubset& f =
          m->spec.kind == FusedQuerySpec::Kind::kBfs ? *m->frontier
                                                     : all_sources;
      f.for_each([&](vertex_t v) { uni.add(v); });
    }
    auto batches = core::detail::page_frontier_batches(
        qc, g, uni, [](vertex_t) { return true; });

    // Canonical processing order: ascending logical page. Each member's
    // own pages form the same subsequence alone or fused — the root of
    // the bit-identical guarantee.
    std::vector<std::uint64_t> canonical;
    for (const io::ReadBatch& b : batches) {
      for (const std::uint64_t p : b.pages) {
        canonical.push_back(p * num_devices + b.device_index);
      }
    }
    std::sort(canonical.begin(), canonical.end());
    trace::instant(trace::Name::kFusedRound, canonical.size());

    // Apply one page to every participant, in member order.
    auto process_page = [&](std::uint64_t logical_page, const std::byte* page,
                            std::uint64_t page_valid) {
      for (MemberState* m : round) {
        auto scan = [&](auto&& is_active, auto&& visit) {
          m->edges += format::for_each_edge(g.index(), g.page_map(),
                                            logical_page, page, page_valid,
                                            is_active, visit);
        };
        if (m->spec.kind == FusedQuerySpec::Kind::kBfs) {
          scan([&](vertex_t v) { return m->frontier->contains(v); },
               [&](vertex_t, vertex_t dst) {
                 if (m->dist[dst] == kBfsUnreached) {
                   m->dist[dst] = m->depth + 1;
                   m->next->add(dst);
                 }
               });
        } else {
          scan([&](vertex_t v) {
                 return g.degree(v) != 0;  // every source, every round
               },
               [&](vertex_t src, vertex_t dst) {
                 m->next_rank[dst] += m->contrib[src];
               });
        }
      }
    };

    if (!canonical.empty()) {
      // ---- One shared stream; in-order sequencing over arrivals --------
      io::IoBufferPool& io_pool = qc.io_pool();
      auto io = qc.io_pipeline().submit(io_pool, std::move(batches),
                                        qc.config().max_inflight_io);
      std::unordered_map<std::uint64_t, std::vector<std::byte>> holdback;
      std::size_t next_idx = 0;
      auto drain_holdback = [&] {
        while (next_idx < canonical.size()) {
          auto it = holdback.find(canonical[next_idx]);
          if (it == holdback.end()) break;
          process_page(canonical[next_idx], it->second.data(),
                       it->second.size());
          holdback.erase(it);
          ++next_idx;
        }
      };
      // The fused consumer is single-threaded: an empty queue is pure IO
      // starvation.
      const std::uint64_t io_wait_ns = io->consume(
          io_pool, num_devices,
          [&](std::uint64_t lp, const std::byte* page,
              std::uint64_t page_valid) {
            if (next_idx < canonical.size() && lp == canonical[next_idx]) {
              process_page(lp, page, page_valid);
              ++next_idx;
              drain_holdback();
            } else {
              // Ahead of the canonical cursor: stage a copy so the pipeline
              // buffer recycles immediately.
              holdback.emplace(
                  lp, std::vector<std::byte>(page, page + page_valid));
            }
          },
          [] { return false; });
      io->wait();
      if (auto err = io->error()) std::rethrow_exception(err);
      BLAZE_CHECK(next_idx == canonical.size() && holdback.empty(),
                  "fused sequencer lost pages");
      if (stats) {
        stats->merge(io->stats());
        stats->io_wait_ns += io_wait_ns;
        ++stats->edge_map_calls;
      }
    }

    // ---- Advance the lockstep ------------------------------------------
    for (MemberState* m : round) {
      ++m->rounds;
      if (m->spec.kind == FusedQuerySpec::Kind::kBfs) {
        ++m->depth;
        std::swap(m->frontier, m->next);
        m->next = std::make_unique<core::VertexSubset>(n);
        if (m->frontier->empty()) m->active = false;
      } else {
        m->rank.swap(m->next_rank);
        if (++m->iter >= m->spec.iterations) m->active = false;
      }
    }
  }

  // ---- Results ------------------------------------------------------------
  std::vector<FusedResult> out(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    MemberState& m = members[i];
    FusedResult& r = out[i];
    if (m.spec.kind == FusedQuerySpec::Kind::kBfs) {
      r.bfs_dist = std::move(m.dist);
    } else {
      r.pr_rank = std::move(m.rank);
    }
    r.edges_processed = m.edges;
    r.rounds_active = m.rounds;
  }
  if (stats) {
    stats->edges_scattered += [&] {
      std::uint64_t e = 0;
      for (const FusedResult& r : out) e += r.edges_processed;
      return e;
    }();
    stats->seconds += timer.seconds();
  }
  return out;
}

}  // namespace blaze::serve
