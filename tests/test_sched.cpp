// sched::BucketQueue edge cases and AsyncRunner behavior: empty pops,
// improve-only (lazy-decrease) pushes, stale-entry dropping, the overflow
// bucket's sliding-window redistribution, claim/compact accounting, a
// seeded random-operation run against a reference model, plus the
// runner's round shape (page coalescing), filing each updated vertex
// once per round, bytes against BSP, the queue occupancy each round
// traces, and fault handling —
// transient faults are absorbed with identical results, propagated faults
// leave the IO buffer pool whole and the Runtime reusable.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algorithms/programs.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "core/edge_map.h"
#include "core/runtime.h"
#include "device/faulty_device.h"
#include "device/mem_device.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "io/io_error.h"
#include "io/io_pipeline.h"
#include "metrics/metrics.h"
#include "sched/async_runner.h"
#include "sched/bucket_queue.h"
#include "test_helpers.h"
#include "trace/tracer.h"
#include "util/rng.h"

namespace blaze {
namespace {

using device::FaultMode;
using device::FaultyDevice;
using sched::BucketQueue;
using sched::priority_t;

// ------------------------------------------------------------ BucketQueue

TEST(BucketQueue, EmptyQueuePopsNothing) {
  BucketQueue q(64, 8);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  std::vector<vertex_t> out;
  EXPECT_FALSE(q.pop_bucket(out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(q.claim(3));
  EXPECT_EQ(q.priority_of(3), BucketQueue::kNotQueued);
}

TEST(BucketQueue, PopsBucketsInPriorityOrder) {
  BucketQueue q(100, 8);
  EXPECT_TRUE(q.push(10, 3));
  EXPECT_TRUE(q.push(20, 0));
  EXPECT_TRUE(q.push(30, 3));
  EXPECT_TRUE(q.push(40, 5));
  EXPECT_EQ(q.size(), 4u);

  std::vector<vertex_t> out;
  ASSERT_TRUE(q.pop_bucket(out));
  EXPECT_EQ(out, (std::vector<vertex_t>{20}));

  out.clear();
  ASSERT_TRUE(q.pop_bucket(out));
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<vertex_t>{10, 30}));

  out.clear();
  ASSERT_TRUE(q.pop_bucket(out));
  EXPECT_EQ(out, (std::vector<vertex_t>{40}));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop_bucket(out));
}

TEST(BucketQueue, WorsePushAfterEnqueueIsIgnored) {
  BucketQueue q(8, 8);
  EXPECT_TRUE(q.push(1, 2));
  // Raising a queued vertex's priority is a no-op: the queued entry at the
  // better level already covers the work.
  EXPECT_FALSE(q.push(1, 5));
  EXPECT_FALSE(q.push(1, 2));  // equal is covered too
  EXPECT_EQ(q.priority_of(1), 2u);
  EXPECT_EQ(q.size(), 1u);

  std::vector<vertex_t> out;
  ASSERT_TRUE(q.pop_bucket(out));
  EXPECT_EQ(out, (std::vector<vertex_t>{1}));
  EXPECT_FALSE(q.pop_bucket(out));

  // Once claimed, the vertex can be enqueued again at any level.
  EXPECT_TRUE(q.push(1, 5));
  EXPECT_EQ(q.priority_of(1), 5u);
}

TEST(BucketQueue, ImprovedPushDeliversOnceAndDropsTheStaleEntry) {
  BucketQueue q(8, 8);
  EXPECT_TRUE(q.push(1, 6));
  EXPECT_TRUE(q.push(1, 1));  // lazy decrease: second entry, record = 1
  EXPECT_EQ(q.size(), 1u);    // still one distinct vertex
  EXPECT_EQ(q.priority_of(1), 1u);

  std::vector<vertex_t> out;
  ASSERT_TRUE(q.pop_bucket(out));
  EXPECT_EQ(out, (std::vector<vertex_t>{1}));

  // The entry parked at level 6 is provably stale and dropped at pop.
  out.clear();
  EXPECT_FALSE(q.pop_bucket(out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(q.stale_drops(), 1u);
}

TEST(BucketQueue, OverflowBucketRedistributesInOrder) {
  // 4 slots: regular levels 0..2, overflow at slot 3. Everything pushed
  // here parks in the overflow and must come back out in priority order
  // via base sliding + redistribution.
  BucketQueue q(1000, 4);
  EXPECT_TRUE(q.push(1, 900));
  EXPECT_TRUE(q.push(2, 40));
  EXPECT_TRUE(q.push(3, 41));
  EXPECT_TRUE(q.push(4, 500));
  EXPECT_EQ(q.base(), 0u);

  std::vector<vertex_t> out;
  ASSERT_TRUE(q.pop_bucket(out));
  EXPECT_EQ(out, (std::vector<vertex_t>{2}));
  EXPECT_EQ(q.base(), 40u);  // window slid to the minimum live priority

  out.clear();
  ASSERT_TRUE(q.pop_bucket(out));
  EXPECT_EQ(out, (std::vector<vertex_t>{3}));

  out.clear();
  ASSERT_TRUE(q.pop_bucket(out));
  EXPECT_EQ(out, (std::vector<vertex_t>{4}));
  EXPECT_EQ(q.base(), 500u);

  out.clear();
  ASSERT_TRUE(q.pop_bucket(out));
  EXPECT_EQ(out, (std::vector<vertex_t>{1}));
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueue, PushBelowBaseClampsToLowestSlotAndPopsFirst) {
  BucketQueue q(100, 4);
  q.push(1, 80);
  std::vector<vertex_t> out;
  ASSERT_TRUE(q.pop_bucket(out));  // slides base to 80
  EXPECT_EQ(q.base(), 80u);

  q.push(2, 90);
  q.push(3, 5);  // below the window base: clamps to slot 0
  out.clear();
  ASSERT_TRUE(q.pop_bucket(out));
  EXPECT_EQ(out, (std::vector<vertex_t>{3}));
}

TEST(BucketQueue, ClearResetsEverything) {
  BucketQueue q(100, 4);
  q.push(1, 3);
  q.push(2, 99);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.priority_of(1), BucketQueue::kNotQueued);
  EXPECT_EQ(q.base(), 0u);
  std::vector<vertex_t> out;
  EXPECT_FALSE(q.pop_bucket(out));
  // Usable again after clear.
  EXPECT_TRUE(q.push(1, 0));
  EXPECT_EQ(q.size(), 1u);
}

TEST(BucketQueue, ClaimAndCompactKeepAccounting) {
  // Claims leave their entries behind and improving pushes append more;
  // compact() must bring the buckets back to one entry per live vertex
  // every cycle, and deliveries + claims + stale drops must still account
  // for every state-changing push.
  constexpr vertex_t kN = 512;
  BucketQueue q(kN, 8);  // narrow window: the overflow slot holds entries
  Xoshiro256 rng(7);
  std::uint64_t delivered = 0;
  std::vector<vertex_t> out;
  for (int cycle = 0; cycle < 30; ++cycle) {
    for (int i = 0; i < 600; ++i) {
      q.push(static_cast<vertex_t>(rng.next_below(kN)),
             static_cast<priority_t>(rng.next_below(40)));
    }
    for (vertex_t v = cycle % 3; v < kN; v += 3) {
      const priority_t p = q.priority_of(v);
      if (!q.claim(v)) continue;
      // Re-queue every third claimed vertex at the priority its leftover
      // entry carries: that entry turns live again next to the fresh one,
      // and compact() must keep just one of the two.
      if (v % 9 == static_cast<vertex_t>(cycle % 3)) q.push(v, p);
    }
    out.clear();
    if (q.pop_bucket(out)) delivered += out.size();
    EXPECT_GE(q.entries(), q.size());
    q.compact();
    EXPECT_EQ(q.entries(), q.size()) << "cycle " << cycle;
    EXPECT_EQ(delivered + q.claims() + q.stale_drops() + q.size(),
              q.pushes())
        << "cycle " << cycle;
  }
  EXPECT_GT(q.claims(), 0u);
  EXPECT_GT(q.stale_drops(), 0u);
  out.clear();
  while (q.pop_bucket(out)) {
    delivered += out.size();
    out.clear();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.entries(), 0u);
  EXPECT_EQ(delivered + q.claims() + q.stale_drops(), q.pushes());
}

TEST(BucketQueue, RandomOperationsMatchAReferenceModel) {
  // Random pushes (improving, worsening, below the window base and far
  // past it), claims, compactions and pops, each checked against `ref`,
  // the plain recorded priority per vertex. Narrow and default windows,
  // with priorities that force the window to slide.
  constexpr vertex_t kN = 200;
  for (std::uint32_t buckets : {2u, 4u, 64u}) {
    SCOPED_TRACE(::testing::Message() << buckets << " buckets");
    BucketQueue q(kN, buckets);
    std::vector<priority_t> ref(kN, BucketQueue::kNotQueued);
    std::size_t queued = 0;
    std::uint64_t delivered = 0;
    priority_t max_base = 0;
    Xoshiro256 rng(11 + buckets);
    std::vector<vertex_t> out;
    auto check_state = [&] {
      ASSERT_EQ(q.size(), queued);
      for (vertex_t v = 0; v < kN; ++v) ASSERT_EQ(q.priority_of(v), ref[v]);
      ASSERT_LE(delivered + q.claims() + q.stale_drops() + q.size(),
                q.pushes());
    };
    // Pops once; checks every vertex at the minimum recorded priority is
    // delivered and each delivery was queued.
    auto pop_and_check = [&] {
      out.clear();
      const bool popped = q.pop_bucket(out);
      if (queued == 0) {
        ASSERT_FALSE(popped);
        ASSERT_TRUE(out.empty());
        return;
      }
      ASSERT_TRUE(popped);
      const priority_t min_ref = *std::min_element(ref.begin(), ref.end());
      for (vertex_t v : out) {
        ASSERT_NE(ref[v], BucketQueue::kNotQueued) << "vertex " << v;
        ref[v] = BucketQueue::kNotQueued;  // a second delivery fails above
        --queued;
        ++delivered;
      }
      for (vertex_t v = 0; v < kN; ++v) ASSERT_NE(ref[v], min_ref) << v;
    };

    for (int step = 0; step < 4000; ++step) {
      const vertex_t v = static_cast<vertex_t>(rng.next_below(kN));
      const std::uint64_t op = rng.next_below(20);
      if (op < 10) {
        const priority_t base = q.base();
        priority_t p;
        switch (rng.next_below(4)) {
          case 0:  // inside or just past the window
            p = base + static_cast<priority_t>(rng.next_below(2 * buckets));
            break;
          case 1:  // below the base
            p = static_cast<priority_t>(rng.next_below(base + 1));
            break;
          case 2:  // far past the window
            p = base + static_cast<priority_t>(rng.next_below(1'000'000));
            break;
          default:  // improve or worsen the recorded priority by a little
            p = ref[v] == BucketQueue::kNotQueued
                    ? base
                    : ref[v] - std::min<priority_t>(ref[v], 3) +
                          static_cast<priority_t>(rng.next_below(7));
        }
        const bool improves = ref[v] == BucketQueue::kNotQueued || p < ref[v];
        ASSERT_EQ(q.push(v, p), improves) << "push " << v << " at " << p;
        if (improves) {
          if (ref[v] == BucketQueue::kNotQueued) ++queued;
          ref[v] = p;
        }
      } else if (op < 13) {
        const bool was_queued = ref[v] != BucketQueue::kNotQueued;
        ASSERT_EQ(q.claim(v), was_queued) << "claim " << v;
        if (was_queued) {
          ref[v] = BucketQueue::kNotQueued;
          --queued;
        }
      } else if (op < 15) {
        q.compact();
        ASSERT_EQ(q.entries(), q.size());
        ASSERT_EQ(delivered + q.claims() + q.stale_drops() + q.size(),
                  q.pushes());
      } else {
        pop_and_check();
        max_base = std::max(max_base, q.base());
      }
      check_state();
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(max_base, 0u);  // the window slid at least once

    // Every vertex still queued is eventually delivered.
    while (queued > 0) {
      pop_and_check();
      if (HasFatalFailure()) return;
    }
    pop_and_check();  // and an empty queue pops nothing
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.entries(), 0u);
    EXPECT_EQ(delivered + q.claims() + q.stale_drops(), q.pushes());
  }
}

// ------------------------------------------------------------ AsyncRunner

/// Priority for runs whose rounds update no vertex.
priority_t no_filing(vertex_t) { return BucketQueue::kNotQueued; }

/// Six vertices with hand-placed flat adjacency (4 B records, 1024 per
/// page): v0 [0,800) and v2 [800,1600) lie on page 0, v1 has degree 0
/// inside page 0's vertex range, v3 spans pages 0-1, v4 pages 1-3 and v5
/// sits on page 3.
graph::Csr page_placed_graph() {
  const std::vector<std::uint64_t> offsets = {0,   200,  200, 400,
                                              1400, 3400, 3410};
  return graph::Csr(offsets, std::vector<vertex_t>(offsets.back(), 0));
}

/// First-round frontier of an AsyncRunner run over page_placed_graph()
/// with v0 at level 0 and v1, v2, v3, v5 at level 6.
std::vector<vertex_t> first_round(sched::AsyncRunStats* rs) {
  graph::Csr g = page_placed_graph();
  core::Runtime rt(testutil::test_config());
  auto odg = format::make_mem_graph(g);
  EXPECT_EQ(odg.page_range(2), (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
  EXPECT_EQ(odg.page_range(3), (std::pair<std::uint64_t, std::uint64_t>{0, 1}));

  sched::AsyncOptions opts;
  opts.round_page_budget = 1;  // v0's single page meets it
  sched::AsyncRunner runner(rt.default_context(), odg, opts);
  runner.queue().push(0, 0);
  for (vertex_t v : {1u, 2u, 3u, 5u}) runner.queue().push(v, 6);

  std::vector<vertex_t> first;
  *rs = runner.run([&](const core::VertexSubset& frontier) {
    if (first.empty()) {
      for (vertex_t v = 0; v < frontier.universe(); ++v) {
        if (frontier.contains(v)) first.push_back(v);
      }
    }
  }, no_filing);
  EXPECT_TRUE(runner.queue().empty());
  return first;
}

TEST(AsyncRunner, CoalescedRoundClaimsQueuedVerticesOnItsPages) {
  // The round pops only v0 (level 0), so it reads page 0. Coalescing adds
  // the level-6 v2 (entirely on page 0) and the degree-0 v1, but not v3,
  // whose adjacency also needs the unread page 1, nor v5 on page 3.
  // The popped-vertices series counts bucket pops only, like rs.popped.
  metrics::set_enabled(true);
  const metrics::Counter* popped_total =
      metrics::Registry::instance().counter(
          "blaze_sched_popped_vertices_total");
  const std::uint64_t popped_before = popped_total->value();
  sched::AsyncRunStats rs;
  EXPECT_EQ(first_round(&rs), (std::vector<vertex_t>{0, 1, 2}));
  EXPECT_EQ(rs.coalesced, 2u);
  EXPECT_EQ(rs.popped, 3u);  // v0, then v3 and v5 in the second round
  EXPECT_EQ(rs.rounds, 2u);
  EXPECT_EQ(popped_total->value() - popped_before, rs.popped);
}

TEST(AsyncRunner, AsyncReadsStayNearBspBytes) {
  // Regression guard for rounds that re-read the pages they just read.
  // Without page coalescing this graph costs async SSSP 1.58x BSP's
  // bytes; with it about 0.95x. One compute worker keeps the push order
  // deterministic.
  graph::Csr g = graph::generate_rmat(14, 16, 4242);
  auto odg = format::make_mem_graph(g);
  auto acfg = testutil::test_config(1);
  acfg.execution_mode = core::ExecutionMode::kAsync;
  core::Runtime async_rt(acfg);
  core::Runtime bsp_rt(testutil::test_config(1));

  const auto bsp_sssp = algorithms::sssp(bsp_rt, odg, 0);
  const auto async_sssp = algorithms::sssp(async_rt, odg, 0);
  EXPECT_EQ(async_sssp.dist, bsp_sssp.dist);
  EXPECT_LE(static_cast<double>(async_sssp.stats.bytes_read),
            1.15 * static_cast<double>(bsp_sssp.stats.bytes_read));
}

TEST(AsyncRunner, RoundFilesEachUpdatedVertexOnce) {
  // Eight sources each peel one unit off v0's residual degree, so it falls
  // 10 -> 2 through eight priorities within one round, whatever order the
  // gathers run in; v9 takes v10 from 5 to 4. Gathers only mark, and the
  // runner files v0 and v10 once each, at their final residuals: two
  // pushes, not one per update.
  std::vector<std::uint64_t> offsets = {0};
  std::vector<vertex_t> targets;
  for (vertex_t v = 0; v < 11; ++v) {
    if (v >= 1 && v <= 8) targets.push_back(0);
    if (v == 9) targets.push_back(10);
    offsets.push_back(targets.size());
  }
  graph::Csr g(offsets, targets);
  auto odg = format::make_mem_graph(g);
  const vertex_t n = g.num_vertices();

  for (bool sync : {false, true}) {
    SCOPED_TRACE(sync ? "sync_mode" : "binned");
    auto cfg = testutil::test_config();
    cfg.sync_mode = sync;
    core::Runtime rt(cfg);
    sched::AsyncRunner runner(rt.default_context(), odg);
    std::vector<std::uint32_t> residual(n, 1);
    residual[0] = 10;
    residual[10] = 5;
    const std::vector<std::uint32_t> coreness(n, algorithms::PeelProgram::kAlive);
    for (vertex_t s = 1; s <= 9; ++s) runner.queue().push(s, 0);
    const std::uint64_t pushes_before = runner.queue().pushes();

    sched::Enqueue<algorithms::PeelProgram> prog{{residual, coreness},
                                                 runner.updated()};
    std::vector<std::uint64_t> round_sizes;
    std::vector<std::pair<vertex_t, priority_t>> filed;
    auto rs = runner.run(
        [&](const core::VertexSubset& frontier) {
          round_sizes.push_back(frontier.count());
          core::edge_map(rt, odg, frontier, prog, {.output = false});
        },
        [&](vertex_t d) {
          filed.emplace_back(d, residual[d]);
          return residual[d];
        });

    // The second round pops the two filed vertices; they update nothing.
    EXPECT_EQ(rs.rounds, 2u);
    EXPECT_EQ(round_sizes, (std::vector<std::uint64_t>{9, 2}));
    EXPECT_EQ(residual[0], 2u);
    EXPECT_EQ(filed, (std::vector<std::pair<vertex_t, priority_t>>{
                         {0, 2}, {10, 4}}));
    EXPECT_EQ(runner.queue().pushes() - pushes_before, 2u);
    EXPECT_TRUE(runner.queue().empty());
    EXPECT_EQ(runner.updated().count(), 0u);  // cleared after each round
  }
}

TEST(AsyncRunner, EachRoundTracesTheQueueItLeaves) {
  // One async SSSP run: every sched_round span is followed by one
  // sched_queue instant carrying the queue's occupancy. A round's
  // frontier is exactly what it took off the queue, so the occupancy
  // round r left is the queue's size in round r + 1's body plus that
  // frontier; the last round leaves an empty queue.
  graph::Csr g = graph::generate_rmat(10, 8, 817);
  auto odg = format::make_mem_graph(g);
  core::Runtime rt(testutil::test_config());
  sched::AsyncRunner runner(rt.default_context(), odg);
  std::vector<std::uint32_t> dist(g.num_vertices(), algorithms::kInfDist);
  dist[0] = 0;
  runner.queue().push(0, 0);
  sched::Enqueue<algorithms::SsspProgram> prog{{dist}, runner.updated()};

  std::vector<std::uint64_t> round_start_size;
  trace::reset();
  trace::set_enabled(true);
  auto rs = runner.run(
      [&](const core::VertexSubset& frontier) {
        round_start_size.push_back(runner.queue().size() + frontier.count());
        core::edge_map(rt, odg, frontier, prog, {.output = false});
      },
      [&](vertex_t d) { return dist[d] >> 2; });
  trace::set_enabled(false);
  ASSERT_EQ(trace::dropped_events(), 0u);
  const auto events = trace::collect();
  trace::reset();

  // The runner emits on this thread, so the collected order is its order.
  std::vector<trace::Phase> phases;
  std::vector<std::uint64_t> occupancy;
  for (const auto& e : events) {
    if (e.name == trace::Name::kSchedRound) phases.push_back(e.phase);
    if (e.name != trace::Name::kSchedQueue) continue;
    phases.push_back(e.phase);
    occupancy.push_back(e.arg);
  }
  ASSERT_GT(rs.rounds, 1u);
  std::vector<trace::Phase> want;
  for (std::uint64_t r = 0; r < rs.rounds; ++r) {
    want.insert(want.end(), {trace::Phase::kBegin, trace::Phase::kEnd,
                             trace::Phase::kInstant});
  }
  EXPECT_EQ(phases, want);
  ASSERT_EQ(occupancy.size(), rs.rounds);
  for (std::uint64_t r = 0; r + 1 < rs.rounds; ++r) {
    EXPECT_EQ(occupancy[r], round_start_size[r + 1]) << "round " << r;
  }
  EXPECT_EQ(occupancy.back(), 0u);
  EXPECT_TRUE(runner.queue().empty());
  EXPECT_STREQ(trace::to_string(trace::Name::kSchedQueue), "sched_queue");
}

// ------------------------------------------------- faults & buffer safety

/// Out-graph behind a FaultyDevice (same shape as test_fault_tolerance).
format::OnDiskGraph faulty_graph(
    const graph::Csr& g, std::shared_ptr<FaultyDevice>* out,
    std::function<bool(std::uint64_t, std::uint64_t)> should_fail,
    FaultMode mode, std::uint64_t transient_budget = 1) {
  std::vector<std::byte> adj = format::serialize_adjacency(g);
  auto inner = std::make_shared<device::MemDevice>("m", std::move(adj));
  auto faulty = std::make_shared<FaultyDevice>(
      inner, std::move(should_fail), mode, transient_budget);
  if (out) *out = faulty;
  std::vector<std::uint32_t> degrees(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) degrees[v] = g.degree(v);
  return format::OnDiskGraph(format::GraphIndex(degrees), faulty);
}

TEST(AsyncRunner, AsyncSsspSurvivesTransientFaultsWithIdenticalResult) {
  graph::Csr g = graph::generate_rmat(10, 8, 816);
  std::shared_ptr<FaultyDevice> faulty;
  auto odg = faulty_graph(g, &faulty,
                          [](std::uint64_t, std::uint64_t) { return true; },
                          FaultMode::kTransient, /*transient_budget=*/3);
  auto clean = format::make_mem_graph(g);

  auto cfg = testutil::test_config();
  cfg.execution_mode = core::ExecutionMode::kAsync;
  core::Runtime async_rt(cfg);
  core::Runtime bsp_rt(testutil::test_config());

  auto want = algorithms::sssp(bsp_rt, clean, 1).dist;
  auto got = algorithms::sssp(async_rt, odg, 1);
  EXPECT_EQ(got.dist, want);
  EXPECT_EQ(got.stats.failed_requests, 0u);
  EXPECT_TRUE(got.stats.experienced_faults());
  EXPECT_EQ(faulty->injected_failures(), 3u);

  async_rt.io_pipeline().quiesce();
  EXPECT_EQ(async_rt.io_pool().available(), async_rt.io_pool().num_buffers());
}

TEST(AsyncRunner, PropagatedFaultLeavesPoolWholeAndRuntimeReusable) {
  // Permanent faults mid-run: the async loop must reclaim every pool
  // buffer a faulted round had in flight on the way out, and the same
  // Runtime must then run a clean async query correctly.
  graph::Csr g = graph::generate_rmat(10, 8, 817);
  std::shared_ptr<FaultyDevice> faulty;
  auto odg = faulty_graph(
      g, &faulty,
      [](std::uint64_t off, std::uint64_t len) {
        return off < 3 * kPageSize && off + len > 2 * kPageSize;
      },
      FaultMode::kPermanent);

  auto cfg = testutil::test_config();
  cfg.execution_mode = core::ExecutionMode::kAsync;
  core::Runtime rt(cfg);
  EXPECT_THROW(algorithms::sssp(rt, odg, 1), io::IoError);
  EXPECT_GE(faulty->injected_failures(), 1u);

  rt.io_pipeline().quiesce();
  EXPECT_EQ(rt.io_pool().available(), rt.io_pool().num_buffers());

  // Same runtime, clean graph: async WCC (rounds over the graph and its
  // transpose) still matches BSP.
  auto clean = format::make_mem_graph(g);
  graph::Csr gt = graph::transpose(g);
  auto clean_t = format::make_mem_graph(gt);
  core::Runtime bsp_rt(testutil::test_config());
  EXPECT_EQ(algorithms::wcc(rt, clean, clean_t).ids,
            algorithms::wcc(bsp_rt, clean, clean_t).ids);
  EXPECT_EQ(rt.io_pool().available(), rt.io_pool().num_buffers());
}

}  // namespace
}  // namespace blaze
