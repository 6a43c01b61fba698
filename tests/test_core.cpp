// Core engine tests: VertexSubset, online binning invariants, and the
// out-of-core EdgeMap checked against an in-memory oracle across a
// parameter sweep (threads x bins x devices x sync mode).
#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "core/bins.h"
#include "core/edge_map.h"
#include "core/runtime.h"
#include "core/vertex_subset.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace blaze::core {
namespace {

// ------------------------------------------------------------- VertexSubset

TEST(VertexSubset, BasicMembership) {
  VertexSubset s(100);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.add(5));
  EXPECT_FALSE(s.add(5));
  EXPECT_TRUE(s.add(99));
  EXPECT_EQ(s.count(), 2u);
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(6));
}

TEST(VertexSubset, FactoryHelpers) {
  auto all = VertexSubset::all(50);
  EXPECT_EQ(all.count(), 50u);
  auto single = VertexSubset::single(50, 7);
  EXPECT_EQ(single.count(), 1u);
  EXPECT_TRUE(single.contains(7));
}

TEST(VertexSubset, SparseAndDenseIterationAgree) {
  // Sparse case (< 1/20 of universe) and dense case must visit the same
  // members through both code paths.
  for (std::size_t members : {3u, 800u}) {
    VertexSubset s(1000);
    std::vector<vertex_t> want;
    for (std::size_t i = 0; i < members; ++i) {
      auto v = static_cast<vertex_t>((i * 7919) % 1000);
      if (s.add(v)) want.push_back(v);
    }
    std::sort(want.begin(), want.end());
    std::vector<vertex_t> seq;
    s.for_each([&](vertex_t v) { seq.push_back(v); });
    EXPECT_EQ(seq, want);

    ThreadPool pool(3);
    std::vector<vertex_t> par;
    Spinlock mu;
    s.for_each_parallel(pool, [&](vertex_t v) {
      std::lock_guard lock(mu);
      par.push_back(v);
    });
    std::sort(par.begin(), par.end());
    EXPECT_EQ(par, want);
  }
}

TEST(VertexSubset, SparseViewInvalidatedByAdd) {
  VertexSubset s(100);
  s.add(1);
  EXPECT_EQ(s.sparse_view().size(), 1u);
  s.add(2);
  EXPECT_EQ(s.sparse_view().size(), 2u);  // rebuilt, not stale
}

TEST(VertexSubset, ConcurrentAddsCountExactly) {
  VertexSubset s(10000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      // All threads add the same members: the count must dedupe.
      for (vertex_t v = 0; v < 10000; v += 2) s.add(v);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(s.count(), 5000u);
}

TEST(VertexSubset, AllFillsExactlyTheUniverse) {
  ThreadPool pool(3);
  for (vertex_t n : {0u, 1u, 63u, 64u, 65u, 1000u}) {
    SCOPED_TRACE(n);
    VertexSubset s = VertexSubset::all(n);
    EXPECT_EQ(s.count(), n);
    std::vector<vertex_t> want(n);
    std::iota(want.begin(), want.end(), 0u);
    std::vector<vertex_t> seq;
    s.for_each([&](vertex_t v) { seq.push_back(v); });
    EXPECT_EQ(seq, want);
    std::vector<vertex_t> par;
    Spinlock mu;
    s.for_each_parallel(pool, [&](vertex_t v) {
      std::lock_guard lock(mu);
      par.push_back(v);
    });
    std::sort(par.begin(), par.end());
    EXPECT_EQ(par, want);
    // No tail bits past the universe: the popcount agrees with n.
    std::size_t bits = 0;
    for (std::size_t k = 0; k < s.word_count(); ++k) {
      bits += static_cast<std::size_t>(__builtin_popcountll(s.word(k)));
    }
    EXPECT_EQ(bits, n);
  }
}

TEST(VertexSubset, CloneCopiesMembersAndCount) {
  VertexSubset s(130);
  for (vertex_t v : {0u, 63u, 64u, 129u}) s.add(v);
  VertexSubset c = s.clone();
  EXPECT_EQ(c.count(), 4u);
  EXPECT_EQ(c.sparse_view(), s.sparse_view());
  c.add(5);
  EXPECT_EQ(c.count(), 5u);
  EXPECT_EQ(s.count(), 4u);
}

TEST(VertexSubset, AddAfterCountInvalidatesCachedCount) {
  VertexSubset t(100);
  EXPECT_EQ(t.count(), 0u);
  t.add(3);
  EXPECT_EQ(t.count(), 1u);  // cached now
  t.add(3);                  // already a member: count unchanged
  EXPECT_EQ(t.count(), 1u);
  t.add(77);
  EXPECT_EQ(t.count(), 2u);
  EXPECT_FALSE(t.empty());
}

TEST(VertexSubset, MovedFromIsEmptyOverUniverseZero) {
  VertexSubset a = VertexSubset::all(200);
  VertexSubset b(std::move(a));
  EXPECT_EQ(b.count(), 200u);
  EXPECT_EQ(a.universe(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.count(), 0u);
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a.sparse_view().empty());

  VertexSubset c = VertexSubset::single(50, 7);
  c = std::move(b);
  EXPECT_EQ(c.universe(), 200u);
  EXPECT_EQ(c.count(), 200u);
  EXPECT_EQ(b.universe(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.count(), 0u);

  // A moved-from subset is reusable once assigned.
  a = VertexSubset::single(10, 4);
  EXPECT_TRUE(a.contains(4));
  EXPECT_EQ(a.count(), 1u);
}

// --------------------------------------------------------------------- Bins

TEST(Bins, RecordsDeliveredExactlyOnceSingleThread) {
  BinSet bins(16, 16 * 2 * 64 * sizeof(BinRecord));
  auto help = [&] {
    if (auto ref = bins.pop_full()) bins.complete(ref.value());
  };
  // This test drains manually instead: no help needed if we gather inline.
  std::vector<std::uint32_t> seen(1000, 0);
  auto drain = [&] {
    while (auto ref = bins.pop_full()) {
      for (const BinRecord& r : bins.records(*ref)) {
        seen[r.dst] += r.value;
      }
      bins.complete(*ref);
    }
  };
  (void)help;
  ScatterBuffer sbuf(bins.bin_count());
  for (vertex_t d = 0; d < 1000; ++d) {
    sbuf.append(bins, d, 1, drain);
    sbuf.append(bins, d, 2, drain);
  }
  sbuf.flush_all(bins, drain);
  ASSERT_TRUE(bins.scatter_done(1));
  bins.seal(drain);
  drain();
  EXPECT_TRUE(bins.drained());
  for (vertex_t d = 0; d < 1000; ++d) EXPECT_EQ(seen[d], 3u) << d;
}

TEST(Bins, ConcurrentScatterGatherStress) {
  // 3 scatter + 2 gather threads push 300k records through tiny bins; every
  // record must arrive exactly once and no two gathers may process one bin
  // concurrently (checked via per-bin owner flags).
  constexpr std::size_t kScatter = 3, kGather = 2;
  constexpr std::uint32_t kPerThread = 100000;
  constexpr std::size_t kBins = 8;
  BinSet bins(kBins, kBins * 2 * 32 * sizeof(BinRecord));  // tiny buffers

  std::vector<std::atomic<std::uint32_t>> sums(977);
  std::vector<std::atomic<int>> bin_owner_depth(kBins);
  std::atomic<bool> overlap{false};

  auto gather_one = [&] {
    if (auto ref = bins.pop_full()) {
      int depth = bin_owner_depth[ref->bin_id].fetch_add(1);
      if (depth != 0) overlap.store(true);
      for (const BinRecord& r : bins.records(*ref)) {
        sums[r.dst].fetch_add(r.value, std::memory_order_relaxed);
      }
      bin_owner_depth[ref->bin_id].fetch_sub(1);
      bins.complete(*ref);
    } else {
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kScatter; ++t) {
    threads.emplace_back([&, t] {
      ScatterBuffer sbuf(kBins);
      Xoshiro256 rng(t + 1);
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        auto dst = static_cast<vertex_t>(rng.next_below(sums.size()));
        sbuf.append(bins, dst, 1, gather_one);
      }
      sbuf.flush_all(bins, gather_one);
      if (bins.scatter_done(kScatter)) bins.seal(gather_one);
      while (!bins.drained()) gather_one();
    });
  }
  for (std::size_t t = 0; t < kGather; ++t) {
    threads.emplace_back([&] {
      while (!bins.drained()) gather_one();
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t total = 0;
  for (auto& s : sums) total += s.load();
  EXPECT_EQ(total, kScatter * kPerThread);
  EXPECT_FALSE(overlap.load()) << "two gathers processed one bin at once";
}

TEST(Bins, ResetAllowsReuse) {
  BinSet bins(4, 4 * 2 * 16 * sizeof(BinRecord));
  auto noop = [] {};
  for (int round = 0; round < 3; ++round) {
    bins.reset();
    ScatterBuffer sbuf(4);
    std::uint32_t got = 0;
    auto drain = [&] {
      while (auto ref = bins.pop_full()) {
        got += static_cast<std::uint32_t>(bins.records(*ref).size());
        bins.complete(*ref);
      }
    };
    for (vertex_t d = 0; d < 100; ++d) sbuf.append(bins, d, d, drain);
    sbuf.flush_all(bins, drain);
    ASSERT_TRUE(bins.scatter_done(1));
    bins.seal(drain);
    drain();
    EXPECT_EQ(got, 100u);
  }
  (void)noop;
}

TEST(Bins, BinOfIsStable) {
  for (vertex_t d = 0; d < 1000; ++d) {
    EXPECT_EQ(BinSet::bin_of(d, 64), d % 64);
  }
}

// ----------------------------------------------- EdgeMap vs in-memory oracle

/// Oracle: sum of hash-mixed contributions per destination, over frontier
/// out-edges whose destination passes cond.
struct SumProgram {
  using value_type = std::uint32_t;
  std::vector<std::uint32_t>& acc;

  static std::uint32_t contribution(vertex_t s, vertex_t d) {
    return static_cast<std::uint32_t>(hash64(s * 1000003ull + d) & 0xffff);
  }
  value_type scatter(vertex_t s, vertex_t d) const {
    return contribution(s, d);
  }
  bool cond(vertex_t d) const { return d % 5 != 0; }  // selective
  bool gather(vertex_t d, value_type v) {
    acc[d] += v;
    return (acc[d] & 1) != 0;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    std::atomic_ref<std::uint32_t> ref(acc[d]);
    return (ref.fetch_add(v, std::memory_order_relaxed) + v) & 1;
  }
};

struct EngineParams {
  std::size_t workers;
  std::size_t bin_count;
  std::size_t devices;
  bool sync_mode;
};

class EdgeMapSweep : public ::testing::TestWithParam<EngineParams> {};

TEST_P(EdgeMapSweep, MatchesOracleAccumulation) {
  const EngineParams p = GetParam();
  graph::Csr g = graph::generate_rmat(10, 8, 500);
  auto odg = format::make_mem_graph(g, p.devices);

  Config cfg;
  cfg.compute_workers = p.workers;
  cfg.bin_count = p.bin_count;
  cfg.bin_space_bytes = 256 * 1024;  // small: forces buffer rotation
  cfg.io_buffer_bytes = 1 << 20;
  cfg.sync_mode = p.sync_mode;
  Runtime rt(cfg);

  // Frontier: every 4th vertex.
  VertexSubset frontier(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); v += 4) frontier.add(v);

  std::vector<std::uint32_t> acc(g.num_vertices(), 0);
  SumProgram prog{acc};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  VertexSubset out = edge_map(rt, odg, frontier, prog, opts);

  // Oracle.
  std::vector<std::uint32_t> want(g.num_vertices(), 0);
  std::uint64_t want_edges = 0;
  for (vertex_t v = 0; v < g.num_vertices(); v += 4) {
    for (vertex_t d : g.neighbors(v)) {
      ++want_edges;
      if (d % 5 != 0) want[d] += SumProgram::contribution(v, d);
    }
  }
  EXPECT_EQ(acc, want);
  EXPECT_EQ(stats.edges_scattered, want_edges);

  // Output frontier: exactly the destinations whose final parity is odd...
  // parity of intermediate sums can flip, so check a weaker invariant: all
  // out members received contributions.
  out.for_each([&](vertex_t v) { EXPECT_GT(want[v], 0u) << v; });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EdgeMapSweep,
    ::testing::Values(EngineParams{1, 64, 1, false},
                      EngineParams{2, 64, 1, false},
                      EngineParams{4, 16, 1, false},
                      EngineParams{4, 1024, 1, false},
                      EngineParams{3, 64, 4, false},
                      EngineParams{6, 7, 2, false},
                      EngineParams{4, 64, 1, true},
                      EngineParams{2, 64, 3, true}),
    [](const auto& info) {
      const EngineParams& p = info.param;
      return "w" + std::to_string(p.workers) + "_b" +
             std::to_string(p.bin_count) + "_d" +
             std::to_string(p.devices) + (p.sync_mode ? "_sync" : "_bin");
    });

TEST(EdgeMap, EmptyFrontierShortCircuits) {
  graph::Csr g = graph::generate_rmat(8, 4, 501);
  auto odg = format::make_mem_graph(g);
  Runtime rt(testutil::test_config());
  std::vector<std::uint32_t> acc(g.num_vertices(), 0);
  SumProgram prog{acc};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  VertexSubset out = edge_map(rt, odg, VertexSubset(g.num_vertices()), prog,
                              opts);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.bytes_read, 0u);
}

TEST(EdgeMap, StatsAccounting) {
  graph::Csr g = graph::generate_rmat(10, 8, 502);
  auto odg = format::make_mem_graph(g);
  Runtime rt(testutil::test_config());
  std::vector<std::uint32_t> acc(g.num_vertices(), 0);
  SumProgram prog{acc};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, opts);
  // Full frontier: every adjacency page is read exactly once.
  EXPECT_EQ(stats.pages_read, odg.num_pages());
  EXPECT_EQ(stats.bytes_read, odg.num_pages() * kPageSize);
  EXPECT_EQ(stats.edges_scattered, g.num_edges());
  // Binned records = edges passing cond.
  std::uint64_t want_records = 0;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    for (vertex_t d : g.neighbors(v)) want_records += d % 5 != 0;
  }
  EXPECT_EQ(stats.records_binned, want_records);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST(VertexMap, FiltersMembers) {
  Runtime rt(testutil::test_config());
  VertexSubset in = VertexSubset::all(100);
  QueryStats stats;
  VertexSubset out = vertex_map(
      rt.default_context(), in, [](vertex_t v) { return v % 3 == 0; },
      &stats);
  EXPECT_EQ(out.count(), 34u);  // 0,3,...,99
  EXPECT_TRUE(out.contains(99));
  EXPECT_FALSE(out.contains(1));
  EXPECT_EQ(stats.vertex_map_calls, 1u);
}

TEST(VertexMap, MatchesSequentialFilterOnRandomPredicates) {
  // Universes that are not multiples of 64, dense and sparse inputs; the
  // dense path builds whole words, the sparse path adds members.
  ThreadPool pool(3);
  Xoshiro256 rng(42);
  for (vertex_t n : {1u, 63u, 65u, 1000u, 4097u, 70001u}) {
    for (double in_frac : {1.0, 0.5, 0.01}) {
      VertexSubset in(n);
      for (vertex_t v = 0; v < n; ++v) {
        if (rng.next_double() < in_frac) in.add(v);
      }
      const std::uint64_t salt = rng.next();
      auto keep = [&](vertex_t v) { return (hash64(v ^ salt) & 3) != 0; };
      std::vector<vertex_t> want;
      in.for_each([&](vertex_t v) {
        if (keep(v)) want.push_back(v);
      });
      QueryStats stats;
      VertexSubset out = vertex_map(pool, in, keep, &stats);
      EXPECT_EQ(out.universe(), n);
      EXPECT_EQ(out.count(), want.size()) << n << " " << in_frac;
      std::vector<vertex_t> got;
      out.for_each([&](vertex_t v) { got.push_back(v); });
      EXPECT_EQ(got, want) << n << " " << in_frac;
      EXPECT_EQ(stats.vertex_map_calls, 1u);
    }
  }
}

}  // namespace
}  // namespace blaze::core
