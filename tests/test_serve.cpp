// Serving-layer tests: concurrent queries over one shared Runtime produce
// the same answers as sequential execution, admission control rejects with
// typed errors, drain completes everything admitted, and the shared page
// cache beats isolated per-query Runtimes on repeated workloads.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "core/runtime.h"
#include "device/cached_device.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "serve/query_engine.h"
#include "test_helpers.h"

namespace blaze {
namespace {

/// Depth of v in the BFS parent tree. A correct BFS sets parent[v] from the
/// previous frontier, so tree depth == hop distance even though the parent
/// *identity* depends on scatter order — this is the order-independent way
/// to compare two BFS runs.
std::vector<std::uint32_t> tree_depths(const std::vector<vertex_t>& parent,
                                       vertex_t source) {
  std::vector<std::uint32_t> depth(parent.size(), ~0u);
  depth[source] = 0;
  for (vertex_t v = 0; v < parent.size(); ++v) {
    if (parent[v] == kInvalidVertex || depth[v] != ~0u) continue;
    // Walk up to a resolved ancestor, then unwind.
    std::vector<vertex_t> chain;
    vertex_t u = v;
    while (depth[u] == ~0u) {
      chain.push_back(u);
      u = parent[u];
    }
    std::uint32_t d = depth[u];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      depth[*it] = ++d;
    }
  }
  return depth;
}

core::Config serve_test_config() {
  core::Config cfg = testutil::test_config();
  cfg.compute_workers = 2;  // one-core testbed: keep per-session pools lean
  return cfg;
}

TEST(Serve, ConcurrentQueriesMatchSequential) {
  graph::Csr g = graph::generate_rmat(10, 8, 900);
  graph::Csr gt = graph::transpose(g);
  auto out_g = format::make_mem_graph(g);
  auto in_g = format::make_mem_graph(gt);

  // Sequential baselines on a plain Runtime.
  core::Runtime rt(serve_test_config());
  auto seq_bfs = algorithms::bfs(rt, out_g, 0);
  auto seq_pr = algorithms::pagerank(rt, out_g);
  auto seq_kcore = algorithms::kcore(rt, out_g, in_g);

  serve::EngineOptions opts;
  opts.max_inflight_queries = 3;
  opts.workers_per_query = 2;
  serve::QueryEngine engine(serve_test_config(), opts);

  // Two rounds of all three algorithms in flight at once.
  std::vector<std::shared_ptr<serve::QueryTicket>> tickets;
  std::vector<algorithms::BfsResult> bfs_results(2);
  std::vector<algorithms::PageRankResult> pr_results(2);
  std::vector<algorithms::KcoreResult> kcore_results(2);
  for (int round = 0; round < 2; ++round) {
    tickets.push_back(engine.submit(
        {[&, round](core::QueryContext& qc) {
           bfs_results[round] = algorithms::bfs(qc, out_g, 0);
           return bfs_results[round].stats;
         },
         "bfs"}));
    tickets.push_back(engine.submit(
        {[&, round](core::QueryContext& qc) {
           pr_results[round] = algorithms::pagerank(qc, out_g);
           return pr_results[round].stats;
         },
         "pagerank"}));
    tickets.push_back(engine.submit(
        {[&, round](core::QueryContext& qc) {
           kcore_results[round] = algorithms::kcore(qc, out_g, in_g);
           return kcore_results[round].stats;
         },
         "kcore"}));
  }
  for (auto& t : tickets) t->wait();
  for (auto& t : tickets) {
    EXPECT_EQ(t->state(), serve::QueryState::kDone) << t->label();
  }

  const auto seq_depth = tree_depths(seq_bfs.parent, 0);
  for (int round = 0; round < 2; ++round) {
    // BFS: identical hop distances (parent identity is tie-broken by
    // scatter order, but depths are invariant).
    EXPECT_EQ(tree_depths(bfs_results[round].parent, 0), seq_depth);
    // k-core peeling is deterministic: coreness must match exactly.
    EXPECT_EQ(kcore_results[round].coreness, seq_kcore.coreness);
    EXPECT_EQ(kcore_results[round].max_core, seq_kcore.max_core);
    // PageRank sums floats in scatter order; tolerance, not bit-equality.
    ASSERT_EQ(pr_results[round].rank.size(), seq_pr.rank.size());
    for (std::size_t v = 0; v < seq_pr.rank.size(); ++v) {
      EXPECT_NEAR(pr_results[round].rank[v], seq_pr.rank[v], 1e-4f) << v;
    }
  }

  auto stats = engine.stats();
  EXPECT_EQ(stats.admitted, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.aggregate.edge_map_calls, 0u);
  EXPECT_EQ(stats.latency_us.count(), 6u);
  EXPECT_GE(stats.p95_ms(), stats.p50_ms());
}

TEST(Serve, AdmissionControlRejectsOverloadTyped) {
  serve::EngineOptions opts;
  opts.max_inflight_queries = 1;
  opts.max_queue_depth = 2;
  opts.workers_per_query = 1;
  serve::QueryEngine engine(serve_test_config(), opts);

  // Block the only session so queued work piles up deterministically.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};
  auto blocker = [&](core::QueryContext&) {
    started = true;
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
    ++ran;
    return core::QueryStats{};
  };
  auto quick = [&](core::QueryContext&) {
    ++ran;
    return core::QueryStats{};
  };

  auto t1 = engine.submit({blocker, "blocker"});
  // Wait until the session actually picked it up, so the queue is empty.
  while (!started) std::this_thread::yield();
  auto t2 = engine.submit({quick, "q1"});
  auto t3 = engine.submit({quick, "q2"});
  bool rejected = false;
  try {
    engine.submit({quick, "q3"});  // queue depth 2 exceeded
  } catch (const serve::ServeError& e) {
    rejected = true;
    EXPECT_EQ(e.kind(), serve::RejectKind::kOverloaded);
    EXPECT_TRUE(e.retryable());
  }
  EXPECT_TRUE(rejected);

  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  // Drain must complete every admitted query, then reject new ones as
  // shutting down (not retryable).
  engine.drain();
  EXPECT_EQ(t1->state(), serve::QueryState::kDone);
  EXPECT_EQ(t2->state(), serve::QueryState::kDone);
  EXPECT_EQ(t3->state(), serve::QueryState::kDone);
  EXPECT_EQ(ran.load(), 3);
  bool shut = false;
  try {
    engine.submit({quick, "late"});
  } catch (const serve::ServeError& e) {
    shut = true;
    EXPECT_EQ(e.kind(), serve::RejectKind::kShuttingDown);
    EXPECT_FALSE(e.retryable());
  }
  EXPECT_TRUE(shut);

  auto stats = engine.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected, 2u);
}

TEST(Serve, QueuedQueriesRunInSubmissionOrder) {
  serve::EngineOptions opts;
  opts.max_inflight_queries = 1;
  opts.max_queue_depth = 8;
  opts.workers_per_query = 1;
  serve::QueryEngine engine(serve_test_config(), opts);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  auto blocker = [&](core::QueryContext&) {
    started = true;
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
    return core::QueryStats{};
  };
  std::vector<std::string> order;
  std::mutex order_mu;
  auto tagged = [&](const char* tag) {
    return [&, tag](core::QueryContext&) {
      std::lock_guard lock(order_mu);
      order.emplace_back(tag);
      return core::QueryStats{};
    };
  };

  auto tb = engine.submit({blocker, "blocker"});
  while (!started) std::this_thread::yield();
  // Both queue behind the blocker, which holds the only session.
  auto tf = engine.submit({tagged("first"), "first"});
  auto ts = engine.submit({tagged("second"), "second"});
  EXPECT_EQ(tf->state(), serve::QueryState::kQueued);
  EXPECT_EQ(ts->state(), serve::QueryState::kQueued);
  EXPECT_EQ(tf->label(), "first");
  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  engine.drain();

  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "first");
  EXPECT_EQ(order[1], "second");
  EXPECT_EQ(tb->state(), serve::QueryState::kDone);
  EXPECT_EQ(tf->state(), serve::QueryState::kDone);
  EXPECT_EQ(ts->state(), serve::QueryState::kDone);
  EXPECT_EQ(engine.stats().completed, 3u);
}

TEST(Serve, QueryStateNames) {
  // blaze-run's slow-query table prints these.
  EXPECT_STREQ(serve::to_string(serve::QueryState::kQueued), "queued");
  EXPECT_STREQ(serve::to_string(serve::QueryState::kRunning), "running");
  EXPECT_STREQ(serve::to_string(serve::QueryState::kDone), "done");
  EXPECT_STREQ(serve::to_string(serve::QueryState::kFailed), "failed");
}

TEST(Serve, ZeroSessionsIsRejected) {
  // No session thread would ever run an admitted query, so every
  // ticket->wait() would block forever: refuse to build such an engine.
  serve::EngineOptions opts;
  opts.max_inflight_queries = 0;
  EXPECT_THROW(serve::QueryEngine(serve_test_config(), opts),
               std::invalid_argument);
}

TEST(Serve, FailedQueryIsIsolatedAndReported) {
  serve::EngineOptions opts;
  opts.max_inflight_queries = 2;
  opts.workers_per_query = 1;
  serve::QueryEngine engine(serve_test_config(), opts);
  auto bad = engine.submit({[](core::QueryContext&) -> core::QueryStats {
                              throw std::runtime_error("algorithm blew up");
                            },
                            "bad"});
  auto good = engine.submit({[](core::QueryContext&) {
                               return core::QueryStats{};
                             },
                             "good"});
  bad->wait();
  good->wait();
  EXPECT_EQ(bad->state(), serve::QueryState::kFailed);
  EXPECT_NE(bad->error(), nullptr);
  EXPECT_EQ(good->state(), serve::QueryState::kDone);
  auto stats = engine.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(Serve, SharedCacheBeatsIsolatedRuntimes) {
  // The FlashGraph argument for serving from ONE runtime: N queries over a
  // shared page cache fault each graph page once, while N isolated
  // Runtimes with private caches fault it N times.
  graph::Csr g = graph::generate_rmat(10, 8, 902);
  const int kQueries = 3;

  // Isolated: each query gets its own device stack + cache + Runtime.
  std::uint64_t isolated_misses = 0;
  for (int i = 0; i < kQueries; ++i) {
    auto base = format::make_mem_graph(g);
    auto cached = std::make_shared<device::CachedDevice>(
        base.device_ptr(), base.input_bytes() * 2,
        device::EvictionPolicy::kLru);
    format::OnDiskGraph og(format::GraphIndex(base.index()), cached);
    core::Runtime rt(serve_test_config());
    auto r = algorithms::bfs(rt, og, 0);
    (void)r;
    isolated_misses += cached->cache_counters().misses;
  }

  // Shared: one engine, one cache, same three queries concurrently.
  auto base = format::make_mem_graph(g);
  auto cached = std::make_shared<device::CachedDevice>(
      base.device_ptr(), base.input_bytes() * 2,
      device::EvictionPolicy::kLru);
  format::OnDiskGraph og(format::GraphIndex(base.index()), cached);
  serve::EngineOptions opts;
  opts.max_inflight_queries = kQueries;
  opts.workers_per_query = 2;
  serve::QueryEngine engine(serve_test_config(), opts);
  engine.observe_cache(cached->pool().get());
  std::vector<std::shared_ptr<serve::QueryTicket>> tickets;
  for (int i = 0; i < kQueries; ++i) {
    tickets.push_back(engine.submit({[&](core::QueryContext& qc) {
                                       return algorithms::bfs(qc, og, 0)
                                           .stats;
                                     },
                                     "bfs"}));
  }
  for (auto& t : tickets) t->wait();
  for (auto& t : tickets) ASSERT_EQ(t->state(), serve::QueryState::kDone);

  auto stats = engine.stats();
  EXPECT_EQ(stats.cache.hits, cached->cache_counters().hits);
  EXPECT_LT(stats.cache.misses, isolated_misses);
  EXPECT_GT(stats.cache.hit_rate(), 0.0);
}

}  // namespace
}  // namespace blaze
