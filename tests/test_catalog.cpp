// serve::GraphCatalog tests: resident-graph lifecycle, the exact equal
// budget split through every open/close step, handle pinning across close
// (in-flight queries survive a concurrent close of a different graph — and
// of their own), realized per-namespace pool occupancy and its admission
// caps when budgets are enforced, and one cache counter set seen alike by
// every reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/bfs.h"
#include "core/runtime.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "metrics/metrics.h"
#include "serve/graph_catalog.h"
#include "serve/query_engine.h"
#include "test_helpers.h"

namespace blaze {
namespace {

core::Config catalog_test_config() {
  core::Config cfg = testutil::test_config();
  cfg.compute_workers = 2;
  cfg.cache_bytes = 1 << 20;  // the budget the catalog splits
  return cfg;
}

/// The invariant every lifecycle step must preserve: declared per-graph
/// budgets sum EXACTLY to cache_bytes while anything is resident, and to
/// zero when nothing is.
void expect_budget_invariant(const serve::GraphCatalog& cat,
                             const core::Config& cfg) {
  EXPECT_EQ(cat.total_cache_budget(), cat.size() == 0 ? 0 : cfg.cache_bytes);
}

TEST(Catalog, OpenCloseLifecycleKeepsBudgetSumExact) {
  const core::Config cfg = catalog_test_config();
  core::Runtime rt(cfg);
  serve::GraphCatalog cat(rt);
  expect_budget_invariant(cat, cfg);

  graph::Csr g = graph::generate_rmat(8, 8, 700);
  cat.open("a", format::make_mem_graph(g));
  EXPECT_TRUE(cat.contains("a"));
  EXPECT_EQ(cat.size(), 1u);
  EXPECT_EQ(cat.cache_budget_of("a"), cfg.cache_bytes);  // sole resident
  expect_budget_invariant(cat, cfg);

  cat.open("b", format::make_mem_graph(g));
  cat.open("c", format::make_mem_graph(g));
  EXPECT_EQ(cat.size(), 3u);
  expect_budget_invariant(cat, cfg);
  // Equal shares; the remainder byte goes to the first graph opened.
  ASSERT_EQ(cfg.cache_bytes % 3, 1u);
  EXPECT_EQ(cat.cache_budget_of("a"), cfg.cache_bytes / 3 + 1);
  EXPECT_EQ(cat.cache_budget_of("b"), cfg.cache_bytes / 3);
  EXPECT_EQ(cat.cache_budget_of("c"), cfg.cache_bytes / 3);

  // Duplicate and unknown names are typed errors, not silent misfiles. A
  // rejected duplicate registers no pool namespace.
  const std::size_t namespaces = cat.namespace_usage().size();
  ASSERT_EQ(namespaces, 3u);
  EXPECT_THROW(cat.open("a", format::make_mem_graph(g)),
               std::invalid_argument);
  EXPECT_EQ(cat.namespace_usage().size(), namespaces);
  EXPECT_THROW(cat.close("nope"), std::invalid_argument);
  EXPECT_THROW(cat.lookup("nope"), std::invalid_argument);
  EXPECT_THROW(cat.cache_budget_of("nope"), std::invalid_argument);
  expect_budget_invariant(cat, cfg);

  // Queries are tallied per graph; a name that raced a close is ignored.
  cat.note_query("c");
  cat.note_query("c");
  cat.note_query("unknown-name-raced-a-close");  // never throws
  const auto rows = cat.snapshot();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].queries, 0u);
  EXPECT_EQ(rows[2].name, "c");
  EXPECT_EQ(rows[2].queries, 2u);

  cat.close("b");
  EXPECT_FALSE(cat.contains("b"));
  EXPECT_EQ(cat.size(), 2u);
  expect_budget_invariant(cat, cfg);  // freed share moved to survivors

  // A closed name is reusable immediately.
  cat.open("b", format::make_mem_graph(g));
  EXPECT_EQ(cat.size(), 3u);
  expect_budget_invariant(cat, cfg);

  cat.close("a");
  cat.close("b");
  cat.close("c");
  EXPECT_EQ(cat.size(), 0u);
  expect_budget_invariant(cat, cfg);
}

TEST(Catalog, CloseNeverYanksStorageFromInFlightQueries) {
  const core::Config cfg = catalog_test_config();
  serve::EngineOptions opts;
  opts.max_inflight_queries = 2;
  opts.workers_per_query = 2;
  serve::QueryEngine engine(cfg, opts);
  serve::GraphCatalog cat(engine.runtime());
  engine.attach_catalog(&cat);

  graph::Csr g = graph::generate_rmat(9, 8, 702);
  const auto oracle = testutil::reference_bfs_dist(g, 0);
  cat.open("victim", format::make_mem_graph(g));
  cat.open("other", format::make_mem_graph(g));

  // A catalog query that holds its pinned graph until released, then runs
  // a real BFS through it — by which time BOTH catalog entries have been
  // closed underneath it.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  serve::QuerySpec spec;
  spec.label = "pinned-bfs";
  spec.graph = "victim";
  spec.run = [&](core::QueryContext& qc) {
    started = true;
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    auto r = algorithms::bfs(qc, *qc.graph(), 0);
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
      const bool reached = r.parent[v] != kInvalidVertex;
      EXPECT_EQ(reached, oracle[v] != ~0u) << v;
    }
    return r.stats;
  };
  auto ticket = engine.submit(spec);
  while (!started) std::this_thread::yield();

  // Close a DIFFERENT graph first (the common case), then the query's own.
  cat.close("other");
  cat.close("victim");
  EXPECT_EQ(cat.size(), 0u);
  expect_budget_invariant(cat, cfg);
  EXPECT_THROW(cat.lookup("victim"), std::invalid_argument);
  // Both entries are gone at once; the query's handle alone pins "victim".
  EXPECT_TRUE(cat.snapshot().empty());

  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  ticket->wait();
  EXPECT_EQ(ticket->state(), serve::QueryState::kDone);

  // Submitting against a closed name is the typed lookup failure.
  serve::QuerySpec stale;
  stale.label = "stale";
  stale.graph = "victim";
  stale.run = [](core::QueryContext&) { return core::QueryStats{}; };
  EXPECT_THROW(engine.submit(stale), std::invalid_argument);
  engine.drain();
}

TEST(Catalog, NamespaceUsageMeasuresRealizedOccupancy) {
  const core::Config cfg = catalog_test_config();
  serve::EngineOptions opts;
  opts.max_inflight_queries = 2;
  opts.workers_per_query = 2;
  serve::QueryEngine engine(cfg, opts);
  serve::GraphCatalog cat(engine.runtime());
  engine.attach_catalog(&cat);

  graph::Csr g = graph::generate_rmat(9, 8, 703);
  cat.open("left", format::make_mem_graph(g));
  cat.open("right", format::make_mem_graph(g));

  auto run_bfs = [&](const std::string& graph) {
    serve::QuerySpec spec;
    spec.label = "bfs-" + graph;
    spec.graph = graph;
    spec.run = [](core::QueryContext& qc) {
      return algorithms::bfs(qc, *qc.graph(), 0).stats;
    };
    return engine.submit(spec);
  };
  auto t1 = run_bfs("left");
  auto t2 = run_bfs("right");
  t1->wait();
  t2->wait();
  ASSERT_EQ(t1->state(), serve::QueryState::kDone);
  ASSERT_EQ(t2->state(), serve::QueryState::kDone);

  // Both namespaces faulted pages into the shared pool; the realized
  // figures surface per graph, and the snapshot joins them by namespace.
  std::uint64_t left_pages = 0, right_pages = 0;
  for (const auto& u : cat.namespace_usage()) {
    if (u.name == "graph/left") left_pages = u.resident_pages;
    if (u.name == "graph/right") right_pages = u.resident_pages;
  }
  EXPECT_GT(left_pages, 0u);
  EXPECT_GT(right_pages, 0u);
  for (const auto& row : cat.snapshot()) {
    EXPECT_GT(row.resident_bytes, 0u) << row.name;
    // The graph's namespace counters show its traffic.
    EXPECT_GT(row.cache.hits + row.cache.misses, 0u) << row.name;
  }
  engine.drain();
}

TEST(Catalog, EnforcedEqualBudgetsCapOccupancy) {
  // With enforcement on, each equal budget is its graph's admission cap in
  // the pool. Both graphs run BFS, each touching more pages than its cap.
  // Every graph's realized occupancy must stay within its budget, plus
  // set_namespace_cap's round-up of under one page per shard, and the
  // budgets must still sum exactly.
  core::Config cfg = catalog_test_config();
  cfg.catalog_enforce_budgets = true;
  serve::QueryEngine engine(cfg);
  serve::GraphCatalog cat(engine.runtime());
  engine.attach_catalog(&cat);

  // 2^12 vertices x 64 edges x 4 B: 256 pages of adjacency per graph,
  // against a 256-page pool.
  graph::Csr g = graph::generate_rmat(12, 64, 704);
  cat.open("left", format::make_mem_graph(g));
  cat.open("right", format::make_mem_graph(g));
  expect_budget_invariant(cat, cfg);
  EXPECT_EQ(cat.cache_budget_of("left"), cfg.cache_bytes / 2);

  auto bfs_on = [&](const std::string& graph) {
    serve::QuerySpec spec;
    spec.label = "bfs-" + graph;
    spec.graph = graph;
    spec.run = [](core::QueryContext& qc) {
      return algorithms::bfs(qc, *qc.graph(), 0).stats;
    };
    auto t = engine.submit(spec);
    t->wait();
    ASSERT_EQ(t->state(), serve::QueryState::kDone) << graph;
  };
  for (int i = 0; i < 2; ++i) {
    bfs_on("left");
    bfs_on("right");
  }

  const auto& pool = engine.runtime().page_cache();
  ASSERT_NE(pool, nullptr);
  const std::uint64_t shards = pool->shard_count();
  // A cap in pages, rounded up to a whole page per shard.
  auto page_bound = [shards](std::uint64_t budget) {
    const std::uint64_t cap_pages =
        std::max<std::uint64_t>(1, budget / kPageSize);
    return (cap_pages + shards - 1) / shards * shards;
  };
  std::size_t checked = 0;
  for (const auto& u : cat.namespace_usage()) {
    const std::string name = u.name.substr(u.name.find('/') + 1);
    const std::uint64_t bound = page_bound(cat.cache_budget_of(name));
    EXPECT_GT(u.resident_pages, 0u) << name;
    EXPECT_LE(u.resident_pages, bound) << name;
    // The cap binds: the graph read more pages than it may keep.
    EXPECT_GT(u.cache.misses, bound) << name;
    ++checked;
  }
  EXPECT_EQ(checked, 2u);
  expect_budget_invariant(cat, cfg);

  // Closing "right" lifts its cap and hands "left" the whole pool as its
  // new cap, so "left" grows past its old half.
  const std::uint64_t half_bound = page_bound(cfg.cache_bytes / 2);
  cat.close("right");
  EXPECT_EQ(cat.cache_budget_of("left"), cfg.cache_bytes);
  bfs_on("left");
  bfs_on("left");
  engine.drain();
  for (const auto& u : cat.namespace_usage()) {
    if (u.name == "graph/left") {
      EXPECT_GT(u.resident_pages, half_bound);
    }
  }
}

// ------------------------------------------------ counter reconciliation

/// Compares the four counted fields (evictions are a pool-wide property,
/// checked separately).
void expect_same_counts(const device::CacheCounters& got,
                        const device::CacheCounters& want,
                        const std::string& what) {
  EXPECT_EQ(got.hits, want.hits) << what;
  EXPECT_EQ(got.misses, want.misses) << what;
  EXPECT_EQ(got.dedup_hits, want.dedup_hits) << what;
  EXPECT_EQ(got.ghost_hits, want.ghost_hits) << what;
}

TEST(CatalogReconciliation, EveryReaderSeesThePoolCounters) {
  // One counter per event: the pool's per-namespace blocks are the only
  // cache counters, so the namespace rows, the catalog rows, the engine
  // stats and the metrics scrape must all agree with the pool total —
  // including the history of a graph closed mid-run.
  core::Config cfg = catalog_test_config();
  cfg.metrics_enabled = true;
  cfg.cache_bytes = 128 << 10;  // 32 pages: both graphs overflow it
  serve::EngineOptions opts;
  opts.max_inflight_queries = 2;
  opts.workers_per_query = 2;
  serve::QueryEngine engine(cfg, opts);
  serve::GraphCatalog cat(engine.runtime());
  engine.attach_catalog(&cat);
  const auto& pool = engine.runtime().page_cache();
  ASSERT_NE(pool, nullptr);
  engine.observe_cache(pool.get());

  cat.open("kept", format::make_mem_graph(graph::generate_rmat(12, 16, 711)));
  cat.open("closed",
           format::make_mem_graph(graph::generate_rmat(12, 16, 712)));
  auto bfs_on = [&](const std::string& graph) {
    serve::QuerySpec spec;
    spec.label = "bfs-" + graph;
    spec.graph = graph;
    spec.run = [](core::QueryContext& qc) {
      return algorithms::bfs(qc, *qc.graph(), 0).stats;
    };
    return engine.submit(spec);
  };
  std::vector<std::shared_ptr<serve::QueryTicket>> tickets;
  // The one catalog gauge: resident graphs, summed over every scrape row.
  auto scraped_graphs = [] {
    double graphs = 0;
    for (const auto& r : metrics::Registry::instance().snapshot()) {
      if (r.name == "blaze_catalog_graphs") graphs += r.value;
    }
    return graphs;
  };
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(bfs_on("kept"));
    tickets.push_back(bfs_on("closed"));
  }
  EXPECT_EQ(scraped_graphs(), 2.0);
  cat.close("closed");  // its admitted queries keep running on the handle
  EXPECT_EQ(scraped_graphs(), 1.0);
  for (int i = 0; i < 3; ++i) tickets.push_back(bfs_on("kept"));
  for (auto& t : tickets) t->wait();
  for (auto& t : tickets) ASSERT_EQ(t->state(), serve::QueryState::kDone);
  engine.drain();

  const device::CacheCounters total = pool->cache_counters();
  EXPECT_GT(total.hits, 0u);
  EXPECT_GT(total.misses, 0u);
  EXPECT_GT(total.evictions, 0u);

  // Namespace rows sum to the pool total; the closed graph is still there.
  const auto usage = pool->namespace_usage();
  ASSERT_EQ(usage.size(), 2u);
  device::CacheCounters sum;
  for (const auto& u : usage) {
    EXPECT_GT(u.cache.hits + u.cache.misses, 0u) << u.name;
    EXPECT_EQ(u.cache.evictions, 0u) << u.name;
    sum.hits += u.cache.hits;
    sum.misses += u.cache.misses;
    sum.dedup_hits += u.cache.dedup_hits;
    sum.ghost_hits += u.cache.ghost_hits;
  }
  expect_same_counts(sum, total, "namespace rows vs pool");

  // Each catalog row is its namespace's row.
  const auto rows = cat.snapshot();
  ASSERT_EQ(rows.size(), 1u);
  for (const auto& row : rows) {
    for (const auto& u : usage) {
      if (u.name == "graph/" + row.name) {
        expect_same_counts(row.cache, u.cache, row.name);
      }
    }
  }

  // The engine reports the pool, every field.
  const device::CacheCounters engine_cache = engine.stats().cache;
  expect_same_counts(engine_cache, total, "engine vs pool");
  EXPECT_EQ(engine_cache.evictions, total.evictions);

  // The scrape counts every access once.
  double scraped_hits = 0, scraped_misses = 0;
  for (const auto& r : metrics::Registry::instance().snapshot()) {
    if (r.name == "blaze_cache_hits_total") scraped_hits += r.value;
    if (r.name == "blaze_cache_misses_total") scraped_misses += r.value;
  }
  EXPECT_EQ(scraped_hits, static_cast<double>(total.hits));
  EXPECT_EQ(scraped_misses, static_cast<double>(total.misses));
}

}  // namespace
}  // namespace blaze
