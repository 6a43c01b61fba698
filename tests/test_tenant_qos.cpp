// Tenant QoS tests: property-style DRR fairness over seeded random
// arrival schedules (served shares converge to weight ratios), the
// one-round latency bound for a starved single-query tenant, typed
// kQuotaExceeded admission, and the engine-level per-tenant accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "serve/graph_catalog.h"
#include "serve/query_engine.h"
#include "serve/tenant_sched.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace blaze {
namespace {

using serve::TenantOptions;
using serve::TenantScheduler;

TEST(TenantSched, SingleTenantIsFifo) {
  // The degenerate case is one plain FIFO: ids pop in push order.
  TenantScheduler sched;
  EXPECT_EQ(sched.push("", 3), TenantScheduler::Push::kOk);
  EXPECT_EQ(sched.push("", 1), TenantScheduler::Push::kOk);
  EXPECT_EQ(sched.push("", 4), TenantScheduler::Push::kOk);
  EXPECT_EQ(sched.push("", 2), TenantScheduler::Push::kOk);
  EXPECT_EQ(sched.size(), 4u);
  EXPECT_EQ(sched.pop(), 3u);
  EXPECT_EQ(sched.pop(), 1u);
  EXPECT_EQ(sched.pop(), 4u);
  EXPECT_EQ(sched.pop(), 2u);
  EXPECT_FALSE(sched.pop().has_value());
  EXPECT_TRUE(sched.empty());
  const auto stats = sched.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].enqueued, 4u);
  EXPECT_EQ(stats[0].served, 4u);
}

TEST(TenantSched, QuotaBoundsQueuedWorkPerTenant) {
  TenantScheduler sched;
  sched.register_tenant("small", {1.0, 2});
  EXPECT_EQ(sched.push("small", 1), TenantScheduler::Push::kOk);
  EXPECT_EQ(sched.push("small", 2), TenantScheduler::Push::kOk);
  EXPECT_EQ(sched.push("small", 3), TenantScheduler::Push::kQuota);
  // Another tenant's capacity is untouched by the rejection.
  EXPECT_EQ(sched.push("big", 4), TenantScheduler::Push::kOk);
  // Draining one item frees one admission slot.
  EXPECT_TRUE(sched.pop().has_value());
  EXPECT_EQ(sched.push("small", 5), TenantScheduler::Push::kOk);
  const auto stats = sched.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "small");
  EXPECT_EQ(stats[0].quota_rejected, 1u);
  EXPECT_EQ(stats[1].quota_rejected, 0u);
}

/// Property: over seeded random arrival schedules with every tenant
/// backlogged, served shares converge to weight / sum(weights). 20
/// consecutive seeds — the acceptance bar — each with a random tenant
/// count (2..8) and random unequal weights.
TEST(TenantSched, FairnessConvergesToWeightRatiosAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL);
    const std::size_t num_tenants = 2 + rng.next_below(7);  // 2..8
    const double weight_choices[] = {0.5, 1.0, 2.0, 3.0, 5.0};

    TenantScheduler sched;
    std::vector<std::string> names;
    std::vector<double> weights;
    double total_weight = 0;
    for (std::size_t t = 0; t < num_tenants; ++t) {
      names.push_back("t" + std::to_string(t));
      weights.push_back(weight_choices[rng.next_below(5)]);
      total_weight += weights.back();
      sched.register_tenant(names.back(), {weights.back(), 0});
    }

    // Keep every tenant backlogged while serving: arrivals topped up so
    // no queue ever drains (DRR's share guarantee is over backlogged
    // intervals).
    std::uint64_t next_id = 1;
    std::vector<std::size_t> queued(num_tenants, 0);
    std::vector<std::uint64_t> served(num_tenants, 0);
    std::map<std::uint64_t, std::size_t> owner;
    auto top_up = [&] {
      for (std::size_t t = 0; t < num_tenants; ++t) {
        while (queued[t] < 4) {
          const std::uint64_t id = next_id++;
          ASSERT_EQ(sched.push(names[t], id), TenantScheduler::Push::kOk);
          owner[id] = t;
          ++queued[t];
        }
      }
    };

    const std::size_t kDispatches = 4000;
    for (std::size_t i = 0; i < kDispatches; ++i) {
      top_up();
      const auto id = sched.pop();
      ASSERT_TRUE(id.has_value());
      const std::size_t t = owner.at(*id);
      owner.erase(*id);
      ++served[t];
      --queued[t];
    }

    for (std::size_t t = 0; t < num_tenants; ++t) {
      const double got = static_cast<double>(served[t]) / kDispatches;
      const double want = weights[t] / total_weight;
      // 4000 dispatches with integer-granularity rounds: 2 points of
      // absolute share plus 10% relative covers the quantization.
      EXPECT_NEAR(got, want, 0.02 + 0.10 * want)
          << names[t] << " weight " << weights[t];
    }

    // The scheduler's own lifetime counters agree with ours.
    for (const auto& ts : sched.stats()) {
      for (std::size_t t = 0; t < num_tenants; ++t) {
        if (ts.name == names[t]) EXPECT_EQ(ts.served, served[t]);
      }
    }
  }
}

/// A tenant with a single queued query (the latency probe) never waits
/// more than one DRR round, no matter how backlogged the heavy tenants
/// are — the "at most max_round_dispatches() pops" bound.
TEST(TenantSched, StarvedProbeWaitsAtMostOneRound) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256 rng(seed ^ 0xfa1235eedULL);
    TenantScheduler sched;
    const std::size_t heavies = 1 + rng.next_below(6);
    std::uint64_t next_id = 1;
    for (std::size_t t = 0; t < heavies; ++t) {
      const std::string name = "heavy" + std::to_string(t);
      sched.register_tenant(name, {1.0 + rng.next_below(5), 0});
      for (int q = 0; q < 200; ++q) {
        sched.push(name, next_id++);
      }
    }
    // Burn a random prefix so the probe lands mid-round, not at a round
    // boundary.
    const std::size_t burn = rng.next_below(50);
    for (std::size_t i = 0; i < burn; ++i) sched.pop();

    sched.register_tenant("probe", {1.0, 0});
    const std::uint64_t probe_id = next_id++;
    sched.push("probe", probe_id);
    const std::uint64_t bound = sched.max_round_dispatches();
    std::uint64_t waited = 0;
    while (true) {
      const auto id = sched.pop();
      ASSERT_TRUE(id.has_value());
      if (*id == probe_id) break;
      ASSERT_LE(++waited, bound) << "probe starved past one DRR round";
    }
  }
}

core::Config qos_engine_config() {
  core::Config cfg = testutil::test_config();
  cfg.compute_workers = 2;
  return cfg;
}

TEST(TenantQos, EngineRejectsOverQuotaTyped) {
  serve::EngineOptions opts;
  opts.max_inflight_queries = 1;
  opts.max_queue_depth = 16;
  opts.workers_per_query = 1;
  serve::QueryEngine engine(qos_engine_config(), opts);
  engine.register_tenant("capped", {1.0, 2});
  // The capped tenant's queries name a catalog graph: only the admitted
  // ones may count as that graph's traffic.
  serve::GraphCatalog cat(engine.runtime());
  engine.attach_catalog(&cat);
  cat.open("g", format::make_mem_graph(graph::generate_rmat(6, 4, 7)));

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  serve::QuerySpec blocker;
  blocker.label = "blocker";
  blocker.tenant = "capped";
  blocker.graph = "g";
  blocker.run = [&](core::QueryContext&) {
    started = true;
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
    return core::QueryStats{};
  };
  auto quick = [](core::QueryContext&) { return core::QueryStats{}; };

  auto t1 = engine.submit(blocker);
  while (!started) std::this_thread::yield();
  serve::QuerySpec q;
  q.run = quick;
  q.tenant = "capped";
  q.graph = "g";
  q.label = "q1";
  auto t2 = engine.submit(q);
  q.label = "q2";
  auto t3 = engine.submit(q);
  // Third queued submission for the capped tenant: typed quota rejection,
  // NOT retryable (the tenant must drain its own backlog first), and the
  // engine-wide queue still has room for everyone else.
  q.label = "q3";
  bool rejected = false;
  try {
    engine.submit(q);
  } catch (const serve::ServeError& e) {
    rejected = true;
    EXPECT_EQ(e.kind(), serve::RejectKind::kQuotaExceeded);
    EXPECT_FALSE(e.retryable());
  }
  EXPECT_TRUE(rejected);
  serve::QuerySpec other;
  other.run = quick;
  other.tenant = "roomy";
  other.label = "other";
  auto t4 = engine.submit(other);  // different tenant: admitted fine

  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  engine.drain();
  EXPECT_EQ(t1->state(), serve::QueryState::kDone);
  EXPECT_EQ(t2->state(), serve::QueryState::kDone);
  EXPECT_EQ(t3->state(), serve::QueryState::kDone);
  EXPECT_EQ(t4->state(), serve::QueryState::kDone);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.quota_rejected, 1u);
  bool saw_capped = false;
  for (const auto& ts : stats.tenants) {
    if (ts.name == "capped") {
      saw_capped = true;
      EXPECT_EQ(ts.enqueued, 3u);
      EXPECT_EQ(ts.served, 3u);
      EXPECT_EQ(ts.quota_rejected, 1u);
      EXPECT_EQ(ts.max_queued, 2u);
    }
  }
  EXPECT_TRUE(saw_capped);
  // The rejected q3 resolved the graph but never ran.
  const auto rows = cat.snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].queries, 3u);
}

TEST(TenantQos, EngineServesWeightedSharesUnderBacklog) {
  // One session + a blocker turns the engine queue into a pure scheduler
  // experiment: whoever runs first out of the backlog reveals the DRR
  // order. With weights 3:1 the first 12 dispatches split ~9:3.
  serve::EngineOptions opts;
  opts.max_inflight_queries = 1;
  opts.max_queue_depth = 64;
  opts.workers_per_query = 1;
  serve::QueryEngine engine(qos_engine_config(), opts);
  engine.register_tenant("gold", {3.0, 0});
  engine.register_tenant("bronze", {1.0, 0});

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  serve::QuerySpec blocker;
  blocker.label = "blocker";
  blocker.run = [&](core::QueryContext&) {
    started = true;
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
    return core::QueryStats{};
  };
  auto tb = engine.submit(blocker);
  while (!started) std::this_thread::yield();

  std::mutex order_mu;
  std::vector<std::string> order;
  auto tagged = [&](const std::string& tenant, int i) {
    serve::QuerySpec s;
    s.tenant = tenant;
    s.label = tenant + std::to_string(i);
    s.run = [&, tenant](core::QueryContext&) {
      std::lock_guard lock(order_mu);
      order.push_back(tenant);
      return core::QueryStats{};
    };
    return s;
  };
  std::vector<std::shared_ptr<serve::QueryTicket>> tickets;
  for (int i = 0; i < 12; ++i) {
    tickets.push_back(engine.submit(tagged("gold", i)));
    tickets.push_back(engine.submit(tagged("bronze", i)));
  }
  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  engine.drain();
  EXPECT_EQ(tb->state(), serve::QueryState::kDone);
  for (auto& t : tickets) EXPECT_EQ(t->state(), serve::QueryState::kDone);

  // Count the split over the first half of the dispatch order (both
  // tenants still backlogged there); 3:1 within one round's rounding.
  ASSERT_EQ(order.size(), 24u);
  int gold_first_half = 0;
  for (int i = 0; i < 12; ++i) gold_first_half += order[i] == "gold";
  EXPECT_GE(gold_first_half, 8) << "gold under-served against 3:1 weights";
  EXPECT_LE(gold_first_half, 10);
}

}  // namespace
}  // namespace blaze
