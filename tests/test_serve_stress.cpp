// Seed-replayable chaos test for serve::QueryEngine over a faulty device.
//
// N session threads serve a mixed query stream (BFS / PageRank / k-core)
// while the adjacency device injects transient failures or silent
// corruption (detected by the per-page checksum verifier), and drain() is
// fired at random points with the next round re-admitting against a fresh
// engine. Invariants checked every round:
//   - every session's IO-buffer slice returns to full occupancy,
//   - engine accounting reconciles (admitted == completed+failed;
//     aggregate retry counters equal the device's injected faults),
//   - every COMPLETED query's result matches the sequential oracle, and
//     every FAILED query failed for the injected reason, typed.
//
// Two of the rounds (including one corruption + chaos-drain round) run the
// engine in async execution mode, where SSSP takes PageRank's slot and WCC
// takes k-core's, so the sched::AsyncRunner loop is exercised under
// injected faults and mid-stream drain too: it must neither deadlock nor
// leak pool buffers, and its answers must match the in-memory oracle.
// BLAZE_STRESS_ASYNC=1 switches EVERY round to async (the nightly matrix
// leg).
//
// The whole schedule derives from one seed (BLAZE_STRESS_SEED overrides;
// the seed is printed so any failure is replayable).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "baselines/inmem.h"
#include "device/faulty_device.h"
#include "device/mem_device.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "io/io_error.h"
#include "io/page_verify.h"
#include "serve/graph_catalog.h"
#include "serve/query_engine.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace blaze {
namespace {

using device::FaultMode;
using device::FaultyDevice;

std::uint64_t stress_seed() {
  const char* env = std::getenv("BLAZE_STRESS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 0xb1a2e5eedULL;  // deterministic default; CI varies it
}

bool stress_async() {
  const char* env = std::getenv("BLAZE_STRESS_ASYNC");
  return env != nullptr && *env != '\0' && *env != '0';
}

/// Thread-safe first-mismatch recorder: the failure message names the
/// query that diverged so the seed replays straight to it.
struct MismatchLog {
  std::atomic<bool> hit{false};
  std::mutex mu;
  std::string what;

  void note(const std::string& w) {
    if (hit.exchange(true)) return;
    std::lock_guard lock(mu);
    what = w;
  }
};

/// The sequential ground truth every completed query must reproduce.
struct Oracle {
  std::vector<vertex_t> bfs_sources;
  std::vector<std::vector<std::uint32_t>> bfs_dist;  ///< per source
  std::vector<float> pr_rank;  ///< clean engine run
  std::vector<std::uint32_t> coreness;
  std::vector<std::uint32_t> sssp_dist;  ///< from bfs_sources[0]
  std::vector<vertex_t> wcc_ids;
};

constexpr std::uint32_t kUnreached = ~0u;

algorithms::PageRankOptions pr_options() {
  algorithms::PageRankOptions opts;
  opts.max_iterations = 8;
  return opts;
}

void check_bfs(const std::vector<vertex_t>& parent, const Oracle& oracle,
               std::size_t src_idx, MismatchLog& log,
               const std::string& label) {
  const auto& dist = oracle.bfs_dist[src_idx];
  const vertex_t src = oracle.bfs_sources[src_idx];
  for (vertex_t v = 0; v < parent.size(); ++v) {
    const bool reached = parent[v] != kInvalidVertex;
    if (reached != (dist[v] != kUnreached)) {
      log.note(label + ": reachability of v" + std::to_string(v));
      return;
    }
    // Parent choice within a level is scheduling-dependent; hop distance
    // is not: any valid parent sits exactly one level above.
    if (reached && v != src && dist[parent[v]] + 1 != dist[v]) {
      log.note(label + ": parent of v" + std::to_string(v) +
               " not one level up");
      return;
    }
  }
}

/// The engine replays its fixed 8 iterations exactly; the tolerance only
/// covers float summation order.
void check_pagerank(const std::vector<float>& rank,
                    const std::vector<float>& want_rank, MismatchLog& log,
                    const std::string& label) {
  constexpr float kTol = 1e-4f;
  for (std::size_t v = 0; v < rank.size(); ++v) {
    const float want = want_rank[v];
    if (std::fabs(rank[v] - want) > kTol * (1.0f + std::fabs(want))) {
      log.note(label + ": rank of v" + std::to_string(v));
      return;
    }
  }
}

io::ErrorKind kind_of(std::exception_ptr err) {
  try {
    std::rethrow_exception(err);
  } catch (const io::IoError& e) {
    return e.kind();
  }
}

/// One planned submission: which algorithm, and (for BFS) which source.
struct PlannedQuery {
  int kind = 0;  ///< 0 bfs, 1 pagerank (sssp when async), 2 kcore (wcc)
  std::size_t src_idx = 0;
};

TEST(ServeStress, ChaosRoundsReconcileAgainstOracle) {
  const std::uint64_t seed = stress_seed();
  std::printf("stress seed: %llu\n",
              static_cast<unsigned long long>(seed));
  SCOPED_TRACE("replay with BLAZE_STRESS_SEED=" + std::to_string(seed));
  Xoshiro256 rng(seed);

  graph::Csr g = graph::generate_rmat(9, 8, rng.next());
  graph::Csr gt = graph::transpose(g);
  const vertex_t n = g.num_vertices();

  // Adjacency bytes live once in a MemDevice; each round wraps them in a
  // fresh FaultyDevice (corruption flips read payloads, never the store).
  auto inner = std::make_shared<device::MemDevice>(
      "adj", format::serialize_adjacency(g));
  const auto checksums = io::snapshot_page_checksums(*inner);
  std::vector<std::uint32_t> degrees(n);
  for (vertex_t v = 0; v < n; ++v) degrees[v] = g.degree(v);

  // In-edges stay clean: the chaos is confined to the out-graph so the
  // fault counters reconcile against exactly one device.
  auto in_g = format::make_mem_graph(gt);

  // Sequential oracle (in-memory baselines + one clean engine run for the
  // float-semantics PageRank reference).
  Oracle oracle;
  for (int i = 0; i < 4; ++i) {
    oracle.bfs_sources.push_back(
        static_cast<vertex_t>(rng.next_below(n)));
    oracle.bfs_dist.push_back(
        baseline::inmem::bfs_dist(g, oracle.bfs_sources.back()));
  }
  oracle.coreness = baseline::inmem::coreness(g, gt);
  oracle.sssp_dist = baseline::inmem::sssp_dist(g, oracle.bfs_sources[0]);
  oracle.wcc_ids = baseline::inmem::wcc(g);
  {
    auto clean = format::make_mem_graph(g);
    core::Runtime rt(testutil::test_config());
    oracle.pr_rank = algorithms::pagerank(rt, clean, pr_options()).rank;
  }

  constexpr int kRounds = 6;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 3;

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const bool corruption_round = round % 2 == 1;
    const bool chaos_drain = round == 2 || round == 3;
    // Round 3 = async + corruption + mid-stream drain, the worst combo;
    // round 5 = async over transient faults. BLAZE_STRESS_ASYNC=1 forces
    // every round async.
    const bool async_round = stress_async() || round == 3 || round == 5;

    // Fault schedule for this round, derived from the seed.
    std::shared_ptr<FaultyDevice> faulty;
    if (corruption_round) {
      // ~1 page in 7 corrupts; the checksum verifier must catch every one.
      const std::uint64_t salt = rng.next();
      faulty = std::make_shared<FaultyDevice>(
          inner,
          [salt](std::uint64_t off, std::uint64_t) {
            return ((off / kPageSize) * 0x9E3779B97F4A7C15ULL + salt) % 7 ==
                   0;
          },
          FaultMode::kCorruption);
    } else {
      // Budget within the pipeline's retry limit: every fault absorbed.
      const std::uint64_t budget = 1 + rng.next_below(3);
      faulty = std::make_shared<FaultyDevice>(
          inner, [](std::uint64_t, std::uint64_t) { return true; },
          FaultMode::kTransient, budget);
    }
    format::OnDiskGraph out_g(format::GraphIndex(degrees), faulty);
    out_g.set_page_verifier(io::make_checksum_verifier(checksums));

    // The full submission schedule is fixed before any thread starts so
    // the mix replays from the seed regardless of interleaving.
    std::vector<std::vector<PlannedQuery>> plan(kClients);
    for (auto& per_client : plan) {
      for (std::size_t q = 0; q < kPerClient; ++q) {
        per_client.push_back({static_cast<int>(rng.next_below(3)),
                              rng.next_below(oracle.bfs_sources.size())});
      }
    }
    const std::uint64_t drain_after_us = rng.next_below(2000);

    serve::EngineOptions eopts;
    eopts.max_inflight_queries = 3;
    eopts.max_queue_depth = kClients * kPerClient;
    auto ecfg = testutil::test_config();
    if (async_round) ecfg.execution_mode = core::ExecutionMode::kAsync;
    serve::QueryEngine engine(ecfg, eopts);

    MismatchLog mismatch;
    std::atomic<std::uint64_t> rejected_shutdown{0};
    std::mutex tickets_mu;
    std::vector<std::shared_ptr<serve::QueryTicket>> tickets;

    {
      std::vector<std::jthread> clients;
      clients.reserve(kClients);
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (std::size_t q = 0; q < kPerClient; ++q) {
            const PlannedQuery pq = plan[c][q];
            serve::QuerySpec spec;
            spec.label = "c" + std::to_string(c) + "q" + std::to_string(q);
            const std::string label = spec.label;
            switch (pq.kind) {
              case 0:
                spec.run = [&, pq, label](core::QueryContext& qc) {
                  auto r = algorithms::bfs(
                      qc, out_g, oracle.bfs_sources[pq.src_idx]);
                  check_bfs(r.parent, oracle, pq.src_idx, mismatch, label);
                  return r.stats;
                };
                break;
              case 1:
                if (async_round) {
                  spec.run = [&, label](core::QueryContext& qc) {
                    auto r = algorithms::sssp(qc, out_g,
                                              oracle.bfs_sources[0]);
                    if (r.dist != oracle.sssp_dist) {
                      mismatch.note(label + ": sssp distances diverged");
                    }
                    return r.stats;
                  };
                } else {
                  spec.run = [&, label](core::QueryContext& qc) {
                    auto r = algorithms::pagerank(qc, out_g, pr_options());
                    check_pagerank(r.rank, oracle.pr_rank, mismatch, label);
                    return r.stats;
                  };
                }
                break;
              default:
                if (async_round) {
                  spec.run = [&, label](core::QueryContext& qc) {
                    auto r = algorithms::wcc(qc, out_g, in_g);
                    if (r.ids != oracle.wcc_ids) {
                      mismatch.note(label + ": wcc labels diverged");
                    }
                    return r.stats;
                  };
                } else {
                  spec.run = [&, label](core::QueryContext& qc) {
                    auto r = algorithms::kcore(qc, out_g, in_g);
                    if (r.coreness != oracle.coreness) {
                      mismatch.note(label + ": coreness diverged");
                    }
                    return r.stats;
                  };
                }
            }
            try {
              auto t = engine.submit(std::move(spec));
              {
                std::lock_guard lock(tickets_mu);
                tickets.push_back(t);
              }
              t->wait();
            } catch (const serve::ServeError& e) {
              if (e.kind() == serve::RejectKind::kShuttingDown) {
                // Chaos drain won the race; the rest of this client's
                // stream re-admits next round.
                rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
                return;
              }
              // Overloaded: bounded queue says back off; try again.
              std::this_thread::yield();
              --q;
            }
          }
        });
      }
      if (chaos_drain) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::int64_t>(drain_after_us)));
        engine.drain();
      }
    }
    engine.drain();

    // Re-admission after drain is a typed rejection, never a hang.
    EXPECT_THROW(engine.submit({}), serve::ServeError);

    // Buffer-pool occupancy: every session slice back at 100 % (leaked
    // in-flight buffers after injected failures were the motivating bug).
    EXPECT_TRUE(engine.io_pools_full());

    // Accounting reconciles regardless of where the drain cut the stream.
    const auto stats = engine.stats();
    EXPECT_EQ(stats.admitted, stats.completed + stats.failed);
    if (chaos_drain) {
      // Every shutdown rejection a client saw is in the engine's count
      // (which may also hold overload rejections and the probe below).
      EXPECT_GE(stats.rejected, rejected_shutdown.load());
    } else {
      EXPECT_EQ(stats.admitted, kClients * kPerClient);
      EXPECT_EQ(rejected_shutdown.load(), 0u);
    }

    // Fault counters reconcile against the device.
    if (corruption_round) {
      // Every injected corruption was detected: queries that saw one
      // failed with the typed corruption error; no wrong answer ever
      // reached a client (checked below via the mismatch log).
      if (faulty->injected_corruptions() > 0) {
        EXPECT_GE(stats.failed, 1u);
      }
      std::lock_guard lock(tickets_mu);
      for (const auto& t : tickets) {
        if (t->state() == serve::QueryState::kFailed) {
          EXPECT_EQ(kind_of(t->error()), io::ErrorKind::kCorruption)
              << t->label();
        }
      }
    } else {
      // Transient faults were all absorbed by bounded retry: nothing
      // failed, and each injected fault shows up as exactly one retry in
      // the aggregate (failed queries never merge stats, and there are
      // none).
      EXPECT_EQ(stats.failed, 0u);
      EXPECT_EQ(stats.aggregate.retries, faulty->injected_failures());
      EXPECT_EQ(stats.aggregate.gave_up, 0u);
    }

    EXPECT_FALSE(mismatch.hit.load())
        << "completed query diverged from oracle: " << mismatch.what;
  }
}

bool stress_catalog() {
  const char* env = std::getenv("BLAZE_STRESS_CATALOG");
  return env != nullptr && *env != '\0' && *env != '0';
}

// Multi-graph, multi-tenant chaos: a catalog of mixed graphs (one of them
// behind a FaultyDevice) served to weighted tenants while rounds inject
// mid-stream drain and catalog eviction. Reconciled every round:
//   - engine accounting (admitted == completed+failed) and the
//     per-tenant counters (sum of tenant enqueues == admitted),
//   - quota rejections typed kQuotaExceeded, never mislabeled overload,
//   - IO-buffer occupancy back at 100 % after drain,
//   - pool namespace accounting only ever names registered graphs,
//   - every completed BFS matches the oracle despite the chaos.
// Heavier than the tier-1 budget: nightly runs it with
// BLAZE_STRESS_CATALOG=1 across the ASan/TSan matrix.
TEST(ServeStress, CatalogMultiTenantChaosReconciles) {
  if (!stress_catalog()) {
    GTEST_SKIP() << "set BLAZE_STRESS_CATALOG=1 to run the catalog leg";
  }
  const std::uint64_t seed = stress_seed() ^ 0xca7a106ULL;
  std::printf("catalog stress seed: %llu\n",
              static_cast<unsigned long long>(seed));
  SCOPED_TRACE("replay with BLAZE_STRESS_SEED=" + std::to_string(seed));
  Xoshiro256 rng(seed);

  graph::Csr g = graph::generate_rmat(9, 8, rng.next());
  auto inner = std::make_shared<device::MemDevice>(
      "adj", format::serialize_adjacency(g));
  std::vector<std::uint32_t> degrees(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) degrees[v] = g.degree(v);

  std::vector<vertex_t> sources;
  std::vector<std::vector<std::uint32_t>> oracle_dist;
  for (int i = 0; i < 3; ++i) {
    sources.push_back(static_cast<vertex_t>(rng.next_below(g.num_vertices())));
    oracle_dist.push_back(baseline::inmem::bfs_dist(g, sources.back()));
  }

  constexpr int kRounds = 4;
  constexpr std::size_t kClients = 3;
  constexpr std::size_t kPerClient = 4;
  const char* kTenants[] = {"gold", "silver", "bronze"};

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const bool chaos_drain = round == 1 || round == 3;
    const bool evict_mid_stream = round >= 2;

    auto ecfg = testutil::test_config();
    ecfg.cache_bytes = 1 << 20;  // shared pool: namespaces in play
    serve::EngineOptions eopts;
    eopts.max_inflight_queries = 3;
    eopts.max_queue_depth = kClients * kPerClient;
    serve::QueryEngine engine(ecfg, eopts);
    serve::GraphCatalog catalog(engine.runtime());
    engine.attach_catalog(&catalog);
    engine.register_tenant("gold", {3.0, 0});
    engine.register_tenant("silver", {1.0, 0});
    engine.register_tenant("bronze", {1.0, 2});  // quota-capped

    // Graph mix: a clean one and one behind bounded transient faults.
    const std::uint64_t budget = 1 + rng.next_below(3);
    auto faulty = std::make_shared<FaultyDevice>(
        inner, [](std::uint64_t, std::uint64_t) { return true; },
        FaultMode::kTransient, budget);
    catalog.open("clean",
                 format::OnDiskGraph(format::GraphIndex(degrees), inner));
    catalog.open("shaky",
                 format::OnDiskGraph(format::GraphIndex(degrees), faulty));

    MismatchLog mismatch;
    std::atomic<std::uint64_t> shutdown_rejects{0};
    std::atomic<std::uint64_t> quota_rejects{0};
    const std::uint64_t drain_after_us = rng.next_below(2000);

    // Fixed per-client schedule (tenant, graph, source), replayable.
    struct Planned {
      std::size_t tenant, src_idx;
      bool shaky;
    };
    std::vector<std::vector<Planned>> plan(kClients);
    for (auto& per_client : plan) {
      for (std::size_t q = 0; q < kPerClient; ++q) {
        per_client.push_back({rng.next_below(3),
                              rng.next_below(sources.size()),
                              rng.next_below(2) == 1});
      }
    }

    {
      std::vector<std::jthread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (std::size_t q = 0; q < kPerClient; ++q) {
            const Planned pq = plan[c][q];
            serve::QuerySpec spec;
            spec.label = "c" + std::to_string(c) + "q" + std::to_string(q);
            spec.tenant = kTenants[pq.tenant];
            spec.graph = pq.shaky ? "shaky" : "clean";
            const std::string label = spec.label;
            spec.run = [&, pq, label](core::QueryContext& qc) {
              auto r = algorithms::bfs(qc, *qc.graph(),
                                       sources[pq.src_idx]);
              const auto& dist = oracle_dist[pq.src_idx];
              for (vertex_t v = 0; v < r.parent.size(); ++v) {
                const bool reached = r.parent[v] != kInvalidVertex;
                if (reached != (dist[v] != kUnreached)) {
                  mismatch.note(label + ": reachability of v" +
                                std::to_string(v));
                  break;
                }
              }
              return r.stats;
            };
            try {
              auto t = engine.submit(std::move(spec));
              t->wait();
            } catch (const serve::ServeError& e) {
              if (e.kind() == serve::RejectKind::kShuttingDown) {
                shutdown_rejects.fetch_add(1, std::memory_order_relaxed);
                return;
              }
              if (e.kind() == serve::RejectKind::kQuotaExceeded) {
                quota_rejects.fetch_add(1, std::memory_order_relaxed);
                std::this_thread::yield();
                --q;  // the capped tenant retries once its backlog drains
                continue;
              }
              std::this_thread::yield();
              --q;  // overloaded: back off and resubmit
            } catch (const std::invalid_argument&) {
              // Raced the mid-stream eviction of "shaky"; that graph is
              // gone for this round — the client drops the query.
            }
          }
        });
      }
      if (evict_mid_stream) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::int64_t>(drain_after_us)));
        // Unlist mid-stream: in-flight pins keep storage alive; new
        // submissions for it fail typed.
        catalog.close("shaky");
      }
      if (chaos_drain) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::int64_t>(drain_after_us)));
        engine.drain();
      }
    }
    engine.drain();

    EXPECT_TRUE(engine.io_pools_full());
    const auto stats = engine.stats();
    EXPECT_EQ(stats.admitted, stats.completed + stats.failed);
    EXPECT_EQ(stats.failed, 0u);  // transient budget within retry bounds
    EXPECT_EQ(stats.quota_rejected, quota_rejects.load());
    EXPECT_GE(stats.rejected,
              shutdown_rejects.load() + quota_rejects.load());
    std::uint64_t tenant_enqueued = 0;
    for (const auto& ts : stats.tenants) tenant_enqueued += ts.enqueued;
    EXPECT_EQ(tenant_enqueued, stats.admitted);

    // Pool namespaces only ever name the graphs this round registered.
    for (const auto& u : catalog.namespace_usage()) {
      EXPECT_TRUE(u.name == "graph/clean" || u.name == "graph/shaky")
          << u.name;
    }
    // Budget invariant holds whatever the round did to the catalog.
    if (catalog.size() > 0) {
      EXPECT_EQ(catalog.total_cache_budget(), ecfg.cache_bytes);
    } else {
      EXPECT_EQ(catalog.total_cache_budget(), 0u);
    }

    EXPECT_FALSE(mismatch.hit.load())
        << "completed query diverged from oracle: " << mismatch.what;
  }
}

}  // namespace
}  // namespace blaze
