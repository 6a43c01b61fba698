// Serving workload: closed-loop multi-client queries over one engine.
//
// The ROADMAP's serving north star, measured: C client threads each submit
// Q queries (mixed BFS / PageRank-delta / k-core over the same on-disk
// graph) to one serve::QueryEngine — one shared Runtime, one IO pipeline,
// one shared sharded page-cache pool — waiting for each ticket before
// submitting the next (closed loop). Every query's result is checked
// against a sequential single-Runtime reference, and the shared cache's
// hit rate is compared against the FlashGraph-motivating baseline of one
// isolated Runtime + private cache per query. The bench sweeps client
// counts and eviction policies (the pool is deliberately undersized so
// the policies differentiate: PageRank's full scans flush an LRU, while
// S3-FIFO keeps the cross-query hot set resident) and prints one JSON row
// per (clients, policy) configuration for the CI artifact and the
// check_bench_baseline.py --serving gate.
//
// Environment overrides (in addition to bench_common.h's):
//   BLAZE_BENCH_CLIENTS      client threads (default 4; ignored when
//                            BLAZE_BENCH_CLIENT_SWEEP is set)
//   BLAZE_BENCH_CLIENT_SWEEP comma list of client counts, e.g. "4,16,64"
//   BLAZE_BENCH_POLICIES     comma list of pool policies
//                            (default "lru,s3fifo")
//   BLAZE_BENCH_QUERIES      queries per client (default 3)
//   BLAZE_BENCH_CACHE_DIV    cache budget divisor: pool bytes =
//                            2 * graph / DIV (default 4 -> half the
//                            graph, real eviction pressure)
//   BLAZE_BENCH_CACHE_SHARDS pool shard count (default 0 = auto)
//   BLAZE_BENCH_TRACE        Chrome trace-event JSON artifact path
//                            (default bench_serving_trace.json; "" disables)
//   BLAZE_BENCH_METRICS      metrics artifact prefix (default
//                            bench_serving_metrics -> .json + .prom;
//                            "" disables)
//   BLAZE_BENCH_METRICS_MS   sampler interval, ms (default 10)
//   BLAZE_BENCH_METRICS_PORT scrape endpoint port (default off; 0 =
//                            ephemeral)
//
// Open-loop mode (BLAZE_BENCH_OPENLOOP=1) replaces the closed-loop sweep
// with the multi-tenant catalog serving shape: two resident graphs behind
// one GraphCatalog, three weighted tenants (one quota-capped), and a
// seeded Poisson arrival process that submits WITHOUT waiting — arrivals
// the engine cannot admit are dropped and counted, exactly like a real
// front door. The row reports achieved throughput and p50/p95 against an
// SLO for the check_bench_baseline.py --openloop gate. Extra knobs:
//   BLAZE_BENCH_OPENLOOP          1 = run the open-loop pass instead
//   BLAZE_BENCH_ARRIVALS          total arrivals (default 96)
//   BLAZE_BENCH_RATE_QPS          Poisson arrival rate (default 150)
//   BLAZE_BENCH_SLO_MS            p95 SLO in ms (default 10000)
//   BLAZE_BENCH_SEED              arrival-process seed (default 42)
//   BLAZE_BENCH_OPENLOOP_INFLIGHT concurrent sessions (default 4)
//
// The open-loop pass also emits one "serving_apportion" A/B row (gated by
// check_bench_baseline.py --openloop): the same skewed two-graph workload
// with the catalog's budgets enforced as namespace admission caps vs one
// uncapped shared pool (Config::catalog_enforce_budgets on vs off),
// reporting each leg's measured-phase aggregate hit rate. Knobs:
//   BLAZE_BENCH_APPORTION         0 skips the A/B row (default 1)
//   BLAZE_BENCH_APPORTION_WARM    warm queries per graph (default 2)
//   BLAZE_BENCH_APPORTION_QUERIES measured queries per graph (default 3)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/kcore.h"
#include "bench/bench_common.h"
#include "device/cached_device.h"
#include "metrics/export.h"
#include "metrics/metrics.h"
#include "serve/graph_catalog.h"
#include "serve/query_engine.h"
#include "trace/chrome_export.h"
#include "trace/tracer.h"

namespace {

using namespace blaze;
using namespace blaze::bench;

struct Reference {
  std::size_t bfs_reached = 0;
  std::vector<float> pr_rank;
  std::vector<std::uint32_t> coreness;
};

std::size_t reached_count(const std::vector<vertex_t>& parent) {
  std::size_t n = 0;
  for (vertex_t p : parent) n += (p != kInvalidVertex);
  return n;
}

bool ranks_close(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > 1e-3f) return false;
  }
  return true;
}

/// The three query kinds in the mix; client c's q-th query runs kind
/// (c + q) % 3 so every client interleaves all kinds.
constexpr const char* kKinds[3] = {"bfs", "pagerank", "kcore"};

/// Builds the QueryFn for one kind, verifying the result against the
/// sequential reference (any mismatch trips `mismatch`).
serve::QueryFn make_query(int kind, const format::OnDiskGraph& out_g,
                          const format::OnDiskGraph& in_g,
                          const Reference& ref,
                          std::atomic<bool>& mismatch) {
  switch (kind) {
    case 0:
      return [&](core::QueryContext& qc) {
        auto r = algorithms::bfs(qc, out_g, 0);
        if (reached_count(r.parent) != ref.bfs_reached) mismatch = true;
        return r.stats;
      };
    case 1:
      return [&](core::QueryContext& qc) {
        auto r = algorithms::pagerank(qc, out_g);
        if (!ranks_close(r.rank, ref.pr_rank)) mismatch = true;
        return r.stats;
      };
    default:
      return [&](core::QueryContext& qc) {
        auto r = algorithms::kcore(qc, out_g, in_g);
        if (r.coreness != ref.coreness) mismatch = true;
        return r.stats;
      };
  }
}

double rate(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses > 0
             ? static_cast<double>(hits) /
                   static_cast<double>(hits + misses)
             : 0.0;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// One leg of the catalog cache-cap A/B: the skewed two-graph workload (a
/// hot graph that fits in its share of the pool next to a larger graph
/// whose scans never will), with the catalog's equal budgets either
/// enforced as namespace admission caps or left advisory. The two graphs
/// split the pool 50/50. Capped, the scan graph stops
/// retaining pages at its half, so its scans cannot evict the hot graph's
/// share; shared, they compete for the whole pool. Returns the
/// measured-phase aggregate pool hit rate (post-warm counter delta).
struct ApportionLeg {
  double hit_rate = 0.0;
  std::uint64_t hot_budget = 0;
  std::uint64_t scan_budget = 0;
  bool ok = false;
};

ApportionLeg run_apportion_leg(bool enforce, std::size_t warm_queries,
                               std::size_t measured_queries) {
  const auto profile = bench_optane();
  auto hot_base = format::make_simulated_graph(dataset("r2").csr, profile);
  auto scan_base = format::make_simulated_graph(dataset("r3").csr, profile);
  // 1.5x the hot graph: its 50/50 share holds 3/4 of it, and only the
  // caps keep the big graph's scans out of that share.
  const std::uint64_t cache_bytes = hot_base.input_bytes() * 3 / 2;

  serve::EngineOptions opts;
  opts.max_inflight_queries = 1;  // closed loop, deterministic access order
  auto cfg = bench_config(hot_base);
  cfg.cache_bytes = cache_bytes;
  cfg.catalog_enforce_budgets = enforce;
  serve::QueryEngine engine(cfg, opts);
  serve::GraphCatalog catalog(engine.runtime());
  catalog.open("hot", std::move(hot_base));
  catalog.open("scan", std::move(scan_base));
  engine.attach_catalog(&catalog);

  std::atomic<bool> mismatch{false};
  std::size_t want_reached[2] = {0, 0};
  const char* names[2] = {"hot", "scan"};
  auto run_queries = [&](std::size_t per_graph) {
    for (std::size_t q = 0; q < per_graph; ++q) {
      for (int gi = 0; gi < 2; ++gi) {
        serve::QuerySpec spec;
        spec.graph = names[gi];
        spec.label = std::string("bfs/") + names[gi];
        std::size_t* want = &want_reached[gi];
        spec.run = [want, &mismatch](core::QueryContext& qc) {
          auto r = algorithms::bfs(qc, *qc.graph(), 0);
          const std::size_t reached = reached_count(r.parent);
          if (*want == 0) {
            *want = reached;  // first run is the reference
          } else if (reached != *want) {
            mismatch = true;
          }
          return r.stats;
        };
        engine.submit(spec)->wait();
      }
    }
  };

  // Warm: give both legs the same traffic history, then measure the pool
  // counter delta.
  run_queries(warm_queries);
  ApportionLeg leg;
  leg.hot_budget = catalog.cache_budget_of("hot");
  leg.scan_budget = catalog.cache_budget_of("scan");
  const auto& pool = engine.runtime().page_cache();
  const auto before = pool->cache_counters();
  run_queries(measured_queries);
  const auto after = pool->cache_counters();
  engine.drain();
  leg.hit_rate = rate(after.hits - before.hits, after.misses - before.misses);
  leg.ok = !mismatch.load() &&
           leg.hot_budget + leg.scan_budget == cache_bytes;
  return leg;
}

/// Catalog cache-cap A/B row: enforced caps vs one shared pool on the
/// same seeded skewed workload. The check_bench_baseline.py --openloop
/// gate pins hit_capped >= hit_shared (minus configured slack).
int run_apportion_ab() {
  const auto warm = static_cast<std::size_t>(
      env_long("BLAZE_BENCH_APPORTION_WARM", 2));
  const auto measured = static_cast<std::size_t>(
      env_long("BLAZE_BENCH_APPORTION_QUERIES", 3));
  const auto capped = run_apportion_leg(true, warm, measured);
  const auto shared = run_apportion_leg(false, warm, measured);
  std::printf(
      "{\"bench\":\"serving_apportion\",\"hot\":\"r2\",\"scan\":\"r3\","
      "\"warm_per_graph\":%zu,\"measured_per_graph\":%zu,"
      "\"hot_budget_mib\":%.1f,\"scan_budget_mib\":%.1f,"
      "\"hit_capped\":%.4f,\"hit_shared\":%.4f,\"capped_wins\":%s,"
      "\"results_match\":%s}\n",
      warm, measured, static_cast<double>(capped.hot_budget) / (1 << 20),
      static_cast<double>(capped.scan_budget) / (1 << 20), capped.hit_rate,
      shared.hit_rate, capped.hit_rate >= shared.hit_rate ? "true" : "false",
      capped.ok && shared.ok ? "true" : "false");
  std::fflush(stdout);
  return capped.ok && shared.ok ? 0 : 1;
}

/// Open-loop catalog serving: seeded Poisson arrivals over two resident
/// graphs and three weighted tenants. One "serving_openloop" JSON row;
/// returns the process exit code.
int run_openloop() {
  const auto arrivals =
      static_cast<std::size_t>(env_long("BLAZE_BENCH_ARRIVALS", 96));
  const double rate_qps =
      static_cast<double>(env_long("BLAZE_BENCH_RATE_QPS", 150));
  const double slo_ms =
      static_cast<double>(env_long("BLAZE_BENCH_SLO_MS", 10000));
  const auto seed =
      static_cast<std::uint64_t>(env_long("BLAZE_BENCH_SEED", 42));
  const auto inflight = static_cast<std::size_t>(
      env_long("BLAZE_BENCH_OPENLOOP_INFLIGHT", 4));
  const auto profile = bench_optane();
  const auto& main_ds = dataset("r2");
  const auto& alt_ds = dataset("r3");

  auto main_base = format::make_simulated_graph(main_ds.csr, profile);
  auto alt_base = format::make_simulated_graph(alt_ds.csr, profile);
  const auto cache_div =
      static_cast<std::size_t>(env_long("BLAZE_BENCH_CACHE_DIV", 4));
  const std::size_t cache_bytes =
      (main_base.input_bytes() + alt_base.input_bytes()) * 2 /
      (cache_div == 0 ? 1 : cache_div);

  // Ground truth per resident graph: BFS-from-0 reachable set size.
  std::size_t want_reached[2];
  {
    core::Runtime rt(bench_config(main_base));
    want_reached[0] =
        reached_count(algorithms::bfs(rt, main_base, 0).parent);
    want_reached[1] = reached_count(algorithms::bfs(rt, alt_base, 0).parent);
  }

  serve::EngineOptions opts;
  opts.max_inflight_queries = inflight;
  opts.max_queue_depth = arrivals;  // overload drops are quota's job here
  auto serve_cfg = bench_config(main_base);
  serve_cfg.cache_bytes = cache_bytes;
  serve::QueryEngine engine(serve_cfg, opts);
  serve::GraphCatalog catalog(engine.runtime());
  catalog.open("main", std::move(main_base));
  catalog.open("alt", std::move(alt_base));
  engine.attach_catalog(&catalog);

  // Three tenants: a heavy paid tier, a default tier, and a quota-capped
  // free tier whose burst the engine must bounce without hurting the rest.
  serve::TenantOptions gold, silver, bronze;
  gold.weight = 3.0;
  silver.weight = 1.0;
  bronze.weight = 1.0;
  bronze.max_queued = std::max<std::size_t>(2, arrivals / 16);
  engine.register_tenant("gold", gold);
  engine.register_tenant("silver", silver);
  engine.register_tenant("bronze", bronze);
  const char* tenant_names[3] = {"gold", "silver", "bronze"};
  const char* graph_names[2] = {"main", "alt"};

  std::atomic<bool> mismatch{false};
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_qps > 0 ? rate_qps : 1.0);

  std::uint64_t quota_dropped = 0, overload_dropped = 0;
  std::vector<std::shared_ptr<serve::QueryTicket>> tickets;
  tickets.reserve(arrivals);
  Timer wall;
  for (std::size_t i = 0; i < arrivals; ++i) {
    const int gi = static_cast<int>(i % 2);
    serve::QuerySpec spec;
    spec.graph = graph_names[gi];
    spec.tenant = tenant_names[i % 3];
    spec.label = std::string("bfs/") + spec.tenant;
    const std::size_t want = want_reached[gi];
    spec.run = [want, &mismatch](core::QueryContext& qc) {
      auto r = algorithms::bfs(qc, *qc.graph(), 0);
      if (reached_count(r.parent) != want) mismatch = true;
      return r.stats;
    };
    try {
      tickets.push_back(engine.submit(spec));
    } catch (const serve::ServeError& e) {
      // Open loop: an arrival the engine cannot admit is dropped and
      // counted, never retried — the arrival process doesn't slow down
      // because the server is busy.
      if (e.kind() == serve::RejectKind::kQuotaExceeded) {
        ++quota_dropped;
      } else {
        ++overload_dropped;
      }
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(gap(rng)));
  }
  for (const auto& t : tickets) t->wait();
  const double wall_s = wall.seconds();
  const auto stats = engine.stats();

  // Budget invariant at steady state: declared per-graph cache budgets
  // sum EXACTLY to the configured pool budget.
  std::uint64_t budget_sum = 0;
  for (const auto& row : catalog.snapshot()) {
    budget_sum += row.cache_budget_bytes;
  }
  const bool budget_sum_ok = budget_sum == cache_bytes;
  engine.drain();

  const double p95 = stats.p95_ms();
  std::printf(
      "{\"bench\":\"serving_openloop\",\"graphs\":2,\"tenants\":3,"
      "\"arrivals\":%zu,\"rate_qps\":%.1f,\"seed\":%llu,\"sessions\":%zu,"
      "\"cache_mib\":%.1f,\"admitted\":%llu,\"completed\":%llu,"
      "\"failed\":%llu,\"quota_dropped\":%llu,"
      "\"overload_dropped\":%llu,\"quota_rejected\":%llu,"
      "\"wall_s\":%.3f,\"achieved_qps\":%.2f,\"p50_ms\":%.2f,"
      "\"p95_ms\":%.2f,\"slo_ms\":%.1f,\"p95_within_slo\":%s,"
      "\"budget_sum_ok\":%s,\"results_match\":%s}\n",
      arrivals, rate_qps, static_cast<unsigned long long>(seed), inflight,
      static_cast<double>(cache_bytes) / (1 << 20),
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(quota_dropped),
      static_cast<unsigned long long>(overload_dropped),
      static_cast<unsigned long long>(stats.quota_rejected), wall_s,
      wall_s > 0 ? static_cast<double>(stats.completed) / wall_s : 0.0,
      stats.p50_ms(), p95, slo_ms, p95 <= slo_ms ? "true" : "false",
      budget_sum_ok ? "true" : "false",
      !mismatch.load() ? "true" : "false");
  std::fflush(stdout);
  return !mismatch.load() && budget_sum_ok && stats.failed == 0 ? 0 : 1;
}

}  // namespace

int main() {
  if (env_long("BLAZE_BENCH_OPENLOOP", 0) != 0) {
    int rc = run_openloop();
    if (env_long("BLAZE_BENCH_APPORTION", 1) != 0) {
      rc = run_apportion_ab() != 0 ? 1 : rc;
    }
    return rc;
  }
  const auto per_client =
      static_cast<std::size_t>(env_long("BLAZE_BENCH_QUERIES", 3));
  const auto profile = bench_optane();
  const auto& ds = dataset("r2");

  // Sweep axes.
  std::vector<std::size_t> client_sweep;
  if (const char* sweep = std::getenv("BLAZE_BENCH_CLIENT_SWEEP")) {
    for (const auto& item : split_list(sweep)) {
      client_sweep.push_back(
          static_cast<std::size_t>(std::atol(item.c_str())));
    }
  }
  if (client_sweep.empty()) {
    client_sweep.push_back(
        static_cast<std::size_t>(env_long("BLAZE_BENCH_CLIENTS", 4)));
  }
  const char* policies_env = std::getenv("BLAZE_BENCH_POLICIES");
  std::vector<std::string> policies =
      split_list(policies_env != nullptr ? policies_env : "lru,s3fifo");
  if (policies.empty()) policies.push_back("s3fifo");

  auto out_base = format::make_simulated_graph(ds.csr, profile);
  auto in_base = format::make_simulated_graph(ds.transpose, profile);
  // Deliberately undersized pool (default: half the graph) so eviction
  // policy matters: with a cache that swallows the whole graph every
  // policy degenerates to "no evictions" and the sweep measures nothing.
  const auto cache_div =
      static_cast<std::size_t>(env_long("BLAZE_BENCH_CACHE_DIV", 4));
  const std::size_t cache_bytes =
      out_base.input_bytes() * 2 / (cache_div == 0 ? 1 : cache_div);
  const auto cache_shards =
      static_cast<std::size_t>(env_long("BLAZE_BENCH_CACHE_SHARDS", 0));

  // Reference pass: sequential, single Runtime, uncached device — the
  // ground truth every served query must reproduce.
  Reference ref;
  {
    format::OnDiskGraph out_g(format::GraphIndex(out_base.index()),
                              out_base.device_ptr());
    format::OnDiskGraph in_g(format::GraphIndex(in_base.index()),
                             in_base.device_ptr());
    core::Runtime rt(bench_config(out_g));
    ref.bfs_reached = reached_count(algorithms::bfs(rt, out_g, 0).parent);
    ref.pr_rank = algorithms::pagerank(rt, out_g).rank;
    ref.coreness = algorithms::kcore(rt, out_g, in_g).coreness;
  }

  // Isolated baseline: one private Runtime + private cold cache per query
  // kind — what serving the mix WITHOUT a shared engine costs per query.
  std::uint64_t iso_hits = 0, iso_misses = 0;
  std::atomic<bool> mismatch{false};
  for (int kind = 0; kind < 3; ++kind) {
    auto cache = std::make_shared<device::CachedDevice>(
        out_base.device_ptr(), cache_bytes, device::EvictionPolicy::kLru);
    format::OnDiskGraph out_g(format::GraphIndex(out_base.index()), cache);
    format::OnDiskGraph in_g(format::GraphIndex(in_base.index()),
                             in_base.device_ptr());
    core::Runtime rt(bench_config(out_g));
    make_query(kind, out_g, in_g, ref, mismatch)(rt.default_context());
    const device::CacheCounters c = cache->cache_counters();
    iso_hits += c.hits;
    iso_misses += c.misses;
  }
  const double iso_rate = rate(iso_hits, iso_misses);

  // Artifact paths: written once, on the sweep's last configuration (the
  // trace gate is process-wide and sticky, so only that pass is traced).
  const char* trace_env = std::getenv("BLAZE_BENCH_TRACE");
  const std::string trace_path =
      trace_env != nullptr ? trace_env : "bench_serving_trace.json";
  const char* metrics_env = std::getenv("BLAZE_BENCH_METRICS");
  const std::string metrics_prefix =
      metrics_env != nullptr ? metrics_env : "bench_serving_metrics";

  int rc_artifacts = 0;

  for (std::size_t ci = 0; ci < client_sweep.size(); ++ci) {
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      const std::size_t clients = client_sweep[ci];
      const bool last_config = ci + 1 == client_sweep.size() &&
                               pi + 1 == policies.size();

      device::EvictionPolicy policy = device::EvictionPolicy::kS3Fifo;
      if (!device::parse_eviction_policy(policies[pi], policy)) {
        std::fprintf(stderr, "unknown policy %s in BLAZE_BENCH_POLICIES\n",
                     policies[pi].c_str());
        return 2;
      }

      // Serving pass: one engine, one shared pool, closed-loop clients.
      device::PageCacheOptions popts;
      popts.name = std::string("serving_") + policies[pi];
      popts.capacity_bytes = cache_bytes;
      popts.policy = policy;
      popts.shards = cache_shards;
      auto pool = std::make_shared<device::ShardedPageCache>(popts);
      auto cache = std::make_shared<device::CachedDevice>(
          out_base.device_ptr(), pool);
      format::OnDiskGraph out_g(format::GraphIndex(out_base.index()), cache);
      format::OnDiskGraph in_g(format::GraphIndex(in_base.index()),
                               in_base.device_ptr());

      serve::EngineOptions opts;
      // Admission-capped: above 16 concurrent runners the engine queues
      // instead of oversubscribing (each running query brings its own
      // compute workers), so the 64-client row measures queueing — the
      // realistic server shape — not thread thrash.
      opts.max_inflight_queries = std::min<std::size_t>(clients, 16);
      opts.max_queue_depth = clients * per_client;
      if (const char* port = std::getenv("BLAZE_BENCH_METRICS_PORT")) {
        opts.metrics_port = static_cast<int>(std::atol(port));
      }
      auto serve_cfg = bench_config(out_g);
      serve_cfg.trace_enabled = last_config && !trace_path.empty();
      serve_cfg.metrics_enabled = last_config && !metrics_prefix.empty();
      serve_cfg.metrics_sample_ms = static_cast<std::uint32_t>(
          env_long("BLAZE_BENCH_METRICS_MS", 10));
      serve::QueryEngine engine(serve_cfg, opts);
      engine.observe_cache(pool.get());
      if (last_config && serve_cfg.metrics_enabled) pool->bind_metrics();
      if (engine.metrics_port() != 0) {
        std::fprintf(stderr,
                     "metrics endpoint: http://localhost:%u/metrics\n",
                     engine.metrics_port());
      }

      std::atomic<std::uint64_t> overload_retries{0};
      Timer wall;
      {
        std::vector<std::jthread> tpool;
        tpool.reserve(clients);
        for (std::size_t c = 0; c < clients; ++c) {
          tpool.emplace_back([&, c] {
            for (std::size_t q = 0; q < per_client; ++q) {
              const int kind = static_cast<int>((c + q) % 3);
              serve::QuerySpec spec;
              spec.run = make_query(kind, out_g, in_g, ref, mismatch);
              spec.label = std::string(kKinds[kind]) + "/c" +
                           std::to_string(c) + "q" + std::to_string(q);
              for (;;) {
                try {
                  engine.submit(spec)->wait();
                  break;
                } catch (const serve::ServeError& e) {
                  if (!e.retryable()) throw;
                  overload_retries.fetch_add(1, std::memory_order_relaxed);
                  std::this_thread::yield();
                }
              }
            }
          });
        }
      }
      engine.drain();
      const double wall_s = wall.seconds();

      const auto stats = engine.stats();
      // Informational under eviction pressure: with a pool deliberately
      // smaller than the working set, the shared cache can lose to the
      // isolated baseline (which gives one query the whole budget). The
      // baseline gate decides whether to require it.
      const bool cache_wins = stats.cache.hit_rate() > iso_rate;

      bool trace_written = false;
      std::string metrics_json_path, metrics_prom_path;
      std::uint64_t sampler_points = 0;
      if (last_config) {
        if (!trace_path.empty()) {
          trace_written = trace::write_chrome_trace(trace_path);
          if (!trace_written) {
            std::fprintf(stderr, "failed to write trace artifact %s\n",
                         trace_path.c_str());
            rc_artifacts = 1;
          }
        }
        if (!metrics_prefix.empty()) {
          engine.sampler().sample_once();  // fresh end-state point
          const auto ts = engine.sampler().snapshot();
          sampler_points = ts.points.size();
          const auto rows = metrics::Registry::instance().snapshot();
          const std::string jpath = metrics_prefix + ".json";
          const std::string ppath = metrics_prefix + ".prom";
          if (metrics::write_file(jpath,
                                  metrics::metrics_dump_json(rows, ts))) {
            metrics_json_path = jpath;
          } else {
            std::fprintf(stderr, "failed to write metrics artifact %s\n",
                         jpath.c_str());
            rc_artifacts = 1;
          }
          if (metrics::write_file(ppath, metrics::to_prometheus(rows))) {
            metrics_prom_path = ppath;
          } else {
            std::fprintf(stderr, "failed to write metrics artifact %s\n",
                         ppath.c_str());
            rc_artifacts = 1;
          }
        }
      }

      std::printf(
          "{\"bench\":\"serving\",\"graph\":\"%s\",\"clients\":%zu,"
          "\"policy\":\"%s\",\"shards\":%zu,\"cache_mib\":%.1f,"
          "\"sessions\":%zu,\"queries_per_client\":%zu,\"admitted\":%llu,"
          "\"completed\":%llu,\"failed\":%llu,"
          "\"overload_retries\":%llu,\"wall_s\":%.3f,\"qps\":%.2f,"
          "\"p50_ms\":%.2f,\"p95_ms\":%.2f,\"cache_hit_rate\":%.4f,"
          "\"cache_dedup_hits\":%llu,\"cache_ghost_hits\":%llu,"
          "\"isolated_hit_rate\":%.4f,"
          "\"io_retries\":%llu,\"io_gave_up\":%llu,"
          "\"trace_path\":\"%s\","
          "\"metrics_path\":\"%s\",\"metrics_prom_path\":\"%s\","
          "\"sampler_points\":%llu,"
          "\"results_match\":%s,\"shared_cache_wins\":%s}\n",
          ds.name.c_str(), clients, policies[pi].c_str(),
          pool->shard_count(),
          static_cast<double>(pool->capacity_bytes()) / (1 << 20),
          opts.max_inflight_queries, per_client,
          static_cast<unsigned long long>(stats.admitted),
          static_cast<unsigned long long>(stats.completed),
          static_cast<unsigned long long>(stats.failed),
          static_cast<unsigned long long>(overload_retries.load()), wall_s,
          wall_s > 0 ? static_cast<double>(stats.completed) / wall_s : 0.0,
          stats.p50_ms(), stats.p95_ms(), stats.cache.hit_rate(),
          static_cast<unsigned long long>(stats.cache.dedup_hits),
          static_cast<unsigned long long>(stats.cache.ghost_hits),
          iso_rate,
          static_cast<unsigned long long>(stats.aggregate.retries),
          static_cast<unsigned long long>(stats.aggregate.gave_up),
          trace_written ? trace_path.c_str() : "",
          metrics_json_path.c_str(), metrics_prom_path.c_str(),
          static_cast<unsigned long long>(sampler_points),
          !mismatch.load() ? "true" : "false",
          cache_wins ? "true" : "false");
      std::fflush(stdout);
    }
  }

  const bool results_match = !mismatch.load();
  return results_match && rc_artifacts == 0 ? 0 : 1;
}
