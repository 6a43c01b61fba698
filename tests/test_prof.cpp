// blaze::prof: SHARDS reuse-distance sampling vs an exact LRU stack
// oracle on seeded synthetic traces (uniform, Zipf, sequential scan),
// the sampling-rate-adaptation path, stall attribution, the pool
// access-observer wiring, and namespace admission caps (catalog budget
// enforcement).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/runtime.h"
#include "device/page_cache.h"
#include "prof/profiler.h"
#include "prof/reuse_sampler.h"
#include "prof/stall.h"
#include "util/rng.h"

namespace blaze::prof {
namespace {

// ---- Trace generators (seeded, deterministic) ----------------------------

std::vector<std::uint64_t> uniform_trace(std::size_t n, std::uint64_t keys,
                                         std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> t(n);
  for (auto& k : t) k = rng.next_below(keys);
  return t;
}

/// Exact Zipf(s = 1) over `keys` keys via inverse-CDF binary search.
std::vector<std::uint64_t> zipf_trace(std::size_t n, std::uint64_t keys,
                                      std::uint64_t seed) {
  std::vector<double> cdf(keys);
  double sum = 0;
  for (std::uint64_t k = 0; k < keys; ++k) {
    sum += 1.0 / static_cast<double>(k + 1);
    cdf[k] = sum;
  }
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> t(n);
  for (auto& k : t) {
    const double u =
        static_cast<double>(rng.next_below(1u << 30)) / (1u << 30) * sum;
    k = static_cast<std::uint64_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }
  return t;
}

/// Repeated sequential sweep: the LRU-adversarial pattern (every reuse
/// distance equals the scan length).
std::vector<std::uint64_t> scan_trace(std::size_t n, std::uint64_t keys) {
  std::vector<std::uint64_t> t(n);
  for (std::size_t i = 0; i < n; ++i) t[i] = i % keys;
  return t;
}

// ---- Brute-force LRU oracle ----------------------------------------------

/// Hit counts of fully-associative LRU caches of every power-of-two size,
/// by direct stack simulation (O(n * distinct)).
struct LruOracle {
  std::uint64_t total = 0;
  std::vector<std::uint64_t> hits_at_pow2;  ///< index k: cache size 2^k

  explicit LruOracle(const std::vector<std::uint64_t>& trace) {
    hits_at_pow2.assign(40, 0);
    std::vector<std::uint64_t> stack;  // MRU first
    for (const std::uint64_t key : trace) {
      ++total;
      auto it = std::find(stack.begin(), stack.end(), key);
      if (it != stack.end()) {
        const auto d =
            static_cast<std::uint64_t>(it - stack.begin());  // 0 = MRU
        for (std::size_t k = 0; k < hits_at_pow2.size(); ++k) {
          if (d < (1ull << k)) ++hits_at_pow2[k];
        }
        stack.erase(it);
      }
      stack.insert(stack.begin(), key);
    }
  }

  double miss_ratio_at_pow2(std::size_t k) const {
    return total == 0
               ? 1.0
               : 1.0 - static_cast<double>(hits_at_pow2[k]) /
                           static_cast<double>(total);
  }
};

/// Mean absolute error between the estimated and exact curves at
/// power-of-two sizes 2^min_k .. 2^max_k. Sampled-mode tests start at
/// min_k = 4 (16 pages): scaling a tiny reuse distance by 1/rate is
/// inherently coarse below ~1/rate pages (a SHARDS property, not a bug),
/// and no consumer queries the curve there — the apportioner's chunk floor
/// is 16 pages and real cache budgets start far above it.
double curve_mae_vs_oracle(const MissRatioCurve& curve,
                           const LruOracle& oracle, std::size_t min_k,
                           std::size_t max_k) {
  double err = 0;
  for (std::size_t k = min_k; k <= max_k; ++k) {
    err += std::abs(curve.miss_ratio_at(1ull << k) -
                    oracle.miss_ratio_at_pow2(k));
  }
  return err / static_cast<double>(max_k - min_k + 1);
}

MissRatioCurve run_sampler(const std::vector<std::uint64_t>& trace,
                           ReuseSamplerOptions opts) {
  ReuseSampler s(opts);
  for (const std::uint64_t key : trace) s.record(key);
  return s.curve();
}

// ---- Exact mode == LRU stack simulation ----------------------------------

TEST(ReuseSamplerExact, MatchesLruOracleOnUniform) {
  const auto trace = uniform_trace(20000, 500, 42);
  const LruOracle oracle(trace);
  ReuseSamplerOptions opts;
  opts.exact = true;
  const MissRatioCurve curve = run_sampler(trace, opts);
  ASSERT_FALSE(curve.empty());
  EXPECT_EQ(curve.accesses, trace.size());
  EXPECT_EQ(curve.sampled, trace.size());
  EXPECT_DOUBLE_EQ(curve.sample_rate, 1.0);
  // Power-of-two sizes: the bucketed curve is exact, not approximate.
  for (std::size_t k = 0; k <= 10; ++k) {
    EXPECT_NEAR(curve.miss_ratio_at(1ull << k),
                oracle.miss_ratio_at_pow2(k), 1e-12)
        << "cache size 2^" << k;
  }
}

TEST(ReuseSamplerExact, MatchesLruOracleOnScan) {
  // 64-page sweep: miss ratio must be 1.0 below 64 pages (LRU is blind to
  // loops) and collapse to the cold-miss floor at >= 64.
  const auto trace = scan_trace(64 * 50, 64);
  const LruOracle oracle(trace);
  ReuseSamplerOptions opts;
  opts.exact = true;
  const MissRatioCurve curve = run_sampler(trace, opts);
  for (std::size_t k = 0; k <= 8; ++k) {
    EXPECT_NEAR(curve.miss_ratio_at(1ull << k),
                oracle.miss_ratio_at_pow2(k), 1e-12);
  }
  EXPECT_NEAR(curve.miss_ratio_at(32), 1.0, 1e-12);
  EXPECT_NEAR(curve.miss_ratio_at(64), 64.0 / (64.0 * 50.0), 1e-9);
}

TEST(ReuseSamplerExact, CurveIsMonotoneNonIncreasing) {
  const auto trace = zipf_trace(30000, 2000, 7);
  ReuseSamplerOptions opts;
  opts.exact = true;
  const MissRatioCurve curve = run_sampler(trace, opts);
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    EXPECT_LE(curve.points[i].miss_ratio,
              curve.points[i - 1].miss_ratio + 1e-12);
  }
}

// ---- Sampled estimator accuracy (the 0.05 MAE property) ------------------

TEST(ReuseSamplerSampled, UniformTraceWithinMae) {
  const auto trace = uniform_trace(60000, 3000, 1234);
  const LruOracle oracle(trace);
  ReuseSamplerOptions opts;
  opts.sample_budget = 512;
  opts.initial_rate = 0.25;  // spatial subsample from the start
  const MissRatioCurve curve = run_sampler(trace, opts);
  ASSERT_FALSE(curve.empty());
  EXPECT_LT(curve_mae_vs_oracle(curve, oracle, 4, 12), 0.05);
}

TEST(ReuseSamplerSampled, ZipfTraceWithinMae) {
  const auto trace = zipf_trace(60000, 4096, 99);
  const LruOracle oracle(trace);
  ReuseSamplerOptions opts;
  opts.sample_budget = 512;
  opts.initial_rate = 0.25;
  const MissRatioCurve curve = run_sampler(trace, opts);
  ASSERT_FALSE(curve.empty());
  EXPECT_LT(curve_mae_vs_oracle(curve, oracle, 4, 12), 0.05);
}

TEST(ReuseSamplerSampled, ScanTraceWithinMae) {
  const auto trace = scan_trace(40000, 256);
  const LruOracle oracle(trace);
  ReuseSamplerOptions opts;
  opts.sample_budget = 128;
  const MissRatioCurve curve = run_sampler(trace, opts);
  ASSERT_FALSE(curve.empty());
  EXPECT_LT(curve_mae_vs_oracle(curve, oracle, 4, 10), 0.05);
}

TEST(ReuseSamplerSampled, BudgetForcesRateAdaptation) {
  // 50k distinct keys against a 256-key budget: the hash threshold MUST
  // shrink (the SHARDS adaptation path) and the tracked set stays within
  // budget, yet the curve still resembles the oracle.
  const auto trace = uniform_trace(100000, 50000, 5);
  const LruOracle oracle(trace);
  ReuseSamplerOptions opts;
  opts.sample_budget = 256;
  ReuseSampler s(opts);
  for (const std::uint64_t key : trace) s.record(key);
  EXPECT_LT(s.sample_rate(), 1.0);
  EXPECT_LE(s.tracked_keys(), opts.sample_budget);
  const MissRatioCurve curve = s.curve();
  ASSERT_FALSE(curve.empty());
  EXPECT_LT(curve.sampled, curve.accesses);
  // Uniform over 50k keys barely fits any cache: the curve must stay high
  // until well past 2^14 pages. A generous bound — the point is the
  // adapted estimator is still sane, the tight MAE gate runs above.
  EXPECT_LT(curve_mae_vs_oracle(curve, oracle, 4, 16), 0.1);
}

TEST(ReuseSamplerSampled, ResetKeepsAdaptedRate) {
  ReuseSamplerOptions opts;
  opts.sample_budget = 64;
  ReuseSampler s(opts);
  for (const std::uint64_t key : uniform_trace(50000, 20000, 11)) {
    s.record(key);
  }
  const double adapted = s.sample_rate();
  ASSERT_LT(adapted, 1.0);
  s.reset();
  EXPECT_EQ(s.tracked_keys(), 0u);
  EXPECT_EQ(s.accesses(), 0u);
  EXPECT_DOUBLE_EQ(s.sample_rate(), adapted);
}

TEST(ReuseSamplerSampled, RecordRunCountsEveryPage) {
  ReuseSamplerOptions opts;
  opts.exact = true;
  ReuseSampler s(opts);
  s.record_run(100, 4);
  s.record_run(100, 4);
  EXPECT_EQ(s.accesses(), 8u);
  const MissRatioCurve curve = s.curve();
  // Second run re-touches 4 pages at distance 3 each: all hit at C >= 4.
  EXPECT_NEAR(curve.miss_ratio_at(4), 0.5, 1e-12);
}

// ---- MissRatioCurve interpolation ----------------------------------------

TEST(MissRatioCurve, InterpolatesAndClamps) {
  MissRatioCurve c;
  c.sampled = 100;
  c.points = {{1, 1.0}, {2, 0.8}, {4, 0.2}};
  EXPECT_DOUBLE_EQ(c.miss_ratio_at(0), 1.0);
  EXPECT_DOUBLE_EQ(c.miss_ratio_at(1), 1.0);
  EXPECT_DOUBLE_EQ(c.miss_ratio_at(2), 0.8);
  EXPECT_DOUBLE_EQ(c.miss_ratio_at(4), 0.2);
  EXPECT_DOUBLE_EQ(c.miss_ratio_at(1024), 0.2);  // clamped past the end
  const double mid = c.miss_ratio_at(3);          // log2-linear between 2 and 4
  EXPECT_GT(mid, 0.2);
  EXPECT_LT(mid, 0.8);
  MissRatioCurve empty;
  EXPECT_DOUBLE_EQ(empty.miss_ratio_at(64), 1.0);
}

// ---- StallBreakdown ------------------------------------------------------

TEST(StallBreakdown, FoldConvertsWorkerNsToWallShare) {
  io::PipelineStats stats;
  stats.io_wait_ns = 8'000'000'000;  // 4 workers x 2s each
  stats.buffer_stall_ns = 123;
  const StallBreakdown b = StallBreakdown::fold(stats, 3'000'000'000, 500, 4);
  EXPECT_EQ(b.io_stall_ns, 8'000'000'000u);
  EXPECT_EQ(b.compute_ns, 1'000'000'000u);  // 3s exec - 2s io wall
  EXPECT_EQ(b.admission_wait_ns, 500u);
  EXPECT_EQ(b.backpressure_ns, 123u);
  EXPECT_EQ(b.dominant(), "io");
  EXPECT_NEAR(b.io_fraction(), 2.0 / 3.0, 1e-9);
}

TEST(StallBreakdown, IoShareClampsToExecTime) {
  io::PipelineStats stats;
  stats.io_wait_ns = 100'000'000'000;  // way past exec
  const StallBreakdown b = StallBreakdown::fold(stats, 1'000'000, 0, 2);
  EXPECT_EQ(b.compute_ns, 0u);
  EXPECT_DOUBLE_EQ(b.io_fraction(), 1.0);
}

TEST(StallBreakdown, ComputeBoundAndMerge) {
  io::PipelineStats stats;
  stats.io_wait_ns = 10;
  StallBreakdown b = StallBreakdown::fold(stats, 1'000'000'000, 0, 4);
  EXPECT_EQ(b.dominant(), "compute");
  StallBreakdown o = b;
  b.merge(o);
  EXPECT_EQ(b.exec_ns, 2'000'000'000u);
  EXPECT_EQ(b.io_stall_ns, 20u);
}

// ---- Profiler wiring over the pool ---------------------------------------

device::PageCacheOptions small_pool_opts(std::size_t pages,
                                         std::size_t shards = 1) {
  device::PageCacheOptions opts;
  opts.capacity_bytes = pages * kPageSize;
  opts.shards = shards;
  return opts;
}

void touch_page(device::ShardedPageCache& pool, std::uint64_t key) {
  std::vector<std::byte> buf(kPageSize);
  if (pool.try_start_run(key, 1, buf.data()) == device::RunState::kOwned) {
    pool.fill(key, buf.data());
    pool.end_run(key, 1);
  }
}

TEST(WorkloadProfiler, ObservesPoolAccessesPerNamespace) {
  auto pool =
      std::make_shared<device::ShardedPageCache>(small_pool_opts(64));
  const std::uint64_t ns_a = pool->register_device("a").base;
  const std::uint64_t ns_b = pool->register_device("b").base;
  WorkloadProfiler prof;
  prof.attach(pool);
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint64_t p = 0; p < 8; ++p) touch_page(*pool, ns_a + p);
  }
  touch_page(*pool, ns_b + 0);
  EXPECT_EQ(prof.accesses_of(ns_a), 24u);
  EXPECT_EQ(prof.accesses_of(ns_b), 1u);
  prof.bind_namespace(ns_a, "graph/a", /*bind_metrics=*/false);
  const auto curves = prof.curves();
  ASSERT_EQ(curves.size(), 2u);
  EXPECT_EQ(curves[0].ns_base, ns_a);
  ASSERT_FALSE(curves[0].curve.empty());
  // 8-page loop: everything hits once the cache holds 8 pages.
  EXPECT_LT(curves[0].curve.miss_ratio_at(8), 0.5);
  EXPECT_EQ(curves[0].name, "graph/a");
  EXPECT_TRUE(curves[1].name.empty());
  prof.detach();
  touch_page(*pool, ns_a + 100);
  EXPECT_EQ(prof.accesses_of(ns_a), 24u);  // detached: not counted
}

TEST(WorkloadProfiler, RuntimeBuildsProfilerOnlyWhenWanted) {
  core::Config off;
  off.cache_bytes = 1 << 20;
  core::Runtime rt_off(off);
  EXPECT_EQ(rt_off.profiler(), nullptr);

  core::Config on = off;
  on.profile_enabled = true;
  core::Runtime rt_on(on);
  ASSERT_NE(rt_on.profiler(), nullptr);
  EXPECT_EQ(rt_on.page_cache()->access_observer(), rt_on.profiler());

  core::Config nopool;
  nopool.profile_enabled = true;  // wants one, but there is no pool
  core::Runtime rt_nopool(nopool);
  EXPECT_EQ(rt_nopool.profiler(), nullptr);
}

// ---- Namespace admission caps (catalog budget enforcement) ---------------

TEST(NamespaceCap, CapsResidencyWithoutBreakingDedup) {
  auto pool =
      std::make_shared<device::ShardedPageCache>(small_pool_opts(64));
  const std::uint64_t ns_a = pool->register_device("a").base;
  const std::uint64_t ns_b = pool->register_device("b").base;
  pool->set_namespace_cap(ns_b, 8 * kPageSize);
  for (std::uint64_t p = 0; p < 32; ++p) touch_page(*pool, ns_b + p);
  for (std::uint64_t p = 0; p < 16; ++p) touch_page(*pool, ns_a + p);
  const auto usage = pool->namespace_usage();
  ASSERT_EQ(usage.size(), 2u);
  std::uint64_t resident_a = 0, resident_b = 0;
  for (const auto& u : usage) {
    if (u.base == ns_a) resident_a = u.resident_pages;
    if (u.base == ns_b) resident_b = u.resident_pages;
  }
  EXPECT_LE(resident_b, 8u);   // cap held
  EXPECT_EQ(resident_a, 16u);  // uncapped neighbor unaffected
  // Pages admitted before the cap bit still serve hits.
  std::vector<std::byte> buf(kPageSize);
  std::uint64_t hits = 0;
  for (std::uint64_t p = 0; p < 32; ++p) {
    hits += pool->lookup_run(ns_b + p, 1, buf.data()) ? 1 : 0;
  }
  EXPECT_EQ(hits, resident_b);
  // Removing the cap re-opens admission.
  pool->set_namespace_cap(ns_b, 0);
  for (std::uint64_t p = 32; p < 40; ++p) touch_page(*pool, ns_b + p);
  std::uint64_t resident_after = 0;
  for (const auto& u : pool->namespace_usage()) {
    if (u.base == ns_b) resident_after = u.resident_pages;
  }
  EXPECT_GT(resident_after, resident_b);
}

}  // namespace
}  // namespace blaze::prof
