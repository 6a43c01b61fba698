// Runtime configuration for the Blaze engine.
//
// The knobs mirror the artifact's command-line options (-computeWorkers,
// -binCount, -binSpace, -binningRatio). Paper Section V-E shows performance
// is robust over a wide range; the defaults here follow its guidance: ~1k
// bins, bin space ≈ 5 % of graph size, equal scatter:gather split.
#pragma once

#include <cstddef>
#include <cstdint>

#include "device/eviction_policy.h"

namespace blaze::core {

/// How the monotone algorithms drive the engine. kBsp is the classic
/// barriered loop (one edge_map sweep per iteration); kAsync routes them
/// through sched::AsyncRunner — a priority bucket queue picks the
/// highest-residual vertices and only their pages are fetched, no
/// iteration barrier. Algorithms without an async formulation ignore the
/// knob and stay BSP.
enum class ExecutionMode { kBsp, kAsync };

/// How serve::GraphCatalog splits the shared cache budget across resident
/// graphs. kRecent is the legacy traffic heuristic (weight 1 +
/// recent_queries, largest-remainder division); kMrc allocates by greedy
/// marginal gain over each graph's profiled miss-ratio curve
/// (prof::apportion_by_mrc), falling back to the recent split until the
/// profiler has seen traffic.
enum class CatalogApportion { kRecent, kMrc };

struct Config {
  /// Total computation workers (scatter + gather). IO threads (one per
  /// device) are additional, as in the artifact's `-computeWorkers 16`
  /// plus one IO thread.
  std::size_t compute_workers = 4;

  /// Fraction of compute workers doing scatter (the artifact's
  /// -binningRatio). Clamped so both sides get at least one worker when
  /// compute_workers >= 2.
  double scatter_ratio = 0.5;

  /// Number of bins (the artifact's -binCount).
  std::size_t bin_count = 1024;

  /// Total DRAM for bin buffers, split over bin_count bins x 2 buffers
  /// (the artifact's -binSpace, in bytes here).
  std::size_t bin_space_bytes = 64ull << 20;

  /// Static IO buffer pool size (paper: 64 MB for all workloads).
  std::size_t io_buffer_bytes = 64ull << 20;

  /// When true, runs the synchronization-based variant used as the
  /// Figure 8 baseline: scatter threads apply gather_atomic() directly
  /// (compare-and-swap style) and online binning is bypassed.
  bool sync_mode = false;

  /// Enables the blaze::trace span recorder (process-wide gate; see
  /// trace/tracer.h). Off by default: every instrumentation point then
  /// costs one relaxed atomic load and a predictable branch.
  bool trace_enabled = false;

  /// Enables blaze::metrics publication (process-wide sticky gate, same
  /// semantics as trace_enabled; see metrics/metrics.h). Off by default
  /// outside serve: a metrics-off run pays at most a relaxed atomic load
  /// plus a null-pointer branch per instrumentation point.
  bool metrics_enabled = false;

  /// Interval of the background metrics sampler (time-series snapshots of
  /// the registry), in milliseconds. Consumed by whoever owns a
  /// metrics::Sampler over this config — serve::QueryEngine, blaze-run.
  std::uint32_t metrics_sample_ms = 100;

  /// Shared page-cache pool budget in bytes (--cacheMB on the CLI). 0
  /// disables the pool: devices are used raw unless a caller layers its
  /// own CachedDevice. When set, Runtime::page_cache() lazily builds one
  /// device::ShardedPageCache with this budget, and wrap_cached() devices
  /// share it.
  std::size_t cache_bytes = 0;

  /// Shard count for the shared pool (--cache-shards). 0 = auto: one
  /// shard per 256 cached pages, clamped to [1, 16]
  /// (ShardedPageCache::auto_shards).
  std::size_t cache_shards = 0;

  /// Eviction policy for the shared pool (--cache-policy). S3-FIFO is the
  /// default: EdgeMap's sequential scans flush an LRU's hot set, while the
  /// small/main/ghost queues keep cross-query hot pages resident.
  device::EvictionPolicy cache_policy = device::EvictionPolicy::kS3Fifo;

  /// Execution mode for the monotone algorithms (PageRank-delta, SSSP,
  /// WCC, k-core): BSP sweeps vs the sched::AsyncRunner priority loop
  /// (--mode on the CLI).
  ExecutionMode execution_mode = ExecutionMode::kBsp;

  /// Async-mode convergence epsilon (--epsilon). For PageRank-delta this
  /// is the per-vertex activation threshold relative to the current rank
  /// (the same rule the BSP variant uses, so both modes share a fixed
  /// point) and doubles as the global residual stop. The exact algorithms
  /// (SSSP/WCC/k-core) terminate on queue drain and ignore it.
  double async_epsilon = 1e-3;

  /// Bucket count for the async priority queue, including the overflow
  /// slot (--async-buckets).
  std::uint32_t async_buckets = 64;

  /// Enables the workload profiler (prof::WorkloadProfiler): per-namespace
  /// miss-ratio curves sampled from the page-cache access stream, exported
  /// via --profile and the metric registry. Off by default — a disabled
  /// run pays one relaxed atomic load + branch per cache access.
  bool profile_enabled = false;

  /// Per-namespace SHARDS sample budget (tracked keys) when profiling.
  std::size_t profile_sample_budget = 4096;

  /// Cache-apportioning rule for serve::GraphCatalog (--catalog-apportion).
  /// kMrc implies the profiler even when profile_enabled is false.
  CatalogApportion catalog_apportion = CatalogApportion::kRecent;

  /// When true, the catalog pushes its per-graph cache budgets into the
  /// pool as admission caps (ShardedPageCache::set_namespace_cap), giving
  /// the declared budgets physical teeth: a graph at its cap stops
  /// retaining new pages instead of evicting its neighbors'. Off by
  /// default (PR 9 behavior: budgets are advisory).
  bool catalog_enforce_budgets = false;

  /// Modeled per-update cost of cross-core atomic contention, applied only
  /// in sync_mode. On the paper's 16-core testbed contended CAS lines
  /// bounce between cores (tens of ns per update); this single-core
  /// container cannot produce that physically, so the Figure 8 bench burns
  /// the equivalent CPU time explicitly. 0 (the default) disables the
  /// model entirely.
  std::uint64_t sim_atomic_contention_ns = 0;

  std::size_t scatter_threads() const {
    if (compute_workers <= 1) return 1;
    auto s = static_cast<std::size_t>(
        static_cast<double>(compute_workers) * scatter_ratio + 0.5);
    if (s == 0) s = 1;
    if (s >= compute_workers) s = compute_workers - 1;
    return s;
  }

  std::size_t gather_threads() const {
    return compute_workers - scatter_threads() >= 1
               ? compute_workers - scatter_threads()
               : 0;
  }
};

}  // namespace blaze::core
