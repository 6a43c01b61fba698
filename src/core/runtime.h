// Blaze runtime: configuration, the persistent worker pool, and the
// persistent IO pipeline shared by every query executed against it.
#pragma once

#include <memory>

#include "core/config.h"
#include "core/query_context.h"
#include "device/cached_device.h"
#include "device/page_cache.h"
#include "io/io_pipeline.h"
#include "metrics/metrics.h"
#include "prof/profiler.h"
#include "trace/tracer.h"
#include "util/thread_pool.h"

namespace blaze::core {

/// Owns the machinery *shared* across queries: the persistent IO pipeline
/// (one reader thread per device) and a default compute pool. Per-query
/// mutable state — bins, IO buffer pool, scatter staging — lives in
/// QueryContext; the Runtime lazily materializes one default context so
/// the classic single-query call style (`edge_map(rt, ...)`) keeps
/// working unchanged, while serve::QueryEngine creates one context per
/// concurrent session over the same Runtime.
class Runtime {
 public:
  explicit Runtime(Config config)
      : config_(config), pool_(config.compute_workers) {
    // The gates are process-wide and sticky: a Runtime asking for tracing
    // or metrics turns them on, but a second off Runtime must not silently
    // disable a concurrent session's recording.
    if (config_.trace_enabled) trace::set_enabled(true);
    if (config_.metrics_enabled) metrics::set_enabled(true);
  }

  const Config& config() const { return config_; }
  ThreadPool& pool() { return pool_; }

  /// The persistent IO pipeline. Reader threads are created lazily on first
  /// submit and live as long as the Runtime, so consecutive EdgeMap calls
  /// reuse the same per-device IO threads (paper: one IO thread per SSD;
  /// FlashGraph's persistent-IO-thread design). Pure accessor — safe to
  /// call from concurrent query sessions.
  io::IoPipeline& io_pipeline() { return pipeline_; }

  /// The default per-query context backing the single-query call style.
  /// Lazily built from the current config; invalidated by mutable_config().
  /// NOT for concurrent use — concurrent sessions each construct their own
  /// QueryContext (see serve::QueryEngine).
  QueryContext& default_context() {
    if (!default_ctx_) {
      default_ctx_ =
          std::make_unique<QueryContext>(config_, pipeline_, pool_);
    }
    return *default_ctx_;
  }

  /// Mutable access for experiment sweeps. Changing bin_count /
  /// bin_space_bytes / io_buffer_bytes takes effect on the next EdgeMap;
  /// changing compute_workers requires a new Runtime. Must not be called
  /// while queries are executing.
  Config& mutable_config() {
    pipeline_.quiesce();   // no in-flight reads into pools being replaced
    default_ctx_.reset();  // rebuilt lazily from the new parameters
    return config_;
  }

  /// The shared page-cache pool, lazily built from the cache_* config
  /// knobs the first time it is asked for. Returns nullptr when
  /// cache_bytes == 0 (caching disabled). Every device wrapped through
  /// wrap_cached() registers with — and competes for — this one pool, so
  /// the budget covers the whole runtime rather than one device.
  const std::shared_ptr<device::ShardedPageCache>& page_cache() {
    if (!page_cache_ && config_.cache_bytes > 0) {
      device::PageCacheOptions opts;
      opts.capacity_bytes = config_.cache_bytes;
      opts.policy = config_.cache_policy;
      opts.shards = config_.cache_shards;
      page_cache_ = std::make_shared<device::ShardedPageCache>(opts);
      if (config_.metrics_enabled) page_cache_->bind_metrics();
    }
    return page_cache_;
  }

  /// The workload profiler, lazily built when profiling is requested —
  /// profile_enabled, or catalog_apportion == kMrc (the apportioner needs
  /// curves) — and attached to the shared pool's access stream. Returns
  /// nullptr when profiling is off AND the apportioner doesn't need it, or
  /// when there is no pool to observe.
  prof::WorkloadProfiler* profiler() {
    const bool wanted =
        config_.profile_enabled ||
        config_.catalog_apportion == CatalogApportion::kMrc;
    if (!profiler_ && wanted) {
      const auto& pool = page_cache();
      if (!pool) return nullptr;
      prof::ProfilerOptions opts;
      opts.sample_budget = config_.profile_sample_budget;
      profiler_ = std::make_unique<prof::WorkloadProfiler>(opts);
      profiler_->attach(pool);
    }
    return profiler_.get();
  }

  /// Wraps `dev` in a CachedDevice over the shared pool; returns `dev`
  /// unchanged when caching is disabled (cache_bytes == 0).
  std::shared_ptr<device::BlockDevice> wrap_cached(
      std::shared_ptr<device::BlockDevice> dev) {
    const auto& pool = page_cache();
    if (!pool) return dev;
    return std::make_shared<device::CachedDevice>(std::move(dev), pool);
  }

  // Legacy arena accessors, delegating to the default context (kept so the
  // single-query path and existing harnesses read naturally).
  BinSet& acquire_bins() { return default_context().acquire_bins(); }
  io::IoBufferPool& io_pool() { return default_context().io_pool(); }
  ScatterBuffer& scatter_buffer(std::size_t worker) {
    return default_context().scatter_buffer(worker);
  }

  /// Drops the default context's arenas; they are rebuilt lazily on next
  /// use. Experiment harnesses use this to return to a pristine footprint.
  /// Waits out any queued pipeline work first so no reader touches a pool
  /// being destroyed.
  void invalidate_arenas() {
    pipeline_.quiesce();
    if (default_ctx_) default_ctx_->invalidate_arenas();
  }

  /// Bytes currently held by the default context's arenas
  /// (memory-footprint figure).
  std::uint64_t arena_bytes() const {
    return default_ctx_ ? default_ctx_->arena_bytes() : 0;
  }

 private:
  Config config_;
  ThreadPool pool_;
  io::IoPipeline pipeline_;
  std::shared_ptr<device::ShardedPageCache> page_cache_;  ///< lazy; may stay null
  /// Declared after page_cache_ so it dies FIRST: its destructor detaches
  /// the observer from the (still-alive) pool.
  std::unique_ptr<prof::WorkloadProfiler> profiler_;  ///< lazy; may stay null
  // Declared after the pipeline: destroyed first, and its destructor
  // quiesces the (still-alive) pipeline, so no reader touches the arenas
  // while they die; the pipeline's own destructor then joins the readers.
  std::unique_ptr<QueryContext> default_ctx_;
};

}  // namespace blaze::core
