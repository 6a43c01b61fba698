// blaze::serve — concurrent multi-query serving over one shared Runtime.
//
// The ROADMAP's north star is a server, not a harness: many clients, one
// machine, one copy of the IO machinery. FlashGraph demonstrates the
// winning shape for semi-external graph engines — persistent per-SSD IO
// threads and one shared page cache serving many concurrent queries — and
// this subsystem brings it to Blaze:
//
//   QueryEngine
//     ├── core::Runtime            (shared: config template, IO pipeline —
//     │                             one reader thread per device)
//     ├── session threads (N = max_inflight_queries), each owning ONE
//     │     core::QueryContext     (per-query: bins, scatter staging, and a
//     │                             1/N slice of the IO buffer budget)
//     └── bounded submission queue (admission control)
//
// Admission is explicit and typed, in the style of the io::IoError
// taxonomy: a full queue raises ServeError{kOverloaded} (back off and
// resubmit), a draining engine raises kShuttingDown, a tenant over its
// admission quota raises kQuotaExceeded, and a query whose deadline
// lapses while queued completes as kExpired with
// ServeError{kDeadlineExpired} recorded on its ticket.
//
// Multi-tenant scheduling: every query belongs to a tenant (the empty
// name is the default tenant, so single-principal callers see the
// original behaviour unchanged). Cross-tenant dispatch order is deficit
// round-robin over registered weights (serve::TenantScheduler); priority
// keeps its meaning *within* a tenant (higher first, FIFO within a
// level) — a tenant cannot starve the ring by inflating its priorities.
//
// Multi-graph serving: attach_catalog() points the engine at a
// serve::GraphCatalog; a QuerySpec naming a catalog graph is resolved at
// admission to a pinning handle, stamped into the session's QueryContext
// (ctx.graph() / ctx.tenant()) for the query body, and released when the
// query finishes — so a concurrent catalog close() of that graph never
// frees storage under a running query.
//
// Statistics aggregate bottom-up exactly like the fault counters of the IO
// pipeline: each query's core::QueryStats (which embeds io::PipelineStats,
// including retries / failed_requests / gave_up) merges into the engine's
// aggregate, and per-query wall latency feeds a log-bucketed histogram for
// p50/p95 reporting.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/runtime.h"
#include "core/stats.h"
#include "device/cached_device.h"
#include "metrics/http_export.h"
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "prof/stall.h"
#include "serve/query_fusion.h"
#include "serve/serve_error.h"
#include "serve/tenant_sched.h"
#include "trace/tracer.h"
#include "util/histogram.h"

#include <condition_variable>
#include <deque>
#include <mutex>

namespace blaze::serve {

/// Engine sizing knobs.
struct EngineOptions {
  /// Concurrent query sessions (executor threads, each with its own
  /// QueryContext). The paper's static IO buffer budget is divided across
  /// them so one stalled query can never starve another's reads.
  std::size_t max_inflight_queries = 4;

  /// Bounded submission queue depth; a submit beyond it is rejected with
  /// ServeError{kOverloaded} instead of queueing unboundedly.
  std::size_t max_queue_depth = 64;

  /// Compute workers per session's QueryContext; 0 = the Runtime config's
  /// compute_workers.
  std::size_t workers_per_query = 0;

  /// Per-session IO buffer slice; 0 = Config::io_buffer_bytes divided
  /// evenly across max_inflight_queries.
  std::size_t io_buffer_bytes_per_query = 0;

  /// Queries whose submit-to-terminal latency reaches this many seconds
  /// are recorded in EngineStats::slow_queries (most recent
  /// kMaxSlowQueries kept). 0 disables the log.
  double slow_query_threshold_s = 0;

  /// Embedded Prometheus scrape endpoint: -1 (default) disables it, 0
  /// binds an ephemeral port (read the actual one back via
  /// QueryEngine::metrics_port()), anything else binds that TCP port.
  /// GET /metrics serves the text exposition, GET /metrics.json the JSON
  /// snapshot plus the engine sampler's time series.
  int metrics_port = -1;
};

/// The work of one query: runs against a session-owned QueryContext and
/// returns the query's stats (algorithms' serve-style entry points match
/// this shape directly).
using QueryFn = std::function<core::QueryStats(core::QueryContext&)>;

/// One query submission.
struct QuerySpec {
  QueryFn run;
  std::string label;      ///< for logs and per-query reporting
  int priority = 0;       ///< higher runs earlier within the tenant;
                          ///< FIFO within a level
  double deadline_s = 0;  ///< from submission; 0 = none. A query still
                          ///< queued past its deadline never runs.
  std::string tenant;     ///< fair-queueing principal; "" = default tenant
  std::string graph;      ///< catalog graph to resolve and pin; "" = none
                          ///< (requires attach_catalog when set)
};

enum class QueryState : std::uint8_t {
  kQueued,
  kRunning,
  kDone,
  kFailed,   ///< run() threw; see error()
  kExpired,  ///< deadline lapsed in the queue; error() holds the ServeError
};

inline const char* to_string(QueryState s) {
  switch (s) {
    case QueryState::kQueued: return "queued";
    case QueryState::kRunning: return "running";
    case QueryState::kDone: return "done";
    case QueryState::kFailed: return "failed";
    case QueryState::kExpired: return "expired";
  }
  return "unknown";
}

/// Completion handle for one submitted query. Thread-safe.
class QueryTicket {
 public:
  /// Blocks until the query reaches a terminal state.
  void wait() const {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return terminal_locked(); });
  }

  QueryState state() const {
    std::lock_guard lock(mu_);
    return state_;
  }

  /// The query's stats; meaningful once state() == kDone.
  core::QueryStats stats() const {
    std::lock_guard lock(mu_);
    return stats_;
  }

  /// The failure, when state() is kFailed or kExpired.
  std::exception_ptr error() const {
    std::lock_guard lock(mu_);
    return error_;
  }

  /// Submission-to-completion wall latency in seconds (includes queue
  /// wait); meaningful once terminal.
  double latency_s() const {
    std::lock_guard lock(mu_);
    return latency_s_;
  }

  /// Where this query's time went (prof::StallBreakdown: admission wait,
  /// IO starvation vs compute, buffer backpressure); meaningful once
  /// terminal. Zeroes for expired queries (they never executed).
  prof::StallBreakdown stall() const {
    std::lock_guard lock(mu_);
    return stall_;
  }

  const std::string& label() const { return label_; }

 private:
  friend class QueryEngine;
  explicit QueryTicket(std::string label) : label_(std::move(label)) {}

  bool terminal_locked() const {
    return state_ == QueryState::kDone || state_ == QueryState::kFailed ||
           state_ == QueryState::kExpired;
  }

  void finish(QueryState s, core::QueryStats stats, std::exception_ptr err,
              double latency_s, const prof::StallBreakdown& stall = {}) {
    {
      std::lock_guard lock(mu_);
      state_ = s;
      stats_ = stats;
      error_ = err;
      latency_s_ = latency_s;
      stall_ = stall;
    }
    cv_.notify_all();
  }

  void set_running() {
    std::lock_guard lock(mu_);
    state_ = QueryState::kRunning;
  }

  const std::string label_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  QueryState state_ = QueryState::kQueued;
  core::QueryStats stats_;
  std::exception_ptr error_;
  double latency_s_ = 0;
  prof::StallBreakdown stall_;
};

/// One entry of the slow-query log (EngineOptions::slow_query_threshold_s).
struct SlowQuery {
  std::string label;
  double latency_s = 0;
  QueryState state = QueryState::kDone;  ///< terminal state it reached
  trace::QueryId query = 0;  ///< joins against the exported trace's pid
  /// Bottleneck attribution — the log answers "slow WHY", not just "slow":
  /// stall.dominant() is one of admission/io/compute.
  prof::StallBreakdown stall;
};

/// Engine-level aggregate statistics (one snapshot; see QueryEngine::stats).
struct EngineStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;  ///< kOverloaded + kShuttingDown +
                               ///< kQuotaExceeded submissions
  std::uint64_t quota_rejected = 0;  ///< the kQuotaExceeded subset
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t expired = 0;

  /// Sum over completed queries' QueryStats — the PR-2 fault counters
  /// (retries, failed_requests, gave_up) aggregate across sessions here.
  core::QueryStats aggregate;

  /// Sum of per-query stall breakdowns over executed terminal queries
  /// (prof::StallBreakdown; expired queries contribute only admission
  /// wait). stalls.io_fraction() is the engine-level "how IO-bound are
  /// we" answer.
  prof::StallBreakdown stalls;

  /// Submission-to-completion latency, microseconds, over terminal queries.
  Log2Histogram latency_us;

  double p50_ms() const {
    return static_cast<double>(latency_us.percentile(0.50)) / 1000.0;
  }
  double p95_ms() const {
    return static_cast<double>(latency_us.percentile(0.95)) / 1000.0;
  }

  /// The observed pool's counters at snapshot time (zero unless the
  /// engine was given a pool to observe; see QueryEngine::observe_cache).
  device::CacheCounters cache;

  /// Terminal queries at or past slow_query_threshold_s, oldest first
  /// (the most recent QueryEngine::kMaxSlowQueries are kept).
  std::vector<SlowQuery> slow_queries;

  /// Per-tenant queue/fairness counters (registration order; includes
  /// the auto-registered default tenant once it has submitted).
  std::vector<TenantStats> tenants;
};

/// A serving engine: owns one core::Runtime (one IO pipeline, one set of
/// per-device reader threads) and max_inflight_queries session threads
/// executing admitted queries concurrently, each through its own
/// QueryContext. Thread-safe: any thread may submit; drain() completes all
/// admitted work and stops the sessions.
class GraphCatalog;

class QueryEngine {
 public:
  explicit QueryEngine(core::Config config, EngineOptions opts = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Admits a query or throws ServeError (kOverloaded when the submission
  /// queue is full, kQuotaExceeded when the spec's tenant is over its
  /// max_queued, kShuttingDown after drain() began). A spec naming a
  /// catalog graph additionally resolves — and pins — that graph here
  /// (std::invalid_argument for unknown graphs or a missing catalog).
  /// The returned ticket tracks the query to a terminal state.
  std::shared_ptr<QueryTicket> submit(QuerySpec spec);

  /// Admits `specs` as ONE fused admission unit against `base.graph`
  /// (catalog required): the members run in lockstep over a single
  /// unioned page stream (serve::run_fused), so K same-graph BFS cost
  /// ~1x IO. `base.run` is ignored; `results` receives the per-member
  /// outputs before the ticket turns terminal.
  std::shared_ptr<QueryTicket> submit_fused(
      QuerySpec base, std::vector<FusedQuerySpec> specs,
      std::shared_ptr<std::vector<FusedResult>> results);

  /// Declares a tenant's fair-queueing weight and admission quota.
  /// Unknown tenants named in submissions are auto-registered with
  /// default options (weight 1, no quota), so single-tenant callers
  /// never see this surface.
  void register_tenant(const std::string& name, TenantOptions opts = {});

  /// Points the engine at the catalog that resolves QuerySpec::graph.
  /// The catalog must outlive the engine (or be detached with nullptr
  /// after drain()).
  void attach_catalog(GraphCatalog* catalog);
  GraphCatalog* catalog() const { return catalog_; }

  /// Stops admitting, runs every already-admitted query to a terminal
  /// state, and joins the session threads. Idempotent; called by the
  /// destructor if the owner did not.
  void drain();

  /// Points the engine at the page-cache pool its graphs read through, so
  /// stats() can report its counters. Optional; the engine never creates
  /// the pool (the graph/device stack is the caller's).
  void observe_cache(const device::ShardedPageCache* pool) { cache_ = pool; }

  /// Snapshot of the aggregate statistics.
  EngineStats stats() const;

  /// The engine's background metrics sampler (always running; interval =
  /// Config::metrics_sample_ms). Serving is the observability surface, so
  /// the engine turns on the process-wide metrics gate and samples the
  /// registry — per-device bandwidth, pool occupancy, queue depth — for
  /// the whole of its lifetime.
  const metrics::Sampler& sampler() const { return *sampler_; }
  metrics::Sampler& sampler() { return *sampler_; }

  /// Actual port of the embedded scrape endpoint; 0 when disabled
  /// (EngineOptions::metrics_port == -1) or when the bind failed.
  std::uint16_t metrics_port() const {
    return http_ ? http_->port() : 0;
  }

  /// The shared runtime (e.g. to open graphs against its config).
  core::Runtime& runtime() { return runtime_; }
  const EngineOptions& options() const { return opts_; }

  /// True when every session's IO-buffer slice is back at full occupancy
  /// (quiesces the pipeline first). Only meaningful while no queries are
  /// executing — the chaos tests' post-drain leak check.
  bool io_pools_full();

  /// Slow-query log depth (see EngineOptions::slow_query_threshold_s).
  static constexpr std::size_t kMaxSlowQueries = 64;

 private:
  struct Entry {
    QuerySpec spec;
    std::shared_ptr<QueryTicket> ticket;
    std::uint64_t submit_ns = 0;
    std::uint64_t deadline_ns = 0;     ///< absolute; 0 = none
    trace::QueryId query_id = 0;       ///< trace identity + slow-log join key
    /// Catalog pin resolved at admission: holds the graph alive across a
    /// concurrent close() until this query is terminal. Null for
    /// non-catalog queries.
    std::shared_ptr<const format::OnDiskGraph> graph;
  };

  /// Owned registry handles for the serve-layer series. Bound once in the
  /// constructor (the engine enables metrics unconditionally), so the
  /// submit/execute paths update them lock-free without touching the
  /// registry again.
  struct ServeMetrics {
    metrics::Counter* admitted = nullptr;
    metrics::Counter* rejected = nullptr;
    metrics::Counter* quota_rejected = nullptr;
    metrics::Counter* completed = nullptr;
    metrics::Counter* failed = nullptr;
    metrics::Counter* expired = nullptr;
    metrics::Histogram* latency_us = nullptr;
    // Stall-attribution axes (prof::StallBreakdown), cumulative ns.
    metrics::Counter* io_stall_ns = nullptr;
    metrics::Counter* compute_ns = nullptr;
    metrics::Counter* admission_wait_ns = nullptr;
  };

  /// Per-tenant lock-free counter handles, created by register_tenant /
  /// first submission (registry calls happen before mu_ is taken — see
  /// the lock rules on metrics_bindings_).
  struct TenantMetrics {
    metrics::Counter* admitted = nullptr;
    metrics::Counter* served = nullptr;
    metrics::Counter* quota_rejected = nullptr;
  };

  /// Ensures `tenant`'s metric handles exist; returns them. Never called
  /// with mu_ held.
  TenantMetrics& tenant_metrics(const std::string& tenant);

  void session_main(std::size_t slot);
  void execute(Entry& entry, core::QueryContext& ctx);
  void record_slow_locked(const Entry& entry, double latency_s,
                          QueryState state,
                          const prof::StallBreakdown& stall = {});

  const EngineOptions opts_;
  core::Config session_cfg_;  ///< per-session view: partitioned IO budget
  core::Runtime runtime_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< sessions: work available / stop
  std::condition_variable drain_cv_;  ///< drain(): queue empty, none running
  /// Cross-tenant DRR dispatch order over queued entry ids (guarded by
  /// mu_, like the deque it replaced); pending_ maps the ids back.
  TenantScheduler sched_;
  std::unordered_map<std::uint64_t, Entry> pending_;
  std::uint64_t next_entry_id_ = 1;
  std::size_t running_ = 0;
  bool draining_ = false;
  bool stop_ = false;

  GraphCatalog* catalog_ = nullptr;  ///< set before serving; not owned

  std::mutex tenant_metrics_mu_;
  std::unordered_map<std::string, TenantMetrics> tenant_metrics_;

  mutable std::mutex stats_mu_;
  EngineStats stats_;

  const device::ShardedPageCache* cache_ = nullptr;

  ServeMetrics metrics_;
  /// Queue-depth/running callback gauges (they take mu_, so nothing may
  /// call into the registry while holding mu_ — see metrics.h lock rules).
  /// Explicitly cleared in the destructor before the queue dies.
  metrics::BindingSet metrics_bindings_;
  std::unique_ptr<metrics::Sampler> sampler_;
  std::unique_ptr<metrics::MetricsHttpServer> http_;

  /// One context per session, engine-owned (not session-stack-local) so
  /// post-drain inspection — io_pools_full() — can see the arenas after
  /// the session threads are gone. Declared before sessions_: outlives
  /// the threads that use it.
  std::vector<std::unique_ptr<core::QueryContext>> contexts_;

  std::vector<std::jthread> sessions_;  ///< last: join before state dies
};

}  // namespace blaze::serve
