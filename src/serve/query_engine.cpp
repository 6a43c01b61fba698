#include "serve/query_engine.h"

#include <algorithm>

#include "serve/graph_catalog.h"
#include "util/timer.h"

namespace blaze::serve {

namespace {

core::Config session_config(const core::Config& base,
                            const EngineOptions& opts) {
  core::Config cfg = base;
  if (opts.workers_per_query != 0) {
    cfg.compute_workers = opts.workers_per_query;
  }
  // Partition the paper's static IO buffer budget across the admission
  // slots: each session's backpressure is then private to it, so one
  // pool-starved query can never stall another query's reads.
  if (opts.io_buffer_bytes_per_query != 0) {
    cfg.io_buffer_bytes = opts.io_buffer_bytes_per_query;
  } else {
    cfg.io_buffer_bytes =
        base.io_buffer_bytes / std::max<std::size_t>(1, opts.max_inflight_queries);
  }
  return cfg;
}

}  // namespace

QueryEngine::QueryEngine(core::Config config, EngineOptions opts)
    : opts_(opts),
      session_cfg_(session_config(config, opts_)),
      runtime_(config) {
  // One context per session, reused across the queries the session runs:
  // private bins, scatter staging, and IO buffer slice over the shared
  // pipeline. Engine-owned (not session-stack-local) so the arenas remain
  // inspectable after drain() joins the threads.
  contexts_.reserve(opts_.max_inflight_queries);
  sessions_.reserve(opts_.max_inflight_queries);
  for (std::size_t i = 0; i < opts_.max_inflight_queries; ++i) {
    contexts_.push_back(std::make_unique<core::QueryContext>(
        session_cfg_, runtime_.io_pipeline()));
  }
  // Serving IS the observability surface: the engine turns on the
  // process-wide metrics gate (sticky, like tracing), binds its owned
  // handles once, and publishes queue state as polled gauges. All registry
  // calls happen here, before any engine lock exists to invert against.
  metrics::set_enabled(true);
  metrics::Registry& reg = metrics::Registry::instance();
  metrics_.admitted = reg.counter("blaze_serve_admitted_total");
  metrics_.rejected = reg.counter("blaze_serve_rejected_total");
  metrics_.quota_rejected = reg.counter("blaze_serve_quota_rejected_total");
  metrics_.completed = reg.counter("blaze_serve_completed_total");
  metrics_.failed = reg.counter("blaze_serve_failed_total");
  metrics_.expired = reg.counter("blaze_serve_expired_total");
  metrics_.latency_us = reg.histogram("blaze_serve_latency_us");
  metrics_.io_stall_ns = reg.counter("blaze_serve_io_stall_ns_total");
  metrics_.compute_ns = reg.counter("blaze_serve_compute_ns_total");
  metrics_.admission_wait_ns =
      reg.counter("blaze_serve_admission_wait_ns_total");
  metrics_bindings_.add(
      reg.callback("blaze_serve_queue_depth", {}, metrics::Kind::kGauge,
                   [this] {
                     std::lock_guard lock(mu_);
                     return static_cast<double>(sched_.size());
                   }));
  metrics_bindings_.add(
      reg.callback("blaze_serve_running", {}, metrics::Kind::kGauge,
                   [this] {
                     std::lock_guard lock(mu_);
                     return static_cast<double>(running_);
                   }));
  metrics::Sampler::Options sampler_opts;
  sampler_opts.interval_ms = runtime_.config().metrics_sample_ms;
  sampler_ = std::make_unique<metrics::Sampler>(reg, sampler_opts);
  sampler_->start();
  if (opts_.metrics_port >= 0) {
    http_ = std::make_unique<metrics::MetricsHttpServer>(reg, sampler_.get());
    if (!http_->start(static_cast<std::uint16_t>(opts_.metrics_port))) {
      http_.reset();  // bind failure is non-fatal; metrics_port() reads 0
    }
  }
  for (std::size_t i = 0; i < opts_.max_inflight_queries; ++i) {
    sessions_.emplace_back([this, i] { session_main(i); });
  }
}

QueryEngine::~QueryEngine() {
  drain();
  // Teardown order mirrors the dependency chain: the HTTP endpoint reads
  // the sampler, the sampler snapshots the registry, and the registry's
  // snapshot runs the queue-depth callbacks that take mu_ — so stop the
  // exporters, then unregister the callbacks, before any engine state dies.
  if (http_) http_->stop();
  if (sampler_) sampler_->stop();
  metrics_bindings_.clear();
}

QueryEngine::TenantMetrics& QueryEngine::tenant_metrics(
    const std::string& tenant) {
  std::lock_guard lock(tenant_metrics_mu_);
  auto it = tenant_metrics_.find(tenant);
  if (it == tenant_metrics_.end()) {
    metrics::Registry& reg = metrics::Registry::instance();
    const metrics::Labels labels{
        {"tenant", tenant.empty() ? "default" : tenant}};
    TenantMetrics tm;
    tm.admitted = reg.counter("blaze_serve_tenant_admitted_total", labels);
    tm.served = reg.counter("blaze_serve_tenant_served_total", labels);
    tm.quota_rejected =
        reg.counter("blaze_serve_tenant_quota_rejected_total", labels);
    it = tenant_metrics_.emplace(tenant, tm).first;
  }
  return it->second;
}

void QueryEngine::register_tenant(const std::string& name,
                                  TenantOptions opts) {
  tenant_metrics(name);  // registry work strictly before mu_
  std::lock_guard lock(mu_);
  sched_.register_tenant(name, opts);
}

void QueryEngine::attach_catalog(GraphCatalog* catalog) {
  std::lock_guard lock(mu_);
  catalog_ = catalog;
}

std::shared_ptr<QueryTicket> QueryEngine::submit(QuerySpec spec) {
  auto ticket = std::shared_ptr<QueryTicket>(new QueryTicket(spec.label));
  // Registry + catalog work happens before the queue lock: the catalog
  // resolution pins the graph, so a close() racing this submit either
  // sees the query not yet admitted or finds the handle already taken.
  TenantMetrics& tm = tenant_metrics(spec.tenant);
  std::shared_ptr<const format::OnDiskGraph> graph;
  if (!spec.graph.empty()) {
    GraphCatalog* cat;
    {
      std::lock_guard lock(mu_);
      cat = catalog_;
    }
    if (cat == nullptr) {
      throw std::invalid_argument(
          "query '" + spec.label + "' names graph '" + spec.graph +
          "' but no catalog is attached");
    }
    graph = cat->lookup(spec.graph);  // throws for unknown graphs
    cat->note_query(spec.graph);
  }
  {
    std::lock_guard lock(mu_);
    if (draining_) {
      std::lock_guard slock(stats_mu_);
      ++stats_.rejected;
      metrics_.rejected->inc();
      throw ServeError(RejectKind::kShuttingDown,
                       "engine is draining; query '" + spec.label +
                           "' not admitted");
    }
    if (sched_.size() >= opts_.max_queue_depth) {
      std::lock_guard slock(stats_mu_);
      ++stats_.rejected;
      metrics_.rejected->inc();
      throw ServeError(RejectKind::kOverloaded,
                       "submission queue full (" +
                           std::to_string(opts_.max_queue_depth) +
                           " queued); query '" + spec.label +
                           "' not admitted");
    }
    const std::uint64_t id = next_entry_id_++;
    if (sched_.push(spec.tenant, id, spec.priority) ==
        TenantScheduler::Push::kQuota) {
      trace::instant(trace::Name::kQuotaReject, 0);
      tm.quota_rejected->inc();
      std::lock_guard slock(stats_mu_);
      ++stats_.rejected;
      ++stats_.quota_rejected;
      metrics_.rejected->inc();
      metrics_.quota_rejected->inc();
      throw ServeError(RejectKind::kQuotaExceeded,
                       "tenant '" +
                           (spec.tenant.empty() ? "default" : spec.tenant) +
                           "' is at its admission quota; query '" +
                           spec.label + "' not admitted");
    }
    Entry entry;
    entry.submit_ns = Timer::now_ns();
    entry.query_id = trace::next_query_id();
    entry.deadline_ns =
        spec.deadline_s > 0
            ? entry.submit_ns +
                  static_cast<std::uint64_t>(spec.deadline_s * 1e9)
            : 0;
    entry.spec = std::move(spec);
    entry.ticket = ticket;
    entry.graph = std::move(graph);
    pending_.emplace(id, std::move(entry));
    {
      std::lock_guard slock(stats_mu_);
      ++stats_.admitted;
    }
    metrics_.admitted->inc();
    tm.admitted->inc();
  }
  work_cv_.notify_one();
  return ticket;
}

std::shared_ptr<QueryTicket> QueryEngine::submit_fused(
    QuerySpec base, std::vector<FusedQuerySpec> specs,
    std::shared_ptr<std::vector<FusedResult>> results) {
  BLAZE_CHECK(!base.graph.empty(),
              "submit_fused needs a catalog graph to fuse against");
  BLAZE_CHECK(results != nullptr, "submit_fused needs a results sink");
  base.run = [specs = std::move(specs),
              results = std::move(results)](core::QueryContext& ctx) {
    core::QueryStats batch;
    *results = run_fused(ctx, *ctx.graph(), specs, &batch);
    return batch;
  };
  return submit(std::move(base));
}

void QueryEngine::session_main(std::size_t slot) {
  // The session's context was built once in the constructor; reusing it
  // amortizes the arena allocations across the session's whole lifetime
  // (the point of serving vs. one-shot runs).
  core::QueryContext& ctx = *contexts_[slot];
  while (true) {
    Entry entry;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !sched_.empty(); });
      if (sched_.empty()) return;  // stop_ set and nothing left to run
      // Cross-tenant DRR picks the tenant; priority (FIFO within a
      // level) picks the query inside it.
      const auto id = sched_.pop();
      auto it = pending_.find(*id);
      entry = std::move(it->second);
      pending_.erase(it);
      ++running_;
    }
    tenant_metrics(entry.spec.tenant).served->inc();
    execute(entry, ctx);
    {
      std::lock_guard lock(mu_);
      --running_;
    }
    drain_cv_.notify_all();
  }
}

void QueryEngine::execute(Entry& entry, core::QueryContext& ctx) {
  const std::uint64_t start_ns = Timer::now_ns();
  auto elapsed_s = [&] {
    return static_cast<double>(Timer::now_ns() - entry.submit_ns) / 1e9;
  };
  auto record_latency = [&](double seconds) {
    const auto us = static_cast<std::uint64_t>(seconds * 1e6);
    stats_.latency_us.add(us);
    metrics_.latency_us->observe(us);
  };
  // In every path below the engine counters are updated BEFORE the ticket
  // turns terminal, so a client that returns from ticket->wait() and reads
  // stats() is guaranteed to see its own query counted.
  if (entry.deadline_ns != 0 && start_ns > entry.deadline_ns) {
    // Expired while queued: never run it — the client's budget is gone and
    // the cycles belong to queries that can still meet theirs.
    const double lat = elapsed_s();
    // An expired query never executed: its whole life was admission wait.
    prof::StallBreakdown stall;
    stall.admission_wait_ns = start_ns - entry.submit_ns;
    {
      std::lock_guard slock(stats_mu_);
      ++stats_.expired;
      metrics_.expired->inc();
      record_latency(lat);
      stats_.stalls.merge(stall);
      record_slow_locked(entry, lat, QueryState::kExpired, stall);
    }
    metrics_.admission_wait_ns->add(stall.admission_wait_ns);
    entry.graph.reset();
    entry.ticket->finish(
        QueryState::kExpired, {},
        std::make_exception_ptr(ServeError(
            RejectKind::kDeadlineExpired,
            "query '" + entry.spec.label + "' spent " +
                std::to_string(lat) + "s queued, past its deadline")),
        lat, stall);
    return;
  }
  entry.ticket->set_running();
  // This query's trace identity: the session thread adopts it, the
  // context re-stamps so EdgeMap (and the IO jobs it posts) inherit it,
  // and the time it sat queued becomes a retroactive admission-wait span.
  trace::ScopedQuery trace_scope(entry.query_id);
  ctx.set_trace_id(entry.query_id);
  // Tenant + catalog-graph attribution for the query body. The context's
  // handle is an ADDITIONAL pin for the duration of the run; both it and
  // the entry's pin drop before the ticket's waiter can observe the
  // terminal state's successor operations (e.g. re-open of the name).
  ctx.set_tenant(entry.spec.tenant);
  ctx.set_graph(entry.graph);
  trace::complete(trace::Name::kAdmissionWait, entry.submit_ns,
                  start_ns - entry.submit_ns, 0, entry.query_id);
  trace::Span exec_span(trace::Name::kSessionExecute);
  try {
    core::QueryStats qs = entry.spec.run(ctx);
    ctx.set_graph(nullptr);
    ctx.set_tenant({});
    entry.graph.reset();  // pin drops before the ticket turns terminal
    const double lat = elapsed_s();
    // Fold the query's telemetry into its bottleneck attribution: queue
    // wait, then execution split into IO-starved vs compute wall clock.
    const prof::StallBreakdown stall = prof::StallBreakdown::fold(
        qs, Timer::now_ns() - start_ns, start_ns - entry.submit_ns,
        static_cast<unsigned>(session_cfg_.compute_workers));
    {
      std::lock_guard slock(stats_mu_);
      ++stats_.completed;
      metrics_.completed->inc();
      stats_.aggregate.merge(qs);
      stats_.stalls.merge(stall);
      record_latency(lat);
      record_slow_locked(entry, lat, QueryState::kDone, stall);
    }
    metrics_.io_stall_ns->add(stall.io_stall_ns);
    metrics_.compute_ns->add(stall.compute_ns);
    metrics_.admission_wait_ns->add(stall.admission_wait_ns);
    entry.ticket->finish(QueryState::kDone, qs, nullptr, lat, stall);
  } catch (...) {
    ctx.set_graph(nullptr);
    ctx.set_tenant({});
    entry.graph.reset();
    const double lat = elapsed_s();
    {
      std::lock_guard slock(stats_mu_);
      ++stats_.failed;
      metrics_.failed->inc();
      record_latency(lat);
      record_slow_locked(entry, lat, QueryState::kFailed);
    }
    entry.ticket->finish(QueryState::kFailed, {}, std::current_exception(),
                         lat);
  }
}

void QueryEngine::record_slow_locked(const Entry& entry, double latency_s,
                                     QueryState state,
                                     const prof::StallBreakdown& stall) {
  if (opts_.slow_query_threshold_s <= 0 ||
      latency_s < opts_.slow_query_threshold_s) {
    return;
  }
  if (stats_.slow_queries.size() >= kMaxSlowQueries) {
    stats_.slow_queries.erase(stats_.slow_queries.begin());
  }
  stats_.slow_queries.push_back(
      {entry.spec.label, latency_s, state, entry.query_id, stall});
}

void QueryEngine::drain() {
  trace::Span span(trace::Name::kEngineDrain);
  {
    std::unique_lock lock(mu_);
    draining_ = true;
    drain_cv_.wait(lock, [&] { return sched_.empty() && running_ == 0; });
    stop_ = true;
  }
  work_cv_.notify_all();
  sessions_.clear();  // joins the jthreads; idempotent once empty
}

EngineStats QueryEngine::stats() const {
  EngineStats out;
  {
    std::lock_guard lock(stats_mu_);
    out = stats_;
  }
  {
    // Separate (never nested) critical section: mu_ guards the scheduler.
    std::lock_guard lock(mu_);
    out.tenants = sched_.stats();
  }
  if (cache_ != nullptr) out.cache = cache_->cache_counters();
  return out;
}

bool QueryEngine::io_pools_full() {
  runtime_.io_pipeline().quiesce();
  for (const auto& ctx : contexts_) {
    if (!ctx->io_pool_full()) return false;
  }
  return true;
}

}  // namespace blaze::serve
