// blaze-run: run a graph query over on-disk graph files, mirroring the
// artifact's per-query binaries and flags:
//
//   blaze-run -query bfs -computeWorkers 16 -startNode 0
//       /mnt/nvme/rmat27.gr.index /mnt/nvme/rmat27.gr.adj.0
//
//   blaze-run -query bc -computeWorkers 16 -startNode 0
//       g.gr.index g.gr.adj.0
//       -inIndexFilename g.tgr.index -inAdjFilenames g.tgr.adj.0
//
// Binning flags as in the artifact: -binSpace (MiB), -binCount,
// -binningRatio. -sync runs the synchronization-based variant.
//
// Serving mode: --clients N --queries Q runs N closed-loop clients each
// submitting Q copies of the query to a shared serve::QueryEngine (one
// Runtime, one IO pipeline) and prints the engine's aggregate stats table.
//
// Telemetry (blaze::metrics): --metrics-port starts the embedded
// Prometheus scrape endpoint, --metrics-out dumps the registry snapshot
// plus the sampler's time series as JSON at exit, --live prints a
// one-line progress report to stderr on every sampler tick, and
// --stats-json writes the machine-readable QueryStats + MemoryFootprint
// record of a single-query run.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "algorithms/spmv.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "core/runtime.h"
#include "core/stats.h"
#include "device/cached_device.h"
#include "format/on_disk_graph.h"
#include "metrics/export.h"
#include "metrics/http_export.h"
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "prof/profiler.h"
#include "prof/stall.h"
#include "serve/graph_catalog.h"
#include "serve/query_engine.h"
#include "trace/chrome_export.h"
#include "trace/tracer.h"
#include "util/histogram.h"
#include "util/options.h"
#include "util/timer.h"

namespace {

void print_stats(const char* query, double seconds,
                 const blaze::core::QueryStats& stats) {
  std::printf("%s: %.3f s, %llu EdgeMap calls, %.1f MiB read "
              "(%llu IO requests), %.3f GB/s average read bandwidth\n",
              query, seconds,
              static_cast<unsigned long long>(stats.edge_map_calls),
              static_cast<double>(stats.bytes_read) / (1 << 20),
              static_cast<unsigned long long>(stats.io_requests),
              stats.avg_read_gbps());
  // The unified pipeline record (device -> io -> core): merging efficiency,
  // backpressure and device busy time in one place.
  std::printf("  io: %llu pages, %llu merged requests, %llu tail clamps, "
              "peak inflight %llu\n",
              static_cast<unsigned long long>(stats.pages_read),
              static_cast<unsigned long long>(stats.merged_requests),
              static_cast<unsigned long long>(stats.tail_clamps),
              static_cast<unsigned long long>(stats.inflight_peak));
  std::printf("  backpressure: %llu buffer stalls (%.3f ms); device busy "
              "%.3f ms (%.1f%% of EdgeMap time)\n",
              static_cast<unsigned long long>(stats.buffer_stalls),
              static_cast<double>(stats.buffer_stall_ns) / 1e6,
              static_cast<double>(stats.device_busy_ns) / 1e6,
              100.0 * stats.device_utilization());
}

/// One-line stderr progress report, fed by the sampler after every tick.
/// Reads whatever series exist: per-device byte counters become a
/// bandwidth estimate over the tick interval (bytes/ns == GB/s), and the
/// serve gauges appear automatically in serving mode.
std::function<void(const blaze::metrics::Sampler::Point&,
                   const std::vector<blaze::metrics::Sampler::Series>&)>
make_live_reporter() {
  struct State {
    std::uint64_t last_ts = 0;
    double last_bytes = -1;
  };
  auto state = std::make_shared<State>();
  return [state](const blaze::metrics::Sampler::Point& p,
                 const std::vector<blaze::metrics::Sampler::Series>& series) {
    double bytes = 0, iters = 0, frontier = 0;
    double pool_free = 0, pool_total = 0;
    double queue = -1, running = -1;
    const std::size_t n = std::min(series.size(), p.values.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& name = series[i].name;
      if (name == "blaze_device_bytes_total") bytes += p.values[i];
      else if (name == "blaze_iterations_total") iters = p.values[i];
      else if (name == "blaze_frontier_vertices") frontier = p.values[i];
      else if (name == "blaze_io_pool_buffers_free") pool_free += p.values[i];
      else if (name == "blaze_io_pool_buffers_total") pool_total += p.values[i];
      else if (name == "blaze_serve_queue_depth") queue = p.values[i];
      else if (name == "blaze_serve_running") running = p.values[i];
    }
    double gbps = 0;
    if (state->last_bytes >= 0 && p.ts_ns > state->last_ts) {
      gbps = (bytes - state->last_bytes) /
             static_cast<double>(p.ts_ns - state->last_ts);
    }
    std::fprintf(stderr, "[live] read %6.2f GB/s | iters %5.0f | frontier %8.0f",
                 gbps, iters, frontier);
    if (pool_total > 0) {
      std::fprintf(stderr, " | pool %3.0f/%3.0f free", pool_free, pool_total);
    }
    if (queue >= 0) {
      std::fprintf(stderr, " | queued %2.0f running %2.0f", queue, running);
    }
    std::fprintf(stderr, "\n");
    state->last_ts = p.ts_ns;
    state->last_bytes = bytes;
  };
}

/// --stats-json: one query's machine-readable record — the full unified
/// QueryStats (device -> io -> core), the stall attribution, per-namespace
/// cache occupancy + ghost-hit counters, and the Figure-12 DRAM breakdown.
bool write_stats_json(const std::string& path, const std::string& query,
                      double wall_s, const blaze::core::QueryStats& s,
                      const blaze::core::MemoryFootprint& fp,
                      const blaze::prof::StallBreakdown& stall,
                      const std::vector<
                          blaze::device::ShardedPageCache::NamespaceUsage>&
                          namespaces) {
  std::string out = "{\n";
  char buf[256];
  auto add_u64 = [&](const char* k, unsigned long long v, bool comma = true) {
    std::snprintf(buf, sizeof(buf), "  \"%s\": %llu%s\n", k, v,
                  comma ? "," : "");
    out += buf;
  };
  auto add_f = [&](const char* k, double v) {
    std::snprintf(buf, sizeof(buf), "  \"%s\": %.9g,\n", k, v);
    out += buf;
  };
  out += "  \"query\": \"" + query + "\",\n";
  add_f("wall_seconds", wall_s);
  add_f("edge_map_seconds", s.seconds);
  add_f("avg_read_gbps", s.avg_read_gbps());
  add_f("device_utilization", s.device_utilization());
  add_u64("edge_map_calls", s.edge_map_calls);
  add_u64("vertex_map_calls", s.vertex_map_calls);
  add_u64("edges_scattered", s.edges_scattered);
  add_u64("records_binned", s.records_binned);
  add_u64("pages_read", s.pages_read);
  add_u64("io_requests", s.io_requests);
  add_u64("bytes_read", s.bytes_read);
  add_u64("merged_requests", s.merged_requests);
  add_u64("tail_clamps", s.tail_clamps);
  add_u64("inflight_peak", s.inflight_peak);
  add_u64("buffer_stalls", s.buffer_stalls);
  add_u64("buffer_stall_ns", s.buffer_stall_ns);
  add_u64("retries", s.retries);
  add_u64("failed_requests", s.failed_requests);
  add_u64("gave_up", s.gave_up);
  add_u64("device_busy_ns", s.device_busy_ns);
  add_u64("io_wait_ns", s.io_wait_ns);
  std::snprintf(buf, sizeof(buf),
                "  \"stall\": {\"exec_ns\": %llu, \"io_stall_ns\": %llu, "
                "\"compute_ns\": %llu, \"backpressure_ns\": %llu, "
                "\"dominant\": \"%s\"},\n",
                static_cast<unsigned long long>(stall.exec_ns),
                static_cast<unsigned long long>(stall.io_stall_ns),
                static_cast<unsigned long long>(stall.compute_ns),
                static_cast<unsigned long long>(stall.backpressure_ns),
                stall.dominant().c_str());
  out += buf;
  out += "  \"cache_namespaces\": [";
  for (std::size_t i = 0; i < namespaces.size(); ++i) {
    const auto& ns = namespaces[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"name\": \"%s\", \"resident_bytes\": %llu, "
                  "\"hits\": %llu, \"misses\": %llu, \"ghost_hits\": %llu}",
                  i == 0 ? "" : ",", ns.name.c_str(),
                  static_cast<unsigned long long>(ns.resident_bytes()),
                  static_cast<unsigned long long>(ns.cache.hits),
                  static_cast<unsigned long long>(ns.cache.misses),
                  static_cast<unsigned long long>(ns.cache.ghost_hits));
    out += buf;
  }
  out += namespaces.empty() ? "],\n" : "\n  ],\n";
  out += "  \"memory\": {\n";
  auto add_mem = [&](const char* k, unsigned long long v, bool comma) {
    std::snprintf(buf, sizeof(buf), "    \"%s\": %llu%s\n", k, v,
                  comma ? "," : "");
    out += buf;
  };
  add_mem("io_buffers", fp.io_buffers, true);
  add_mem("bins", fp.bins, true);
  add_mem("graph_metadata", fp.graph_metadata, true);
  add_mem("frontiers", fp.frontiers, true);
  add_mem("algorithm", fp.algorithm, true);
  add_mem("total", fp.total(), false);
  out += "  }\n}\n";
  return blaze::metrics::write_file(path, out);
}

/// One device's read-latency histogram snapshot (IoStats log2 buckets).
using DeviceLatency = std::pair<std::string, std::vector<std::uint64_t>>;

/// Collects latency histograms from a graph's device — and, when the
/// device is a cache adapter, from the physical device underneath (the
/// interesting one: cache hits never touch it). Deduplicates by name so
/// graph + transpose over one device yield one row.
void collect_device_latency(const blaze::format::OnDiskGraph& g,
                            std::vector<DeviceLatency>& out) {
  const auto& dev = g.device_ptr();
  if (!dev) return;
  auto push = [&out](const std::string& name,
                     std::vector<std::uint64_t> hist) {
    for (const DeviceLatency& d : out) {
      if (d.first == name) return;
    }
    out.emplace_back(name, std::move(hist));
  };
  push(dev->name(), dev->stats().latency_histogram());
  if (auto* cd = dynamic_cast<blaze::device::CachedDevice*>(dev.get())) {
    push(cd->inner().name(), cd->inner().stats().latency_histogram());
  }
}

/// --profile FILE: the profiler's JSON report — per-namespace miss-ratio
/// curves (SHARDS-sampled), the run's stall breakdown, and per-device
/// read-latency percentiles reconstructed from the IoStats log2 buckets.
bool write_profile_json(const std::string& path, double wall_s,
                        blaze::prof::WorkloadProfiler* profiler,
                        const blaze::prof::StallBreakdown& stalls,
                        const std::vector<DeviceLatency>& devices) {
  using namespace blaze;
  std::string out = "{\n";
  char buf[320];
  std::snprintf(buf, sizeof(buf), "  \"wall_seconds\": %.9g,\n", wall_s);
  out += buf;
  out += "  \"mrc\": [";
  bool first = true;
  if (profiler != nullptr) {
    for (const prof::NamespaceCurve& nc : profiler->curves()) {
      out += first ? "\n" : ",\n";
      first = false;
      std::snprintf(
          buf, sizeof(buf),
          "    {\"namespace\": \"%s\", \"ns_id\": %llu, "
          "\"sample_rate\": %.9g, \"accesses\": %llu, \"sampled\": %llu, "
          "\"cold\": %llu, \"points\": [",
          nc.name.c_str(),
          static_cast<unsigned long long>(nc.ns_base >>
                                          device::kNamespaceShift),
          nc.curve.sample_rate,
          static_cast<unsigned long long>(nc.curve.accesses),
          static_cast<unsigned long long>(nc.curve.sampled),
          static_cast<unsigned long long>(nc.curve.cold));
      out += buf;
      for (std::size_t i = 0; i < nc.curve.points.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"cache_pages\": %llu, \"miss_ratio\": %.6f}",
                      i == 0 ? "" : ", ",
                      static_cast<unsigned long long>(
                          nc.curve.points[i].cache_pages),
                      nc.curve.points[i].miss_ratio);
        out += buf;
      }
      out += "]}";
    }
  }
  out += first ? "],\n" : "\n  ],\n";
  std::snprintf(
      buf, sizeof(buf),
      "  \"stalls\": {\"exec_ns\": %llu, \"admission_wait_ns\": %llu, "
      "\"io_stall_ns\": %llu, \"compute_ns\": %llu, "
      "\"backpressure_ns\": %llu, \"dominant\": \"%s\"},\n",
      static_cast<unsigned long long>(stalls.exec_ns),
      static_cast<unsigned long long>(stalls.admission_wait_ns),
      static_cast<unsigned long long>(stalls.io_stall_ns),
      static_cast<unsigned long long>(stalls.compute_ns),
      static_cast<unsigned long long>(stalls.backpressure_ns),
      stalls.dominant().c_str());
  out += buf;
  out += "  \"devices\": [";
  first = true;
  for (const DeviceLatency& d : devices) {
    Log2Histogram h;
    std::uint64_t reads = 0;
    for (std::size_t b = 0; b < d.second.size(); ++b) {
      h.add_many(1ull << b, d.second[b]);
      reads += d.second[b];
    }
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(
        buf, sizeof(buf),
        "    {\"device\": \"%s\", \"reads\": %llu, "
        "\"read_latency_ns\": {\"p50\": %llu, \"p90\": %llu, "
        "\"p99\": %llu, \"p999\": %llu}}",
        d.first.c_str(), static_cast<unsigned long long>(reads),
        static_cast<unsigned long long>(h.percentile(0.50)),
        static_cast<unsigned long long>(h.percentile(0.90)),
        static_cast<unsigned long long>(h.percentile(0.99)),
        static_cast<unsigned long long>(h.percentile(0.999)));
    out += buf;
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return blaze::metrics::write_file(path, out);
}

/// Rebuilds `g` so its adjacency reads go through a CachedDevice over the
/// runtime's shared pool. No-op (returns a plain copy) when the pool is
/// disabled or the graph has no device.
blaze::format::OnDiskGraph wrap_graph_cached(
    const blaze::format::OnDiskGraph& g, blaze::core::Runtime& rt) {
  const auto& pool = rt.page_cache();
  if (!pool || !g.device_ptr()) return g;
  return {g.index(), std::make_shared<blaze::device::CachedDevice>(
                         g.device_ptr(), pool)};
}

/// Builds the serving-mode body for one query kind; returns an empty
/// function for kinds without a QueryContext entry point.
blaze::serve::QueryFn make_serve_query(
    const std::string& query, const blaze::format::OnDiskGraph& g,
    const blaze::format::OnDiskGraph& gt, blaze::vertex_t source,
    const blaze::algorithms::PageRankOptions& pr_opts) {
  using namespace blaze;
  if (query == "bfs") {
    return [&g, source](core::QueryContext& qc) {
      return algorithms::bfs(qc, g, source).stats;
    };
  }
  if (query == "pr") {
    return [&g, pr_opts](core::QueryContext& qc) {
      return algorithms::pagerank(qc, g, pr_opts).stats;
    };
  }
  if (query == "sssp") {
    return [&g, source](core::QueryContext& qc) {
      return g.index().record_bytes() == 8
                 ? algorithms::sssp_weighted(qc, g, source).stats
                 : algorithms::sssp(qc, g, source).stats;
    };
  }
  if (query == "wcc") {
    return [&g, &gt](core::QueryContext& qc) {
      return algorithms::wcc(qc, g, gt).stats;
    };
  }
  if (query == "kcore") {
    return [&g, &gt](core::QueryContext& qc) {
      return algorithms::kcore(qc, g, gt).stats;
    };
  }
  return {};
}

/// One `--catalog` entry: name=index,adj (semicolon-separated list).
struct CatalogEntrySpec {
  std::string name, index_path, adj_path;
};

bool parse_catalog_spec(const std::string& arg,
                        std::vector<CatalogEntrySpec>& out) {
  std::size_t pos = 0;
  while (pos < arg.size()) {
    std::size_t end = arg.find(';', pos);
    if (end == std::string::npos) end = arg.size();
    const std::string item = arg.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    const std::size_t comma =
        eq == std::string::npos ? std::string::npos : item.find(',', eq);
    if (eq == std::string::npos || comma == std::string::npos) {
      std::fprintf(stderr,
                   "bad --catalog entry '%s' (want name=index,adj)\n",
                   item.c_str());
      return false;
    }
    out.push_back({item.substr(0, eq), item.substr(eq + 1, comma - eq - 1),
                   item.substr(comma + 1)});
  }
  return true;
}

/// One `--tenants` entry: name:weight[:quota] (comma-separated list).
struct TenantSpec {
  std::string name;
  blaze::serve::TenantOptions opts;
};

bool parse_tenant_spec(const std::string& arg, std::vector<TenantSpec>& out) {
  std::size_t pos = 0;
  while (pos < arg.size()) {
    std::size_t end = arg.find(',', pos);
    if (end == std::string::npos) end = arg.size();
    const std::string item = arg.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t c1 = item.find(':');
    if (c1 == std::string::npos || c1 == 0) {
      std::fprintf(stderr,
                   "bad --tenants entry '%s' (want name:weight[:quota])\n",
                   item.c_str());
      return false;
    }
    TenantSpec t;
    t.name = item.substr(0, c1);
    const std::size_t c2 = item.find(':', c1 + 1);
    try {
      t.opts.weight = std::stod(item.substr(
          c1 + 1, c2 == std::string::npos ? std::string::npos : c2 - c1 - 1));
      if (c2 != std::string::npos) {
        t.opts.max_queued =
            static_cast<std::size_t>(std::stoull(item.substr(c2 + 1)));
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad --tenants entry '%s' (numeric fields)\n",
                   item.c_str());
      return false;
    }
    if (t.opts.weight <= 0) {
      std::fprintf(stderr, "tenant '%s' needs weight > 0\n", t.name.c_str());
      return false;
    }
    out.push_back(std::move(t));
  }
  return true;
}

/// Serving body for catalog mode: the query runs against whatever graph
/// the engine pinned into the context (QuerySpec::graph), so one body
/// serves every resident graph. Only graph-only kinds qualify.
blaze::serve::QueryFn make_catalog_query(
    const std::string& query, blaze::vertex_t source,
    const blaze::algorithms::PageRankOptions& pr_opts) {
  using namespace blaze;
  if (query == "bfs") {
    return [source](core::QueryContext& qc) {
      return algorithms::bfs(qc, *qc.graph(), source).stats;
    };
  }
  if (query == "pr") {
    return [pr_opts](core::QueryContext& qc) {
      return algorithms::pagerank(qc, *qc.graph(), pr_opts).stats;
    };
  }
  if (query == "sssp") {
    return [source](core::QueryContext& qc) {
      return algorithms::sssp(qc, *qc.graph(), source).stats;
    };
  }
  return {};
}

/// Runs the closed-loop serving workload and prints the aggregate table.
int run_serving(const blaze::core::Config& cfg, const blaze::Options& opt,
                const std::string& query,
                const blaze::format::OnDiskGraph& g,
                const blaze::format::OnDiskGraph& gt,
                blaze::vertex_t source) {
  using namespace blaze;
  const auto clients = static_cast<std::size_t>(opt.get_int("clients", 4));
  const auto per_client =
      static_cast<std::size_t>(opt.get_int("queries", 4));
  algorithms::PageRankOptions pr_opts;
  pr_opts.max_iterations =
      static_cast<std::uint32_t>(opt.get_int("maxIterations", 100));
  pr_opts.epsilon = opt.get_double("epsilon", pr_opts.epsilon);

  // Multi-graph / multi-tenant serving knobs, parsed before any engine
  // spins up so a bad spec fails fast.
  std::vector<CatalogEntrySpec> catalog_entries;
  if (opt.has("catalog") &&
      !parse_catalog_spec(opt.get_string("catalog", ""), catalog_entries)) {
    return 2;
  }
  std::vector<TenantSpec> tenant_specs;
  if (opt.has("tenants") &&
      !parse_tenant_spec(opt.get_string("tenants", ""), tenant_specs)) {
    return 2;
  }
  const bool catalog_mode = opt.has("catalog");

  if (catalog_mode) {
    if (!make_catalog_query(query, source, pr_opts)) {
      std::fprintf(stderr,
                   "--catalog serving supports bfs, pr, sssp (graph-only "
                   "kinds); -query %s needs a transpose\n",
                   query.c_str());
      return 2;
    }
  } else if (!make_serve_query(query, g, gt, source, pr_opts)) {
    std::fprintf(
        stderr,
        "-query %s has no serving mode (use bfs, pr, sssp, wcc, kcore)\n",
        query.c_str());
    return 2;
  }

  serve::EngineOptions eopts;
  eopts.max_inflight_queries = static_cast<std::size_t>(
      opt.get_int("maxInflight", static_cast<std::int64_t>(clients)));
  eopts.max_queue_depth = clients * per_client;
  eopts.slow_query_threshold_s =
      static_cast<double>(opt.get_int("slowQueryMs", 0)) / 1000.0;
  if (opt.has("metrics-port")) {
    eopts.metrics_port = static_cast<int>(opt.get_int("metrics-port", 0));
  }
  serve::QueryEngine engine(cfg, eopts);
  // Route the graphs through the shared page-cache pool when --cacheMB is
  // set; the wrapped copies must outlive drain(), hence locals here.
  // Catalog mode skips the plain wrapper — the catalog wraps each opened
  // graph under its own pool namespace instead.
  const format::OnDiskGraph cg =
      catalog_mode ? g : wrap_graph_cached(g, engine.runtime());
  const format::OnDiskGraph cgt =
      catalog_mode ? gt : wrap_graph_cached(gt, engine.runtime());
  serve::QueryFn body =
      catalog_mode ? make_catalog_query(query, source, pr_opts)
                   : make_serve_query(query, cg, cgt, source, pr_opts);

  // Resident graph set: the positional graph opens as "main", every
  // --catalog entry by its given name; clients spread round-robin.
  std::unique_ptr<serve::GraphCatalog> catalog;
  std::vector<std::string> graph_names;
  if (catalog_mode) {
    catalog = std::make_unique<serve::GraphCatalog>(engine.runtime());
    catalog->open("main", g);
    graph_names.push_back("main");
    for (const CatalogEntrySpec& e : catalog_entries) {
      try {
        catalog->open_files(e.name, e.index_path, e.adj_path);
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "error opening catalog graph '%s': %s\n",
                     e.name.c_str(), ex.what());
        return 1;
      }
      graph_names.push_back(e.name);
    }
    engine.attach_catalog(catalog.get());
  }
  for (const TenantSpec& t : tenant_specs) {
    engine.register_tenant(t.name, t.opts);
  }
  const auto& pool = engine.runtime().page_cache();
  if (pool) engine.observe_cache(pool.get());
  if (engine.metrics_port() != 0) {
    std::fprintf(stderr, "metrics: http://localhost:%u/metrics\n",
                 engine.metrics_port());
  }
  if (opt.get_bool("live", false)) {
    engine.sampler().set_on_sample(make_live_reporter());
  }

  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> quota_waits{0};
  Timer t;
  {
    std::vector<std::jthread> pool;
    pool.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        for (std::size_t q = 0; q < per_client; ++q) {
          serve::QuerySpec spec;
          spec.run = body;
          spec.label = query + "/c" + std::to_string(c);
          if (catalog_mode) {
            spec.graph = graph_names[(c + q) % graph_names.size()];
          }
          if (!tenant_specs.empty()) {
            spec.tenant = tenant_specs[c % tenant_specs.size()].name;
          }
          for (;;) {
            try {
              engine.submit(spec)->wait();
              break;
            } catch (const serve::ServeError& e) {
              if (e.kind() == serve::RejectKind::kQuotaExceeded) {
                // Closed-loop clients back off until the tenant's queued
                // work drains below quota; counts as a resubmit, not a
                // permanent failure.
                quota_waits.fetch_add(1, std::memory_order_relaxed);
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                continue;
              }
              if (!e.retryable()) throw;
              retries.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::yield();
            }
          }
        }
      });
    }
  }
  engine.drain();
  const double wall = t.seconds();

  const std::string metrics_out = opt.get_string("metrics-out", "");
  if (!metrics_out.empty()) {
    engine.sampler().sample_once();  // fresh final point
    const std::string dump = metrics::metrics_dump_json(
        metrics::Registry::instance().snapshot(),
        engine.sampler().snapshot());
    if (metrics::write_file(metrics_out, dump)) {
      std::printf("metrics: wrote %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "metrics: failed to write %s\n",
                   metrics_out.c_str());
    }
  }

  const auto s = engine.stats();
  std::printf("serving %s: %zu clients x %zu queries, %zu sessions\n",
              query.c_str(), clients, per_client,
              engine.options().max_inflight_queries);
  std::printf("  %-18s %llu\n", "admitted",
              static_cast<unsigned long long>(s.admitted));
  std::printf("  %-18s %llu (%llu client resubmits)\n", "rejected",
              static_cast<unsigned long long>(s.rejected),
              static_cast<unsigned long long>(retries.load()));
  if (s.quota_rejected > 0 || quota_waits.load() > 0) {
    std::printf("  %-18s %llu (%llu client backoffs)\n", "quota rejected",
                static_cast<unsigned long long>(s.quota_rejected),
                static_cast<unsigned long long>(quota_waits.load()));
  }
  std::printf("  %-18s %llu\n", "completed",
              static_cast<unsigned long long>(s.completed));
  std::printf("  %-18s %llu\n", "failed",
              static_cast<unsigned long long>(s.failed));
  std::printf("  %-18s %llu\n", "expired",
              static_cast<unsigned long long>(s.expired));
  std::printf("  %-18s %.3f s (%.2f queries/s)\n", "wall time", wall,
              wall > 0 ? static_cast<double>(s.completed) / wall : 0.0);
  std::printf("  %-18s p50 %.2f ms, p95 %.2f ms\n", "latency", s.p50_ms(),
              s.p95_ms());
  if (s.stalls.exec_ns > 0) {
    std::printf("  %-18s io %.1f ms, compute %.1f ms, admission %.1f ms "
                "(io fraction %.1f%%)\n",
                "stall profile",
                static_cast<double>(s.stalls.io_stall_ns) / 1e6,
                static_cast<double>(s.stalls.compute_ns) / 1e6,
                static_cast<double>(s.stalls.admission_wait_ns) / 1e6,
                100.0 * s.stalls.io_fraction());
  }
  if (pool) {
    std::printf("  %-18s %.1f%% (%llu hits, %llu misses, %llu dedup, "
                "%llu ghost) [%s x%zu]\n",
                "cache",
                100.0 * s.cache.hit_rate(),
                static_cast<unsigned long long>(s.cache.hits),
                static_cast<unsigned long long>(s.cache.misses),
                static_cast<unsigned long long>(s.cache.dedup_hits),
                static_cast<unsigned long long>(s.cache.ghost_hits),
                device::to_string(pool->policy()), pool->shard_count());
  }
  std::printf("  %-18s %.1f MiB in %llu requests, %llu retries, "
              "%llu gave up\n",
              "aggregate io",
              static_cast<double>(s.aggregate.bytes_read) / (1 << 20),
              static_cast<unsigned long long>(s.aggregate.io_requests),
              static_cast<unsigned long long>(s.aggregate.retries),
              static_cast<unsigned long long>(s.aggregate.gave_up));
  std::printf("  %-18s %llu EdgeMap calls, %llu edges scattered\n",
              "aggregate compute",
              static_cast<unsigned long long>(s.aggregate.edge_map_calls),
              static_cast<unsigned long long>(s.aggregate.edges_scattered));
  if (!tenant_specs.empty()) {
    std::printf("  tenants (weighted fair queueing, deficit round-robin)\n");
    for (const auto& ts : s.tenants) {
      std::printf("    %-14s w=%-5.2f served %6llu / enqueued %6llu, "
                  "quota-rejected %llu%s\n",
                  ts.name.empty() ? "default" : ts.name.c_str(), ts.weight,
                  static_cast<unsigned long long>(ts.served),
                  static_cast<unsigned long long>(ts.enqueued),
                  static_cast<unsigned long long>(ts.quota_rejected),
                  ts.max_queued > 0
                      ? (" (quota " + std::to_string(ts.max_queued) + ")")
                            .c_str()
                      : "");
    }
  }
  if (catalog) {
    std::printf("  catalog (%zu resident graphs)\n", catalog->size());
    for (const auto& row : catalog->snapshot()) {
      std::printf("    %-14s budget %7.1f MiB cache + %6.1f MiB arena, "
                  "resident %7.1f MiB, %llu queries, hit %5.1f%% "
                  "(%llu ghost)%s\n",
                  row.name.c_str(),
                  static_cast<double>(row.cache_budget_bytes) / (1 << 20),
                  static_cast<double>(row.arena_budget_bytes) / (1 << 20),
                  static_cast<double>(row.resident_bytes) / (1 << 20),
                  static_cast<unsigned long long>(row.queries),
                  100.0 * row.cache.hit_rate(),
                  static_cast<unsigned long long>(row.cache.ghost_hits),
                  row.closing ? " (closing)" : "");
    }
  } else if (pool) {
    // No catalog: still break the pool occupancy down by namespace (one
    // row per wrapped device).
    for (const auto& u : pool->namespace_usage()) {
      std::printf("    ns %-11s resident %7.1f MiB\n", u.name.c_str(),
                  static_cast<double>(u.resident_bytes()) / (1 << 20));
    }
  }
  for (const auto& slow : s.slow_queries) {
    std::printf("  slow query         %s: %.1f ms (%s, %s-bound)\n",
                slow.label.c_str(), slow.latency_s * 1e3,
                serve::to_string(slow.state),
                slow.stall.dominant().c_str());
  }
  const std::string profile_path = opt.get_string("profile", "");
  if (!profile_path.empty()) {
    std::vector<DeviceLatency> devices;
    collect_device_latency(cg, devices);
    collect_device_latency(cgt, devices);
    collect_device_latency(g, devices);
    collect_device_latency(gt, devices);
    if (write_profile_json(profile_path, wall,
                           engine.runtime().profiler(), s.stalls, devices)) {
      std::printf("profile: wrote %s\n", profile_path.c_str());
    } else {
      std::fprintf(stderr, "profile: failed to write %s\n",
                   profile_path.c_str());
    }
  }
  return s.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blaze;
  Options opt(argc, argv, {"sync", "live", "catalog-enforce"});
  if (opt.positional().size() != 2) {
    std::fprintf(
        stderr,
        "usage: blaze-run -query bfs|pr|wcc|spmv|bc|sssp|kcore [options] "
        "<graph.gr.index> <graph.gr.adj.0>\n"
        "  -computeWorkers N   computation threads (default 4)\n"
        "  -startNode V        source vertex for bfs/bc/sssp (default 0)\n"
        "  -binSpace MiB       total bin space (default 64)\n"
        "  -binCount N         number of bins (default 1024)\n"
        "  -binningRatio R     scatter fraction of workers (default 0.5)\n"
        "  -sync               use the CAS-based variant (no binning)\n"
        "  -inIndexFilename F  transpose index (wcc/bc/kcore)\n"
        "  -inAdjFilenames F   transpose adjacency (wcc/bc/kcore)\n"
        "  --format F          run with adjacency encoding flat|dvarint; "
        "a graph stored in the other format is transcoded in memory "
        "(weighted graphs are flat-only, as in blaze-gen)\n"
        "  --mode M            execution mode for pr/sssp/wcc/kcore: "
        "bsp (default) or async (priority bucket queue, no barriers)\n"
        "  --epsilon E         convergence threshold: PageRank-delta "
        "activation/termination (default 1e-2)\n"
        "  --async-buckets N   async priority-queue buckets (default 64)\n"
        "  --cacheMB N         shared page-cache pool budget in MiB "
        "(0 = off, the default)\n"
        "  --cache-policy P    pool eviction policy: s3fifo (default), "
        "lru, random\n"
        "  --cache-shards N    pool shard count (0 = auto from budget)\n"
        "  --clients N         serving mode: N closed-loop clients\n"
        "  --queries Q         serving mode: queries per client\n"
        "  --maxInflight N     serving mode: concurrent sessions\n"
        "  --slowQueryMs N     serving mode: slow-query log threshold\n"
        "  --catalog SPEC      serving mode: extra resident graphs, "
        "'name=index,adj;...'; the positional graph opens as 'main' and "
        "clients spread round-robin (bfs/pr/sssp only)\n"
        "  --tenants SPEC      serving mode: weighted-fair tenants, "
        "'name:weight[:quota],...'; clients map to tenants round-robin\n"
        "  --catalog-apportion recent|mrc  cache-budget split rule for "
        "--catalog serving: traffic weights (default) or profiled "
        "miss-ratio curves (greedy marginal gain)\n"
        "  --catalog-enforce   push the catalog's per-graph budgets into "
        "the pool as admission caps (default: advisory)\n"
        "  --profile FILE      workload-profiler JSON report at exit: "
        "per-namespace miss-ratio curves, the stall breakdown, and "
        "per-device read-latency percentiles\n"
        "  --profile-budget N  SHARDS sampler budget per namespace "
        "(default 4096 tracked keys)\n"
        "  --trace FILE        write a Chrome trace-event JSON "
        "(chrome://tracing, Perfetto)\n"
        "  --metrics-port P    Prometheus scrape endpoint on port P "
        "(0 = ephemeral)\n"
        "  --metrics-out FILE  write metrics snapshot + time series JSON "
        "at exit\n"
        "  --metricsSampleMs N sampler interval in ms (default 100)\n"
        "  --live              one-line progress report per sampler tick "
        "(stderr)\n"
        "  --stats-json FILE   machine-readable QueryStats + memory "
        "footprint (single-query mode)\n");
    return 2;
  }

  const std::string query = opt.get_string("query", "bfs");
  format::OnDiskGraph g;
  try {
    g = format::load_graph_files(opt.positional()[0], opt.positional()[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error loading graph: %s\n", e.what());
    return 1;
  }

  // --format: force an adjacency encoding, transcoding the loaded graph in
  // memory when it was stored in the other one. Weighted files stay flat
  // (their 8-byte records are never varint-packed).
  std::optional<format::AdjacencyEncoding> want_encoding;
  if (opt.has("format")) {
    const std::string format_name = opt.get_string("format", "flat");
    if (format_name == "flat") {
      want_encoding = format::AdjacencyEncoding::kFlat;
    } else if (format_name == "dvarint") {
      want_encoding = format::AdjacencyEncoding::kDeltaVarint;
    } else {
      std::fprintf(stderr, "unknown --format %s (want flat|dvarint)\n",
                   format_name.c_str());
      return 2;
    }
    if (g.index().record_bytes() == 8 &&
        *want_encoding == format::AdjacencyEncoding::kDeltaVarint) {
      // Same rule blaze-gen enforces at write time: weighted 8-byte
      // records are flat-only (delta+varint packs 4-byte neighbor ids).
      std::fprintf(stderr,
                   "error: --format dvarint does not apply to weighted "
                   "graphs; their 8-byte (dst, weight) records are "
                   "flat-only (same check as blaze-gen -weighted)\n");
      return 2;
    }
  }
  // Returns false (after printing the typed error) when the graph's record
  // layout cannot carry the requested encoding — the transpose of a
  // weighted graph hits this even when the main graph was checked above.
  auto transcode = [&](format::OnDiskGraph& graph, const char* label) {
    if (!want_encoding || graph.index().encoding() == *want_encoding) {
      return true;
    }
    try {
      graph = format::make_mem_graph(format::decode_to_csr(graph), 1,
                                     *want_encoding);
    } catch (const format::EncodingError& e) {
      std::fprintf(stderr, "error: cannot transcode %s: %s\n", label,
                   e.what());
      return false;
    }
    std::fprintf(stderr, "transcoded %s to %s\n", label,
                 *want_encoding == format::AdjacencyEncoding::kDeltaVarint
                     ? "dvarint"
                     : "flat");
    return true;
  };
  if (!transcode(g, "graph")) return 2;

  format::OnDiskGraph gt;
  const bool needs_transpose =
      query == "wcc" || query == "bc" || query == "kcore";
  if (needs_transpose) {
    if (!opt.has("inIndexFilename") || !opt.has("inAdjFilenames")) {
      std::fprintf(stderr,
                   "%s needs -inIndexFilename and -inAdjFilenames\n",
                   query.c_str());
      return 2;
    }
    try {
      gt = format::load_graph_files(opt.get_string("inIndexFilename", ""),
                                    opt.get_string("inAdjFilenames", ""));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error loading transpose: %s\n", e.what());
      return 1;
    }
    if (!transcode(gt, "transpose")) return 2;
  }
  if (g.index().encoding() == format::AdjacencyEncoding::kDeltaVarint) {
    std::printf("format: dvarint (%.2f bytes/edge)\n", g.bytes_per_edge());
  }

  core::Config cfg;
  cfg.compute_workers =
      static_cast<std::size_t>(opt.get_int("computeWorkers", 4));
  cfg.bin_space_bytes =
      static_cast<std::size_t>(opt.get_int("binSpace", 64)) << 20;
  cfg.bin_count = static_cast<std::size_t>(opt.get_int("binCount", 1024));
  cfg.scatter_ratio = opt.get_double("binningRatio", 0.5);
  cfg.sync_mode = opt.get_bool("sync", false);

  // Execution mode for the monotone algorithms (pr/sssp/wcc/kcore route
  // through sched::AsyncRunner under async; everything else ignores it).
  const std::string mode_name = opt.get_string("mode", "bsp");
  if (mode_name == "async") {
    cfg.execution_mode = core::ExecutionMode::kAsync;
  } else if (mode_name != "bsp") {
    std::fprintf(stderr, "unknown --mode %s (want bsp|async)\n",
                 mode_name.c_str());
    return 2;
  }
  cfg.async_epsilon = opt.get_double("epsilon", cfg.async_epsilon);
  cfg.async_buckets = static_cast<std::uint32_t>(
      opt.get_int("async-buckets", cfg.async_buckets));
  if (cfg.execution_mode == core::ExecutionMode::kAsync) {
    std::printf("mode: async (epsilon %g, %u buckets)\n", cfg.async_epsilon,
                cfg.async_buckets);
  }

  // Shared page-cache pool knobs (Runtime::page_cache()).
  cfg.cache_bytes =
      static_cast<std::size_t>(opt.get_int("cacheMB", 0)) << 20;
  cfg.cache_shards =
      static_cast<std::size_t>(opt.get_int("cache-shards", 0));
  const std::string policy_name = opt.get_string("cache-policy", "s3fifo");
  if (!device::parse_eviction_policy(policy_name, cfg.cache_policy)) {
    std::fprintf(stderr,
                 "unknown --cache-policy %s (use s3fifo, lru, or random)\n",
                 policy_name.c_str());
    return 2;
  }

  // Workload profiler + MRC-apportioning knobs (blaze::prof).
  const std::string profile_path = opt.get_string("profile", "");
  cfg.profile_enabled = !profile_path.empty();
  cfg.profile_sample_budget = static_cast<std::size_t>(
      opt.get_int("profile-budget", 4096));
  const std::string apportion_name =
      opt.get_string("catalog-apportion", "recent");
  if (apportion_name == "mrc") {
    cfg.catalog_apportion = core::CatalogApportion::kMrc;
  } else if (apportion_name != "recent") {
    std::fprintf(stderr,
                 "unknown --catalog-apportion %s (want recent|mrc)\n",
                 apportion_name.c_str());
    return 2;
  }
  cfg.catalog_enforce_budgets = opt.get_bool("catalog-enforce", false);

  // Telemetry flags. Any of them flips Config::metrics_enabled (the sticky
  // process gate); serving mode additionally always publishes.
  const std::string metrics_out = opt.get_string("metrics-out", "");
  const std::string stats_json = opt.get_string("stats-json", "");
  const bool live = opt.get_bool("live", false);
  const int metrics_port =
      opt.has("metrics-port")
          ? static_cast<int>(opt.get_int("metrics-port", 0))
          : -1;
  cfg.metrics_enabled = !metrics_out.empty() || live || metrics_port >= 0;
  cfg.metrics_sample_ms =
      static_cast<std::uint32_t>(opt.get_int("metricsSampleMs", 100));

  // --trace turns the process-wide recorder on (via Config::trace_enabled
  // when the Runtime is built) and exports everything at exit.
  const std::string trace_path = opt.get_string("trace", "");
  cfg.trace_enabled = !trace_path.empty();
  auto finish = [&](int rc) {
    if (trace_path.empty()) return rc;
    if (trace::write_chrome_trace(trace_path)) {
      std::printf("trace: wrote %s (%llu dropped events)\n",
                  trace_path.c_str(),
                  static_cast<unsigned long long>(trace::dropped_events()));
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n", trace_path.c_str());
      if (rc == 0) rc = 1;
    }
    return rc;
  };

  const auto source =
      static_cast<vertex_t>(opt.get_int("startNode", 0));
  if (opt.has("clients") || opt.has("queries")) {
    return finish(run_serving(cfg, opt, query, g, gt, source));
  }

  // Single-query telemetry: this mode owns its sampler + scrape endpoint
  // (serving mode's engine owns its own).
  std::unique_ptr<metrics::Sampler> sampler;
  std::unique_ptr<metrics::MetricsHttpServer> http;
  if (cfg.metrics_enabled) {
    metrics::Sampler::Options sopts;
    sopts.interval_ms = cfg.metrics_sample_ms;
    sampler = std::make_unique<metrics::Sampler>(
        metrics::Registry::instance(), sopts);
    if (live) sampler->set_on_sample(make_live_reporter());
    sampler->start();
    if (metrics_port >= 0) {
      http = std::make_unique<metrics::MetricsHttpServer>(
          metrics::Registry::instance(), sampler.get());
      if (http->start(static_cast<std::uint16_t>(metrics_port))) {
        std::fprintf(stderr, "metrics: http://localhost:%u/metrics\n",
                     http->port());
      } else {
        std::fprintf(stderr, "metrics: failed to bind port %d\n",
                     metrics_port);
      }
    }
  }

  core::Runtime rt(cfg);
  g = wrap_graph_cached(g, rt);
  if (needs_transpose) gt = wrap_graph_cached(gt, rt);
  // Name the wrapped devices' namespaces in the profiler so the --profile
  // report and blaze_prof_mrc_bucket gauges read per-device, not "ns 0".
  if (prof::WorkloadProfiler* p = rt.profiler()) {
    auto bind = [&](const format::OnDiskGraph& graph) {
      if (auto* cd = dynamic_cast<device::CachedDevice*>(
              graph.device_ptr().get())) {
        // Bind under the pool's registered namespace name (the inner
        // device), matching namespace_usage() rows.
        p->bind_namespace(cd->namespace_base(), cd->inner().name(),
                          cfg.metrics_enabled);
      }
    };
    bind(g);
    if (needs_transpose) bind(gt);
  }
  core::QueryStats run_stats;
  std::uint64_t algo_bytes = 0;
  Timer t;
  if (query == "bfs") {
    auto r = algorithms::bfs(rt, g, source);
    std::uint64_t reached = 0;
    for (auto p : r.parent) reached += p != kInvalidVertex;
    print_stats("bfs", t.seconds(), r.stats);
    std::printf("reached %llu vertices in %u iterations\n",
                static_cast<unsigned long long>(reached), r.iterations);
    run_stats = r.stats;
    algo_bytes = r.algorithm_bytes();
  } else if (query == "pr") {
    algorithms::PageRankOptions o;
    o.max_iterations =
        static_cast<std::uint32_t>(opt.get_int("maxIterations", 100));
    o.epsilon = opt.get_double("epsilon", o.epsilon);
    auto r = algorithms::pagerank(rt, g, o);
    print_stats("pr", t.seconds(), r.stats);
    std::printf("converged after %u iterations\n", r.iterations);
    run_stats = r.stats;
    algo_bytes = r.algorithm_bytes();
  } else if (query == "wcc") {
    auto r = algorithms::wcc(rt, g, gt);
    print_stats("wcc", t.seconds(), r.stats);
    run_stats = r.stats;
    algo_bytes = r.algorithm_bytes();
  } else if (query == "spmv") {
    std::vector<float> x(g.num_vertices(), 1.0f);
    auto r = algorithms::spmv(rt, g, x);
    print_stats("spmv", t.seconds(), r.stats);
    run_stats = r.stats;
    algo_bytes = r.algorithm_bytes();
  } else if (query == "bc") {
    auto r = algorithms::bc(rt, g, gt, source);
    print_stats("bc", t.seconds(), r.stats);
    std::printf("%u BFS levels\n", r.levels);
    run_stats = r.stats;
    algo_bytes = r.algorithm_bytes();
  } else if (query == "sssp") {
    if (g.index().record_bytes() == 8) {
      // Weighted file (v2 header): relax over the stored weights.
      auto r = algorithms::sssp_weighted(rt, g, source);
      print_stats("sssp(weighted)", t.seconds(), r.stats);
      run_stats = r.stats;
      algo_bytes = r.algorithm_bytes();
    } else {
      auto r = algorithms::sssp(rt, g, source);
      print_stats("sssp", t.seconds(), r.stats);
      run_stats = r.stats;
      algo_bytes = r.algorithm_bytes();
    }
  } else if (query == "kcore") {
    auto r = algorithms::kcore(rt, g, gt);
    print_stats("kcore", t.seconds(), r.stats);
    std::printf("max core: %u\n", r.max_core);
    run_stats = r.stats;
    algo_bytes = r.algorithm_bytes();
  } else {
    std::fprintf(stderr, "unknown -query %s\n", query.c_str());
    return 2;
  }
  const double wall = t.seconds();

  if (const auto& pool = rt.page_cache()) {
    const device::CacheCounters c = pool->cache_counters();
    std::printf("cache: %.1f%% hit rate (%llu hits, %llu misses, "
                "%llu ghost, %llu evictions) [%s x%zu, %.0f MiB]\n",
                100.0 * c.hit_rate(),
                static_cast<unsigned long long>(c.hits),
                static_cast<unsigned long long>(c.misses),
                static_cast<unsigned long long>(c.ghost_hits),
                static_cast<unsigned long long>(c.evictions),
                device::to_string(pool->policy()), pool->shard_count(),
                static_cast<double>(pool->capacity_bytes()) / (1 << 20));
  }

  // Stall attribution of the run: exec time is the accumulated EdgeMap
  // wall time, no admission wait in single-query mode.
  const prof::StallBreakdown run_stall = prof::StallBreakdown::fold(
      run_stats, static_cast<std::uint64_t>(run_stats.seconds * 1e9), 0,
      static_cast<unsigned>(cfg.compute_workers));

  // Per-namespace occupancy and counters, straight from the pool.
  std::vector<device::ShardedPageCache::NamespaceUsage> ns_rows;
  if (const auto& pool = rt.page_cache()) ns_rows = pool->namespace_usage();

  int rc = 0;
  if (!stats_json.empty()) {
    // The Figure-12 DRAM breakdown, computed the same way as bench_fig12.
    core::MemoryFootprint fp;
    fp.graph_metadata =
        g.metadata_bytes() + (needs_transpose ? gt.metadata_bytes() : 0);
    fp.frontiers = 2 * (g.num_vertices() / 8 + g.num_pages() / 8);
    fp.algorithm = algo_bytes;
    fp.io_buffers = rt.io_pool().memory_bytes();
    fp.bins = cfg.sync_mode ? 0 : cfg.bin_space_bytes;
    if (write_stats_json(stats_json, query, wall, run_stats, fp, run_stall,
                         ns_rows)) {
      std::printf("stats: wrote %s\n", stats_json.c_str());
    } else {
      std::fprintf(stderr, "stats: failed to write %s\n", stats_json.c_str());
      rc = 1;
    }
  }
  if (!profile_path.empty()) {
    std::vector<DeviceLatency> devices;
    collect_device_latency(g, devices);
    if (needs_transpose) collect_device_latency(gt, devices);
    if (write_profile_json(profile_path, wall, rt.profiler(), run_stall,
                           devices)) {
      std::printf("profile: wrote %s\n", profile_path.c_str());
    } else {
      std::fprintf(stderr, "profile: failed to write %s\n",
                   profile_path.c_str());
      rc = 1;
    }
  }
  if (sampler) {
    if (http) http->stop();
    sampler->stop();  // final tick lands before the dump
    if (!metrics_out.empty()) {
      const std::string dump = metrics::metrics_dump_json(
          metrics::Registry::instance().snapshot(), sampler->snapshot());
      if (metrics::write_file(metrics_out, dump)) {
        std::printf("metrics: wrote %s\n", metrics_out.c_str());
      } else {
        std::fprintf(stderr, "metrics: failed to write %s\n",
                     metrics_out.c_str());
        rc = 1;
      }
    }
  }
  return finish(rc);
}
