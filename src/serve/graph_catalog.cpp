#include "serve/graph_catalog.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "device/cached_device.h"
#include "prof/profiler.h"
#include "trace/tracer.h"

namespace blaze::serve {

GraphCatalog::GraphCatalog(core::Runtime& rt) : rt_(&rt) {
  // Per-graph declared-budget gauges. Registered before any caller can
  // hold mu_ through a registry snapshot (metrics.h lock rules): the
  // callback takes mu_, so the catalog itself never calls the registry
  // while holding mu_.
  if (metrics::enabled()) {
    metrics::Registry& reg = metrics::Registry::instance();
    metrics_bindings_.add(reg.callback(
        "blaze_catalog_graphs", {}, metrics::Kind::kGauge, [this] {
          std::lock_guard lock(mu_);
          std::size_t open = 0;
          for (const Entry& e : entries_) open += e.closing ? 0 : 1;
          return static_cast<double>(open);
        }));
    metrics_bindings_.add(reg.callback(
        "blaze_catalog_budget_bytes", {}, metrics::Kind::kGauge, [this] {
          std::lock_guard lock(mu_);
          std::uint64_t total = 0;
          for (const Entry& e : entries_) total += e.cache_budget;
          return static_cast<double>(total);
        }));
  }
}

GraphCatalog::~GraphCatalog() { metrics_bindings_.clear(); }

GraphCatalog::Entry* GraphCatalog::find_locked(const std::string& name) {
  for (Entry& e : entries_) {
    if (!e.closing && e.name == name) return &e;
  }
  return nullptr;
}

const GraphCatalog::Entry* GraphCatalog::find_locked(
    const std::string& name) const {
  for (const Entry& e : entries_) {
    if (!e.closing && e.name == name) return &e;
  }
  return nullptr;
}

void GraphCatalog::open(const std::string& name, format::OnDiskGraph g) {
  // Wrap the adjacency device through the shared pool under a per-graph
  // namespace, outside mu_ (register_device takes the pool's own lock).
  std::shared_ptr<const format::OnDiskGraph> resident;
  std::shared_ptr<device::CachedDevice> wrapped;
  const auto& pool = rt_->page_cache();
  if (pool && g.device_ptr()) {
    wrapped = std::make_shared<device::CachedDevice>(
        g.device_ptr(), pool, "graph/" + name);
    format::OnDiskGraph cached(g.index(), wrapped);
    if (g.page_verifier()) cached.set_page_verifier(g.page_verifier());
    resident =
        std::make_shared<const format::OnDiskGraph>(std::move(cached));
    // Bind this graph's namespace into the profiler (when one is wanted):
    // names its miss-ratio curve and, under metrics, registers the
    // blaze_prof_mrc_bucket gauges. Outside mu_ — bind_namespace takes the
    // profiler's lock and the metric registry's.
    if (prof::WorkloadProfiler* p = rt_->profiler()) {
      p->bind_namespace(wrapped->namespace_base(), "graph/" + name,
                        metrics::enabled());
    }
  } else {
    resident = std::make_shared<const format::OnDiskGraph>(std::move(g));
  }
  {
    std::lock_guard lock(mu_);
    if (find_locked(name) != nullptr) {
      throw std::invalid_argument("catalog: graph '" + name +
                                  "' is already resident");
    }
    // Reap closed entries whose last query handle has dropped.
    std::erase_if(entries_, [](const Entry& e) {
      return e.closing && e.graph.use_count() == 1;
    });
    Entry e;
    e.name = name;
    e.graph = std::move(resident);
    e.cached = std::move(wrapped);
    entries_.push_back(std::move(e));
    rebalance_locked();
  }
  trace::instant(trace::Name::kCatalogOpen, 0);
}

void GraphCatalog::open_files(const std::string& name,
                              const std::string& index_path,
                              const std::string& adj_path) {
  open(name, format::load_graph_files(index_path, adj_path));
}

void GraphCatalog::close(const std::string& name) {
  {
    std::lock_guard lock(mu_);
    Entry* e = find_locked(name);
    if (e == nullptr) {
      throw std::invalid_argument("catalog: graph '" + name +
                                  "' is not resident");
    }
    // Unlist now; the freed budget moves to the survivors immediately.
    // The entry itself lingers (budget 0) until every in-flight query
    // drops its handle, then the next open/close/rebalance reaps it.
    e->closing = true;
    e->cache_budget = 0;
    std::erase_if(entries_, [](const Entry& en) {
      return en.closing && en.graph.use_count() == 1;
    });
    rebalance_locked();
  }
  trace::instant(trace::Name::kCatalogClose, 0);
}

std::shared_ptr<const format::OnDiskGraph> GraphCatalog::lookup(
    const std::string& name) const {
  std::lock_guard lock(mu_);
  const Entry* e = find_locked(name);
  if (e == nullptr) {
    throw std::invalid_argument("catalog: graph '" + name +
                                "' is not resident");
  }
  return e->graph;
}

bool GraphCatalog::contains(const std::string& name) const {
  std::lock_guard lock(mu_);
  return find_locked(name) != nullptr;
}

std::size_t GraphCatalog::size() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const Entry& e : entries_) n += e.closing ? 0 : 1;
  return n;
}

void GraphCatalog::note_query(const std::string& name) {
  std::lock_guard lock(mu_);
  if (Entry* e = find_locked(name)) {
    ++e->queries;
    ++e->recent;
  }
}

void GraphCatalog::rebalance_locked() {
  // Use-weighted largest-remainder apportionment. Every open graph gets
  // weight 1 + recent_queries: the +1 floor keeps an idle graph warm
  // enough to answer its first query without a cold start, while a hot
  // graph's share grows with its traffic. Largest-remainder (Hamilton)
  // distributes the integer remainder bytes, so the shares sum EXACTLY
  // to cache_bytes — the invariant the catalog tests pin.
  std::vector<Entry*> open;
  for (Entry& e : entries_) {
    if (!e.closing) open.push_back(&e);
  }
  if (open.empty()) return;
  double total_weight = 0;
  for (const Entry* e : open) {
    total_weight += 1.0 + static_cast<double>(e->recent);
  }
  const core::Config& cfg = rt_->config();
  std::uint64_t assigned = 0;
  std::vector<std::pair<double, Entry*>> remainders;
  remainders.reserve(open.size());
  for (Entry* e : open) {
    const double w = 1.0 + static_cast<double>(e->recent);
    const double exact =
        static_cast<double>(cfg.cache_bytes) * (w / total_weight);
    e->cache_budget = static_cast<std::uint64_t>(exact);
    assigned += e->cache_budget;
    remainders.emplace_back(exact - static_cast<double>(e->cache_budget), e);
  }
  // Hand the leftover bytes to the largest fractional remainders,
  // open-order ties stable so the result is deterministic.
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::uint64_t leftover = cfg.cache_bytes - assigned;
  for (auto& [frac, e] : remainders) {
    if (leftover == 0) break;
    e->cache_budget += 1;
    --leftover;
  }

  // Realized pool hit rate over the window since the previous rebalance —
  // what the last apportionment actually bought. cache_counters() reads
  // relaxed atomics under the pool's registration lock, no shard locks, so
  // holding mu_ here is fine.
  std::uint32_t realized_pm = trace::kCatalogNoRate;
  const auto& pool = rt_->page_cache();
  if (pool) {
    const device::CacheCounters pc = pool->cache_counters();
    const std::uint64_t dh = pc.hits - last_pool_hits_;
    const std::uint64_t dm = pc.misses - last_pool_misses_;
    if (dh + dm > 0) {
      realized_pm = static_cast<std::uint32_t>(
          (1000ull * dh) / (dh + dm));
    }
    last_pool_hits_ = pc.hits;
    last_pool_misses_ = pc.misses;
  }

  // Give the declared budgets physical teeth when asked: push them into
  // the pool as per-namespace admission caps. Closing entries get their
  // cap removed — they are draining, and their residual pages age out.
  if (cfg.catalog_enforce_budgets && pool) {
    for (const Entry& e : entries_) {
      if (!e.cached) continue;
      pool->set_namespace_cap(e.cached->namespace_base(),
                              e.closing ? 0 : e.cache_budget);
    }
  }

  trace::instant(trace::Name::kCatalogRebalance,
                 trace::catalog_rebalance_arg(open.size(), realized_pm));
}

void GraphCatalog::rebalance() {
  std::lock_guard lock(mu_);
  std::erase_if(entries_, [](const Entry& e) {
    return e.closing && e.graph.use_count() == 1;
  });
  rebalance_locked();
  for (Entry& e : entries_) e.recent = 0;
}

std::size_t GraphCatalog::evict_idle() {
  std::vector<std::string> idle;
  {
    std::lock_guard lock(mu_);
    for (const Entry& e : entries_) {
      if (!e.closing && e.recent == 0) idle.push_back(e.name);
    }
  }
  for (const std::string& name : idle) close(name);
  return idle.size();
}

std::uint64_t GraphCatalog::cache_budget_of(const std::string& name) const {
  std::lock_guard lock(mu_);
  const Entry* e = find_locked(name);
  if (e == nullptr) {
    throw std::invalid_argument("catalog: graph '" + name +
                                "' is not resident");
  }
  return e->cache_budget;
}

std::uint64_t GraphCatalog::total_cache_budget() const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const Entry& e : entries_) total += e.cache_budget;
  return total;
}

std::vector<CatalogEntryInfo> GraphCatalog::snapshot() const {
  // Realized occupancy first (pool walk takes shard locks; keep it
  // outside mu_).
  std::vector<device::ShardedPageCache::NamespaceUsage> usage;
  if (const auto& pool = rt_->page_cache()) usage = pool->namespace_usage();
  std::lock_guard lock(mu_);
  std::vector<CatalogEntryInfo> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    CatalogEntryInfo info;
    info.name = e.name;
    info.cache_budget_bytes = e.cache_budget;
    info.queries = e.queries;
    info.recent_queries = e.recent;
    info.metadata_bytes = e.graph ? e.graph->metadata_bytes() : 0;
    info.closing = e.closing;
    for (const auto& u : usage) {
      if (e.cached && u.base == e.cached->namespace_base()) {
        info.resident_bytes = u.resident_bytes();
        info.cache = u.cache;
        break;
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<device::ShardedPageCache::NamespaceUsage>
GraphCatalog::namespace_usage() const {
  const auto& pool = rt_->page_cache();
  if (!pool) return {};
  return pool->namespace_usage();
}

}  // namespace blaze::serve
