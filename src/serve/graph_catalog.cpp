#include "serve/graph_catalog.h"

#include <stdexcept>
#include <utility>

#include "device/cached_device.h"
#include "prof/profiler.h"
#include "trace/tracer.h"

namespace blaze::serve {
namespace {

std::invalid_argument already_resident(const std::string& name) {
  return std::invalid_argument("catalog: graph '" + name +
                               "' is already resident");
}

std::invalid_argument not_resident(const std::string& name) {
  return std::invalid_argument("catalog: graph '" + name +
                               "' is not resident");
}

}  // namespace

GraphCatalog::GraphCatalog(core::Runtime& rt) : rt_(&rt) {
  // Resident-graph gauge. Registered before any caller can hold mu_
  // through a registry snapshot (metrics.h lock rules): the callback takes
  // mu_, so the catalog itself never calls the registry while holding mu_.
  if (metrics::enabled()) {
    metrics_bindings_.add(metrics::Registry::instance().callback(
        "blaze_catalog_graphs", {}, metrics::Kind::kGauge, [this] {
          std::lock_guard lock(mu_);
          return static_cast<double>(entries_.size());
        }));
  }
}

GraphCatalog::~GraphCatalog() { metrics_bindings_.clear(); }

GraphCatalog::Entry* GraphCatalog::find_locked(const std::string& name) {
  for (Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const GraphCatalog::Entry* GraphCatalog::find_locked(
    const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void GraphCatalog::open(const std::string& name, format::OnDiskGraph g) {
  // Reject a resident name before wrapping: the wrap registers a pool
  // namespace, which nothing unregisters.
  if (contains(name)) throw already_resident(name);
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
    // A concurrent open of the same name may have won the race.
    if (find_locked(name) != nullptr) throw already_resident(name);
    Entry e;
    e.name = name;
    e.graph = std::move(resident);
    e.cached = std::move(wrapped);
    entries_.push_back(std::move(e));
    split_budget_locked();
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
    if (e == nullptr) throw not_resident(name);
    // In-flight queries pin the graph, and with it the cached device,
    // through their own handles. Its residual pages age out uncapped.
    const auto& pool = rt_->page_cache();
    if (rt_->config().catalog_enforce_budgets && pool && e->cached) {
      pool->set_namespace_cap(e->cached->namespace_base(), 0);
    }
    entries_.erase(entries_.begin() + (e - entries_.data()));
    split_budget_locked();
  }
  trace::instant(trace::Name::kCatalogClose, 0);
}

std::shared_ptr<const format::OnDiskGraph> GraphCatalog::lookup(
    const std::string& name) const {
  std::lock_guard lock(mu_);
  const Entry* e = find_locked(name);
  if (e == nullptr) throw not_resident(name);
  return e->graph;
}

bool GraphCatalog::contains(const std::string& name) const {
  std::lock_guard lock(mu_);
  return find_locked(name) != nullptr;
}

std::size_t GraphCatalog::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

void GraphCatalog::note_query(const std::string& name) {
  std::lock_guard lock(mu_);
  if (Entry* e = find_locked(name)) ++e->queries;
}

void GraphCatalog::split_budget_locked() {
  // Equal shares; the first cache_bytes % n graphs in open order take one
  // byte more, so the shares sum EXACTLY to cache_bytes — the invariant
  // the catalog tests pin.
  const core::Config& cfg = rt_->config();
  const std::uint64_t n = entries_.size();
  for (std::uint64_t i = 0; i < n; ++i) {
    entries_[i].cache_budget =
        cfg.cache_bytes / n + (i < cfg.cache_bytes % n ? 1 : 0);
  }
  // Give the declared budgets physical teeth when asked: push them into
  // the pool as per-namespace admission caps.
  const auto& pool = rt_->page_cache();
  if (cfg.catalog_enforce_budgets && pool) {
    for (const Entry& e : entries_) {
      if (e.cached) {
        pool->set_namespace_cap(e.cached->namespace_base(), e.cache_budget);
      }
    }
  }
}

std::uint64_t GraphCatalog::cache_budget_of(const std::string& name) const {
  std::lock_guard lock(mu_);
  const Entry* e = find_locked(name);
  if (e == nullptr) throw not_resident(name);
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
