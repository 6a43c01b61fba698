// serve::GraphCatalog — many resident graphs behind one engine, one
// shared cache budget.
//
// A production deployment does not serve one graph: it holds a *catalog*
// of resident OnDiskGraphs (social graph, web graph, per-region shards)
// behind a single QueryEngine and a single Config::cache_bytes budget:
//
//   GraphCatalog
//     ├── entries: name -> pinned OnDiskGraph (device wrapped through the
//     │            runtime's shared ShardedPageCache, one key namespace
//     │            per graph)
//     ├── budgeter: equal per-graph cache budgets that sum EXACTLY to
//     │            cache_bytes at every instant (cache_bytes / n each, the
//     │            first cache_bytes % n graphs in open order one byte
//     │            more), re-split on every open and close
//     └── lifecycle: lookup() hands out shared_ptr handles; close()
//                    erases the entry at once, and in-flight queries keep
//                    the graph's storage alive through their own handles
//
// Budget semantics: the per-graph figures are *declared* budgets — the
// catalog's statement of how the pool should split, which blaze-run
// surfaces and tests pin with the sum invariant. By default they are not
// enforced: every graph's pages compete in the same S3-FIFO shards, whose
// scan resistance only partly shields one graph's hot set from another
// graph's scans (DESIGN.md §11 discusses the gap between the declared and
// the realized split; namespace_usage() measures the realized one). With
// Config::catalog_enforce_budgets each budget becomes its namespace's
// admission cap in the pool, which shields it fully.
//
// Thread-safe: open/close/lookup may race with each other and with
// queries resolving handles.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "device/cached_device.h"
#include "format/on_disk_graph.h"

namespace blaze::serve {

/// Snapshot row of one resident graph (see GraphCatalog::snapshot).
struct CatalogEntryInfo {
  std::string name;
  std::uint64_t cache_budget_bytes = 0;  ///< declared share of cache_bytes
  std::uint64_t resident_bytes = 0;      ///< realized pool occupancy
  std::uint64_t queries = 0;             ///< note_query() lifetime count
  /// This graph's namespace counters (hits/misses/dedup/ghost), read
  /// from the pool's block for its namespace — the same row
  /// namespace_usage() reports. Zero when the graph is uncached.
  device::CacheCounters cache;
};

class GraphCatalog {
 public:
  /// The catalog budgets `rt.config().cache_bytes` across its residents,
  /// and wraps every opened graph's device through `rt.page_cache()`.
  explicit GraphCatalog(core::Runtime& rt);
  ~GraphCatalog();

  GraphCatalog(const GraphCatalog&) = delete;
  GraphCatalog& operator=(const GraphCatalog&) = delete;

  /// Makes `g` resident under `name`, wrapping its device in the shared
  /// page-cache pool (namespace "graph/<name>") and re-splitting budgets.
  /// Throws std::invalid_argument if the name is already resident, before
  /// any pool namespace is registered for it.
  void open(const std::string& name, format::OnDiskGraph g);

  /// Convenience: load_graph_files() then open().
  void open_files(const std::string& name, const std::string& index_path,
                  const std::string& adj_path);

  /// Erases `name` (new lookups fail) and re-splits the budget over the
  /// remaining residents; under enforcement the closed namespace's cap is
  /// lifted. Queries already holding the graph's handle keep it alive
  /// until they finish — close() never yanks storage from under an
  /// in-flight EdgeMap. Throws std::invalid_argument for unknown names.
  void close(const std::string& name);

  /// Resolves a resident graph to a pinning handle. Throws
  /// std::invalid_argument for unknown (or already-closed) names.
  std::shared_ptr<const format::OnDiskGraph> lookup(
      const std::string& name) const;

  bool contains(const std::string& name) const;
  std::size_t size() const;

  /// Records one admitted query against `name` (the lifetime count in
  /// snapshot()). Unknown names are ignored: the query raced a close, and
  /// its handle keeps it running.
  void note_query(const std::string& name);

  /// Declared budget of one resident graph; throws for unknown names.
  std::uint64_t cache_budget_of(const std::string& name) const;

  /// Sum of declared budgets == Config::cache_bytes whenever size() > 0,
  /// == 0 when the catalog is empty (nothing to spend on). The catalog
  /// tests assert this invariant after every lifecycle step.
  std::uint64_t total_cache_budget() const;

  /// Snapshot of every resident graph, open order.
  std::vector<CatalogEntryInfo> snapshot() const;

  /// Realized per-graph pool occupancy (bytes) by cache namespace; zero
  /// rows when caching is disabled.
  std::vector<device::ShardedPageCache::NamespaceUsage> namespace_usage()
      const;

 private:
  struct Entry {
    std::string name;
    std::shared_ptr<const format::OnDiskGraph> graph;
    /// The pool adapter wrapped around this graph's device at open(), kept
    /// for the pool key namespace. Null when the graph is uncached (no
    /// pool / no device).
    std::shared_ptr<device::CachedDevice> cached;
    std::uint64_t cache_budget = 0;
    std::uint64_t queries = 0;
  };

  /// Splits cache_bytes equally over the entries and pushes the budgets
  /// as namespace admission caps when Config::catalog_enforce_budgets.
  /// Caller holds mu_.
  void split_budget_locked();
  Entry* find_locked(const std::string& name);
  const Entry* find_locked(const std::string& name) const;

  core::Runtime* rt_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;  ///< open order
  metrics::BindingSet metrics_bindings_;
};

}  // namespace blaze::serve
