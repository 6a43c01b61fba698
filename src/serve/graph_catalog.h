// serve::GraphCatalog — many resident graphs behind one engine, one
// shared cache budget.
//
// A production deployment does not serve one graph: it holds a *catalog*
// of resident OnDiskGraphs (social graph, web graph, per-region shards)
// behind a single QueryEngine and a single Config::cache_bytes budget.
// The catalog is the component that decides how that budget is spent:
//
//   GraphCatalog
//     ├── entries: name -> pinned OnDiskGraph (device wrapped through the
//     │            runtime's shared ShardedPageCache, one key namespace
//     │            per graph)
//     ├── budgeter: declared per-graph cache budgets that sum EXACTLY to
//     │            cache_bytes at every instant (largest-remainder
//     │            apportionment over use-weighted shares), rebalanced on
//     │            open / close / explicit idle sweeps
//     └── lifecycle: lookup() hands out shared_ptr handles; close()
//                    unlists the graph immediately but the entry is freed
//                    only when the last in-flight query drops its handle
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
// Thread-safe: open/close/lookup/rebalance may race with each other and
// with queries resolving handles.
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
  std::uint64_t recent_queries = 0;      ///< since the last rebalance
  std::uint64_t metadata_bytes = 0;      ///< DRAM index + page map
  /// This graph's namespace counters (hits/misses/dedup/ghost), read
  /// from the pool's block for its namespace — the same row
  /// namespace_usage() reports. Zero when the graph is uncached.
  device::CacheCounters cache;
  bool closing = false;  ///< unlisted, waiting for in-flight handles
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
  /// page-cache pool (namespace "graph/<name>") and rebalancing budgets.
  /// Throws std::invalid_argument if the name is already resident.
  void open(const std::string& name, format::OnDiskGraph g);

  /// Convenience: load_graph_files() then open().
  void open_files(const std::string& name, const std::string& index_path,
                  const std::string& adj_path);

  /// Unlists `name` (new lookups fail) and rebalances the freed budget
  /// across the remaining residents immediately. Queries already holding
  /// the graph's handle keep it alive until they finish — close() never
  /// yanks storage from under an in-flight EdgeMap. Throws
  /// std::invalid_argument for unknown names.
  void close(const std::string& name);

  /// Resolves a resident graph to a pinning handle. Throws
  /// std::invalid_argument for unknown (or already-closed) names.
  std::shared_ptr<const format::OnDiskGraph> lookup(
      const std::string& name) const;

  bool contains(const std::string& name) const;
  std::size_t size() const;

  /// Records one admitted query against `name` — feeds the use-weighted
  /// budget shares. Unknown names are ignored (the query raced a close;
  /// its handle keeps it running, but the freed graph's budget is gone).
  void note_query(const std::string& name);

  /// Recomputes the per-graph budgets from current use weights: each
  /// resident graph gets share (1 + recent_queries) / sum over residents,
  /// materialized by largest-remainder apportionment so the shares sum
  /// EXACTLY to cache_bytes. Resets the recent counters —
  /// calling this periodically is the "idle" trigger: a graph nobody
  /// queried since the last call decays to the floor share.
  void rebalance();

  /// Closes every resident graph with zero queries since the last
  /// rebalance (the idle sweep); returns how many were evicted.
  std::size_t evict_idle();

  /// Declared budget of one resident graph; throws for unknown names.
  std::uint64_t cache_budget_of(const std::string& name) const;

  /// Sum of declared budgets == Config::cache_bytes whenever size() > 0,
  /// == 0 when the catalog is empty (nothing to spend on). The catalog
  /// tests assert this invariant after every lifecycle step.
  std::uint64_t total_cache_budget() const;

  /// Snapshot of every resident (and still-closing) entry, open order.
  std::vector<CatalogEntryInfo> snapshot() const;

  /// Realized per-graph pool occupancy (bytes) by cache namespace; zero
  /// rows when caching is disabled.
  std::vector<device::ShardedPageCache::NamespaceUsage> namespace_usage()
      const;

  core::Runtime& runtime() { return *rt_; }

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
    std::uint64_t recent = 0;  ///< queries since last rebalance
    bool closing = false;
  };

  /// Recomputes the per-entry cache budgets by largest remainder over
  /// use weights. Emits one kCatalogRebalance instant whose packed arg
  /// carries graphs + realized hit per-mille
  /// (trace::catalog_rebalance_arg), and pushes namespace admission caps
  /// when Config::catalog_enforce_budgets. Caller holds mu_.
  void rebalance_locked();
  Entry* find_locked(const std::string& name);
  const Entry* find_locked(const std::string& name) const;

  core::Runtime* rt_;
  mutable std::mutex mu_;
  /// Open-order entry list. Closing entries stay listed (with closing =
  /// true and zero budget) until their last external handle drops; a
  /// periodic sweep in open/close/rebalance reaps them.
  std::vector<Entry> entries_;
  /// Pool aggregate counters at the previous rebalance — the realized
  /// hit-rate window the next kCatalogRebalance instant reports against.
  std::uint64_t last_pool_hits_ = 0;
  std::uint64_t last_pool_misses_ = 0;
  metrics::BindingSet metrics_bindings_;
};

}  // namespace blaze::serve
