// device::PageCache — sharded, scan-resistant page-cache pool.
//
// PR 3 made CachedDevice the hot shared structure under multi-query
// serving; this subsystem pulls the storage/eviction core out of it into a
// layered pool so hundreds of sessions stop colliding on one lock:
//
//   ShardedPageCache            pool: byte budget, key namespaces, one
//     │                         counter block per namespace, metrics
//     └── CacheShard × N        each: own mutex + cv, page table, slots,
//           └── CachePolicy     in-flight dedup registry, evictions
//                               pluggable eviction (LRU / random / S3-FIFO)
//
// Keys are (device, page) pairs packed into 64 bits, so one pool can back
// several devices under a single byte budget (Runtime::page_cache()).
// Pages hash to shards by their kShardGroupPages-aligned group, sized to
// the read engine's merge bound so a merged run touches at most two
// shards; each shard owns its own lock, in-flight registry, and eviction
// state, making cross-query contention per-shard instead of global.
//
// The default policy is S3-FIFO (small/main/ghost FIFO trio): EdgeMap's
// full sequential scans are exactly the access pattern that flushes an
// LRU's hot set, while S3-FIFO admits new pages into a small probationary
// queue that scans stream straight through, and promotes re-faulted pages
// (ghost hits) into the protected main queue. LRU and random remain
// available for the ablation benches and FlashGraph-parity comparisons.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "device/eviction_policy.h"
#include "metrics/metrics.h"
#include "util/common.h"
#include "util/rng.h"

namespace blaze::device {

/// Outcome of the miss-dedup protocol for one page run.
enum class RunState {
  kHit,       ///< served from the cache; the buffer is filled
  kDeferred,  ///< every missing page is already being read by another caller
  kOwned,     ///< caller claimed the read; it must fill() then end_run()
};

/// Outcome of the blocking sync-path page acquisition.
enum class SyncAcquire {
  kHit,       ///< copied from the cache immediately
  kDedupHit,  ///< copied after waiting out another caller's in-flight read
  kOwned,     ///< caller claimed the read (fill() + end_run() required)
};

/// One snapshot of the cache counters: one namespace's block
/// (CachedDevice, NamespaceUsage) or the pool total (sum of every block
/// plus the shards' evictions). serve::EngineStats and the catalog carry
/// these.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t dedup_hits = 0;   ///< hits served by waiting out a peer read
  std::uint64_t ghost_hits = 0;   ///< re-faults promoted via the ghost queue
  std::uint64_t evictions = 0;    ///< pool-wide only; 0 in a namespace view

  double hit_rate() const {
    const double h = static_cast<double>(hits);
    const double m = static_cast<double>(misses);
    return h + m == 0 ? 0.0 : h / (h + m);
  }
};

/// The one counter block of a pool namespace. The pool owns it for its
/// whole lifetime (a closed catalog graph keeps its history); the adapter
/// that registered the namespace counts each logical access into it once,
/// where the run-level outcome is decided, and every reader loads it.
/// Relaxed atomics: sessions count while monitoring threads read.
struct NamespaceCounters {
  std::atomic<std::uint64_t> hits{0}, misses{0}, dedup_hits{0}, ghost_hits{0};

  void add_hits(std::uint64_t pages, bool dedup) {
    hits.fetch_add(pages, std::memory_order_relaxed);
    if (dedup) dedup_hits.fetch_add(pages, std::memory_order_relaxed);
  }
  void add_misses(std::uint64_t pages) {
    misses.fetch_add(pages, std::memory_order_relaxed);
  }
  CacheCounters load() const {
    CacheCounters c;
    c.hits = hits.load(std::memory_order_relaxed);
    c.misses = misses.load(std::memory_order_relaxed);
    c.dedup_hits = dedup_hits.load(std::memory_order_relaxed);
    c.ghost_hits = ghost_hits.load(std::memory_order_relaxed);
    return c;
  }
};

/// Hook for profiling layers that want to see the cache access stream
/// without the cache depending on them (prof::WorkloadProfiler implements
/// this; the device layer never includes prof). Called OUTSIDE any shard
/// lock, once per logical access — retries of a deferred run are not
/// re-reported. Implementations must be cheap and thread-safe: the hook
/// runs on the read workers' hot path.
class CacheAccessObserver {
 public:
  virtual ~CacheAccessObserver() = default;

  /// One cache access covering `num_pages` consecutive pool keys starting
  /// at `first_key` (namespace id = key >> kNamespaceShift).
  virtual void on_access(std::uint64_t first_key, std::uint32_t num_pages) = 0;
};

/// Per-shard eviction policy. Not thread-safe: every call happens under
/// the owning shard's lock. Slots are dense indices [0, capacity); the
/// shard guarantees victim() is only called when every slot is resident.
class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  /// `key` became resident in `slot`. Returns true when the admission was
  /// upgraded by a ghost hit (the page was evicted recently — S3-FIFO
  /// promotes it straight into the protected main queue).
  virtual bool inserted(std::size_t slot, std::uint64_t key) = 0;

  /// Cache hit on a resident slot.
  virtual void touched(std::size_t slot) = 0;

  /// Picks a resident slot to evict, unlinking it from the policy's
  /// bookkeeping (the shard erases the page table entry and reuses the
  /// slot). May rotate internal queues (S3-FIFO promotion/demotion).
  virtual std::size_t victim() = 0;
};

/// Builds the policy state machine for one shard of `slots` slots.
std::unique_ptr<CachePolicy> make_cache_policy(EvictionPolicy policy,
                                               std::size_t slots,
                                               std::uint64_t seed);

/// Pages per shard-hash group. Equal to the read engine's merge bound
/// (io::kMaxMergePages) so a merged run crosses at most one group
/// boundary, i.e. touches at most two shards.
inline constexpr std::uint64_t kShardGroupPages = 4;

/// Key layout: the high 16 bits of a pool key are the owning device's
/// namespace id (ShardedPageCache::register_device), the low 48 its
/// device-local page number.
inline constexpr unsigned kNamespaceShift = 48;

/// One cache shard: storage slots, page table, in-flight dedup registry,
/// eviction policy and eviction counter, all guarded by one shard-local
/// mutex. It reports outcomes and counts nothing else: hits and misses
/// are counted by the namespace's adapter (NamespaceCounters). Exposed
/// (rather than buried in ShardedPageCache) so the policy unit tests can
/// drive a single shard deterministically.
class CacheShard {
 public:
  CacheShard(std::uint32_t index, std::size_t capacity_pages,
             EvictionPolicy policy, std::uint64_t seed);

  // Non-copyable: the mutex/cv and slot storage pin the identity.
  CacheShard(const CacheShard&) = delete;
  CacheShard& operator=(const CacheShard&) = delete;

  /// Full miss-dedup protocol for a run living entirely in this shard
  /// (one lock acquisition):
  ///   kHit      -> every page copied into `out`
  ///   kDeferred -> every missing page in flight elsewhere
  ///   kOwned    -> pages marked in flight; caller reads, fill()s, end_run()s
  RunState start_run(std::uint64_t first_key, std::uint32_t num_pages,
                     std::byte* out);

  // --- Split protocol for runs spanning two shards: the pool peeks every
  // --- segment first, then claims once the combined outcome is known, so
  // --- the run stays all-or-nothing across shards.

  /// Probe: copies (and policy-touches) when every page is resident
  /// (kHit), reports kDeferred when every missing page is in flight, else
  /// kClaimable.
  enum class Probe { kHit, kDeferred, kClaimable };
  Probe peek_run(std::uint64_t first_key, std::uint32_t num_pages,
                 std::byte* out);

  /// Marks num_pages keys in flight.
  void claim_run(std::uint64_t first_key, std::uint32_t num_pages);

  /// Releases in-flight marks and wakes sync waiters.
  void end_run(std::uint64_t first_key, std::uint32_t num_pages);

  /// Inserts one page, evicting per policy when full; a fill of a resident
  /// key overwrites its bytes. Returns true on a ghost hit (see
  /// CachePolicy::inserted).
  bool fill(std::uint64_t key, const std::byte* data);

  /// Blocking single-page acquisition for the sync read path: hit, hit
  /// after waiting out a foreign in-flight read (dedup), or ownership of
  /// the miss (caller reads the device, fill()s, end_run()s).
  SyncAcquire acquire_page_sync(std::uint64_t key, std::byte* dst);

  std::uint32_t index() const { return index_; }
  std::size_t capacity_pages() const { return capacity_pages_; }

  /// Pages this shard has evicted (relaxed read).
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Resident pages right now (test/diagnostic; takes the shard lock).
  std::size_t resident_pages() const;

  /// Accumulates this shard's resident pages per key namespace
  /// (key >> kNamespaceShift) into `acc` (takes the shard lock). The pool
  /// sums these across shards so the catalog can see which graph actually
  /// occupies the shared budget.
  void add_resident_by_namespace(
      std::unordered_map<std::uint64_t, std::uint64_t>& acc) const;

  /// Caps namespace `ns` (key >> kNamespaceShift) at `cap_pages` resident
  /// pages in THIS shard; 0 removes the cap. Enforced as admission bypass:
  /// fill() of a new page in an at-cap namespace is refused (the read
  /// still completes — the page just isn't retained), so one graph cannot
  /// squeeze the others out of their apportioned budgets. Racing fills and
  /// evictions keep their exact semantics.
  void set_ns_cap(std::uint64_t ns, std::uint64_t cap_pages);

 private:
  static constexpr std::size_t kNil = ~std::size_t{0};

  /// Copies a fully resident run into `out` with policy touch; false if
  /// any page is absent. Caller holds mu_.
  bool copy_run_locked(std::uint64_t first_key, std::uint32_t num_pages,
                       std::byte* out);
  Probe classify_locked(std::uint64_t first_key, std::uint32_t num_pages,
                        std::byte* out);
  void claim_locked(std::uint64_t first_key, std::uint32_t num_pages);
  bool fill_locked(std::uint64_t key, const std::byte* data);

  const std::uint32_t index_;
  const std::size_t capacity_pages_;
  std::vector<std::byte> storage_;
  std::unique_ptr<CachePolicy> policy_;

  mutable std::mutex mu_;
  std::condition_variable inflight_cv_;  ///< signaled by end_run()
  // Guarded by mu_:
  std::unordered_map<std::uint64_t, std::size_t> map_;  // key -> slot
  std::unordered_map<std::uint64_t, std::uint32_t> inflight_;  // key -> refs
  std::vector<std::uint64_t> slot_key_;                 // slot -> key
  std::vector<std::size_t> free_slots_;
  /// Resident pages per key namespace (key >> kNamespaceShift), kept
  /// exactly in sync with map_ by fill_locked (insert / evict).
  std::unordered_map<std::uint64_t, std::uint64_t> ns_resident_;
  /// Admission caps per namespace (absent = uncapped); see set_ns_cap().
  std::unordered_map<std::uint64_t, std::uint64_t> ns_cap_pages_;

  /// Written under mu_, read by monitoring threads without it.
  std::atomic<std::uint64_t> evictions_{0};
};

/// Pool configuration (Config::cache_* maps onto this 1:1).
struct PageCacheOptions {
  std::string name = "page_cache";  ///< metrics label
  std::size_t capacity_bytes = 0;   ///< total budget across all shards
  EvictionPolicy policy = EvictionPolicy::kS3Fifo;
  std::size_t shards = 0;           ///< 0 = auto (scaled to capacity)
  std::uint64_t seed = 0xCACE;      ///< policy RNG seed (random eviction)
};

/// One registered namespace: the key base its adapter adds to device
/// page numbers, and the counter block it counts into.
struct CacheNamespace {
  std::uint64_t base = 0;
  NamespaceCounters* counters = nullptr;  ///< pool-owned, pool lifetime
};

/// The pool: N shards behind one key namespace. Thread-safe — every
/// operation resolves to one or two shard-local critical sections.
class ShardedPageCache {
 public:
  explicit ShardedPageCache(PageCacheOptions opts);

  /// Registers a device with the pool and returns its key namespace base
  /// (callers add it to device-local page numbers to form pool keys; pages
  /// of different registered devices never collide) and its counter
  /// block. Once bind_metrics() ran, the namespace's series are published
  /// here too.
  CacheNamespace register_device(const std::string& device_name);

  /// One registered namespace's current footprint and counters.
  struct NamespaceUsage {
    std::uint64_t base = 0;  ///< register_device() base
    std::string name;        ///< the name it registered under
    std::uint64_t resident_pages = 0;
    CacheCounters cache;     ///< its counter block (evictions = 0)
    std::uint64_t resident_bytes() const { return resident_pages * kPageSize; }
  };

  /// Per-namespace occupancy and counters right now, registration order
  /// (walks every shard under its lock; monitoring-path cost, not
  /// hot-path). Namespaces whose pages were all evicted report 0, not
  /// absence — the catalog's occupancy reconciliation depends on seeing
  /// every registrant.
  std::vector<NamespaceUsage> namespace_usage() const;

  /// Installs (or clears, with nullptr) the access-stream observer. The
  /// observer must outlive its installation — clear it before destroying
  /// the observing object. Disabled cost is one relaxed atomic load and a
  /// branch per access.
  void set_access_observer(CacheAccessObserver* observer) {
    observer_.store(observer, std::memory_order_release);
  }
  CacheAccessObserver* access_observer() const {
    return observer_.load(std::memory_order_relaxed);
  }

  /// Caps the namespace rooted at `ns_base` (a register_device() base) at
  /// `cap_bytes` of residency, spread evenly across shards (rounded up, so
  /// the effective cap is within one page per shard of the request); 0
  /// removes the cap. See CacheShard::set_ns_cap.
  void set_namespace_cap(std::uint64_t ns_base, std::uint64_t cap_bytes);

  // --- Miss-dedup protocol over pool keys (run = consecutive keys; at
  // --- most kMaxMergePages, so at most two shards are involved). These
  // --- report outcomes; the caller counts them into its namespace block.
  RunState try_start_run(std::uint64_t first_key, std::uint32_t num_pages,
                         std::byte* out);
  /// Re-polls a deferred run; not re-reported to the access observer.
  RunState retry_deferred_run(std::uint64_t first_key,
                              std::uint32_t num_pages, std::byte* out);
  void end_run(std::uint64_t first_key, std::uint32_t num_pages);

  /// Inserts one page; true on a ghost hit.
  bool fill(std::uint64_t key, const std::byte* data);

  /// All-or-nothing lookup: copies and returns true only when every page
  /// is resident.
  bool lookup_run(std::uint64_t first_key, std::uint32_t num_pages,
                  std::byte* out);

  /// Blocking single-page acquisition (sync read path).
  SyncAcquire acquire_page_sync(std::uint64_t key, std::byte* dst);

  const std::string& name() const { return opts_.name; }
  EvictionPolicy policy() const { return opts_.policy; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t capacity_pages() const { return capacity_pages_; }
  std::size_t capacity_bytes() const { return capacity_pages_ * kPageSize; }

  CacheShard& shard(std::size_t i) { return *shards_[i]; }
  const CacheShard& shard(std::size_t i) const { return *shards_[i]; }
  std::uint32_t shard_of(std::uint64_t key) const;

  /// Pool total: the sum of every namespace block plus the shards'
  /// evictions.
  CacheCounters cache_counters() const;

  /// Publishes blaze_cache_{hits,misses,dedup_hits,ghost_hits}_total
  /// labeled {cache=name, ns=<namespace>} for every namespace (present
  /// and future), blaze_cache_evictions_total{cache, shard=i}, and
  /// pool-level blaze_cache_hit_rate and blaze_cache_shards{cache}. Zero
  /// hot-path cost (callbacks read the relaxed atomics at sample time);
  /// idempotent; bindings unregister when the pool dies.
  void bind_metrics();

  /// Picks the shard count for a budget when PageCacheOptions::shards == 0:
  /// one shard per 256 cached pages (1 MiB), clamped to [1, 16] — small
  /// caches keep exact single-shard policy behaviour, serving-scale pools
  /// spread locks wide enough for dozens of sessions.
  static std::size_t auto_shards(std::size_t capacity_pages);

 private:
  struct Namespace {
    explicit Namespace(std::string n) : name(std::move(n)) {}
    const std::string name;
    NamespaceCounters counters;
  };

  PageCacheOptions opts_;
  std::size_t capacity_pages_ = 0;
  std::vector<std::unique_ptr<CacheShard>> shards_;

  /// Registration order; a deque so blocks never move. Guarded by
  /// devices_mu_ (the blocks themselves are atomics, read without it).
  mutable std::mutex devices_mu_;
  std::deque<Namespace> namespaces_;

  /// Guards the bindings. Never held together with devices_mu_ while
  /// calling into the registry: the hit-rate callback takes devices_mu_
  /// under the registry lock.
  std::mutex bind_mu_;
  bool metrics_bound_ = false;       ///< guarded by bind_mu_
  std::size_t bound_namespaces_ = 0; ///< guarded by bind_mu_
  metrics::BindingSet metrics_bindings_;  ///< after the state it reads

  std::atomic<CacheAccessObserver*> observer_{nullptr};

  /// Reports one logical access to the installed observer (if any).
  void notify_access(std::uint64_t first_key, std::uint32_t num_pages) {
    if (CacheAccessObserver* obs = observer_.load(std::memory_order_acquire)) {
      obs->on_access(first_key, num_pages);
    }
  }

  /// Publishes the series of namespaces registered since the last call
  /// (no-op before bind_metrics()).
  void bind_new_namespaces();

  /// Emits one cache_hit/cache_miss trace instant per shard segment of a
  /// resolved run (shard-attributed, see trace::cache_arg).
  void trace_outcome(std::uint64_t first_key, std::uint32_t num_pages,
                     bool hit);

  /// Splits [first, first+n) at shard-group boundaries and invokes
  /// fn(shard, first_key, num_pages) per segment (1 or 2 calls).
  template <typename Fn>
  void for_each_segment(std::uint64_t first_key, std::uint32_t num_pages,
                        Fn&& fn);

  RunState start_run(std::uint64_t first_key, std::uint32_t num_pages,
                     std::byte* out);
};

}  // namespace blaze::device
