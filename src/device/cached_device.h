// Page-cache decorator for block devices.
//
// Paper Section V-B: Blaze loses to FlashGraph only on sk2005, whose
// locality FlashGraph's LRU page cache exploits, and "Blaze only implements
// the random eviction of IO buffer pages, and we leave implementing more
// advanced eviction policies as future work". This decorator implements
// that future work as a thin BlockDevice adapter over the sharded
// device::PageCache subsystem (page_cache.h): the storage, eviction
// policies, miss-dedup registry and counter blocks all live in
// ShardedPageCache / CacheShard. CachedDevice translates device pages into
// pool keys, counts each access's outcome once into its namespace's
// pool-owned block, and provides the sync/async read facades. Several
// CachedDevices can share one pool under a single byte budget
// (Runtime::page_cache()), or a device can own a private pool via the
// capacity/options constructors.
#pragma once

#include <memory>

#include "device/block_device.h"
#include "device/page_cache.h"

namespace blaze::device {

/// Read-through page cache over another device. Only whole-page-aligned
/// reads are cached; unaligned reads pass through. Thread-safe: many query
/// sessions may read through one CachedDevice concurrently, and misses for
/// the same page are deduplicated so two queries faulting the same CSR page
/// issue one inner-device read (the second waits — or defers, on the async
/// path — and is served from the cache when the first one fills it).
class CachedDevice : public BlockDevice {
 public:
  /// Private single-shard pool (exact pre-pool semantics: one lock, one
  /// eviction domain). Kept for the ablation benches, the policy tests and
  /// the FlashGraph baseline's LRU cache.
  CachedDevice(std::shared_ptr<BlockDevice> inner,
               std::size_t capacity_bytes, EvictionPolicy policy);

  /// Adapter over a shared pool: this device registers its key namespace
  /// with `pool` and competes for the pool's byte budget with every other
  /// device registered there.
  CachedDevice(std::shared_ptr<BlockDevice> inner,
               std::shared_ptr<ShardedPageCache> pool);

  /// Shared-pool adapter registering under an explicit namespace label
  /// instead of the inner device's name — serve::GraphCatalog names each
  /// graph's namespace "graph/<name>" so the pool's per-namespace
  /// occupancy reads as a per-graph breakdown.
  CachedDevice(std::shared_ptr<BlockDevice> inner,
               std::shared_ptr<ShardedPageCache> pool,
               const std::string& namespace_name);

  const std::string& name() const override { return name_; }
  std::uint64_t size() const override { return inner_->size(); }

  void read(std::uint64_t offset, std::span<std::byte> out) override;

  std::unique_ptr<AsyncChannel> open_channel() override;

  /// Stats of the *cached* view (hits cost no inner-device time).
  /// Unaligned pass-through traffic is recorded on the inner device only —
  /// it is serviced there, and double-recording it here once inflated the
  /// cached view's byte counts.
  IoStats& stats() override { return stats_; }
  BlockDevice& inner() { return *inner_; }

  /// The pool backing this device (shared or private).
  const std::shared_ptr<ShardedPageCache>& pool() const { return pool_; }

  /// This device's pool key-namespace base (the register_device() base):
  /// pool key = namespace_base() + device page number. The catalog
  /// uses it to join profiler curves and occupancy/caps to graphs.
  std::uint64_t namespace_base() const { return ns_.base; }

  /// This device's namespace counters (its pool-owned block; evictions
  /// are a pool property and read 0 here). Unaligned pass-through reads
  /// count as misses here too.
  CacheCounters cache_counters() const { return ns_.counters->load(); }

  /// Fills `out` (kPageSize bytes) for page `page`; returns true on a
  /// cache hit. On miss the caller must read from the inner device and
  /// then call fill().
  bool lookup(std::uint64_t page, std::byte* out);

  /// All-or-nothing lookup of `num_pages` consecutive pages starting at
  /// `first_page`. Copies into `out` and counts num_pages hits only when
  /// EVERY page is cached; otherwise counts num_pages misses (the whole
  /// request will be re-read from the inner device, so pages that happened
  /// to be cached must not inflate the hit rate).
  bool lookup_run(std::uint64_t first_page, std::uint32_t num_pages,
                  std::byte* out);

  /// Accounts an uncacheable (unaligned) read as misses for every page it
  /// overlaps — such traffic bypasses the cache but must not silently
  /// vanish from the hit-rate statistics.
  void record_unaligned_miss(std::uint64_t offset, std::uint64_t length);

  /// Inserts (or overwrites) a page, evicting per policy when full.
  void fill(std::uint64_t page, const std::byte* data);

  // --- Miss-dedup protocol (async channels; the sync read() path uses the
  // --- same in-flight registry internally).
  //
  // One "run" is a page-aligned request of `num_pages` consecutive pages
  // (the read engine merges up to 4). All-or-nothing like lookup_run.
  //
  //   kHit      → `out` is filled, num_pages hits counted; done.
  //   kDeferred → every missing page is in flight under another caller.
  //               Nothing counted. Re-poll with retry_deferred_run().
  //   kOwned    → num_pages misses counted and the pages marked in flight.
  //               Caller reads the inner device, fill()s each page, then
  //               end_run()s — on failure it still MUST end_run() so
  //               deferred peers can reclaim ownership instead of spinning.
  RunState try_start_run(std::uint64_t first_page, std::uint32_t num_pages,
                         std::byte* out);

  /// Re-polls a previously deferred run. kHit additionally counts the pages
  /// as dedup hits (the wait saved an inner read); kOwned means the prior
  /// owner gave up without filling and this caller now owns the read.
  RunState retry_deferred_run(std::uint64_t first_page,
                              std::uint32_t num_pages, std::byte* out);

  /// Releases the in-flight marks of an owned run and wakes sync waiters.
  /// Call after the last fill() (or after a failed inner read).
  void end_run(std::uint64_t first_page, std::uint32_t num_pages);

 private:
  std::string name_;
  std::shared_ptr<BlockDevice> inner_;
  std::shared_ptr<ShardedPageCache> pool_;
  CacheNamespace ns_;  ///< pool key = ns_.base + device page number
  IoStats stats_;

  std::uint64_t key(std::uint64_t page) const { return ns_.base + page; }
  /// Blocking per-page miss path for the sync read() API: waits out a
  /// foreign in-flight read or claims ownership and reads the inner device.
  void read_page_sync(std::uint64_t page, std::byte* dst);
};

}  // namespace blaze::device
