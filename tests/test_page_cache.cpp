// Unit tests for the device::PageCache subsystem: eviction-policy state
// machines driven deterministically through a single CacheShard, the
// ShardedPageCache pool (key distribution, cross-shard runs, shared
// budget across devices), and a multi-thread shard-stress test that the
// TSan CI job runs explicitly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "device/cached_device.h"
#include "device/mem_device.h"
#include "device/page_cache.h"
#include "util/rng.h"

namespace blaze::device {
namespace {

std::vector<std::byte> page_of(std::uint8_t v) {
  return std::vector<std::byte>(kPageSize, static_cast<std::byte>(v));
}

/// Fills `key` into `shard` with a recognizable pattern; returns the
/// ghost-hit flag.
bool fill_key(CacheShard& shard, std::uint64_t key) {
  const auto data = page_of(static_cast<std::uint8_t>(key & 0xff));
  return shard.fill(key, data.data());
}

bool hit(CacheShard& shard, std::uint64_t key) {
  std::vector<std::byte> out(kPageSize);
  return shard.peek_run(key, 1, out.data()) == CacheShard::Probe::kHit;
}

/// First key of a 4-page run whose two shard groups land on different
/// shards, so the pool's split protocol runs.
std::uint64_t cross_shard_run(const ShardedPageCache& pool) {
  std::uint64_t first = 2;
  while (pool.shard_of(first) == pool.shard_of(first + 3)) {
    first += kShardGroupPages;
  }
  return first;
}

// ------------------------------------------------------- policy parsing

TEST(EvictionPolicyNames, ParseAndToStringRoundTrip) {
  EvictionPolicy p = EvictionPolicy::kLru;
  EXPECT_TRUE(parse_eviction_policy("s3fifo", p));
  EXPECT_EQ(p, EvictionPolicy::kS3Fifo);
  EXPECT_TRUE(parse_eviction_policy("s3-fifo", p));
  EXPECT_EQ(p, EvictionPolicy::kS3Fifo);
  EXPECT_TRUE(parse_eviction_policy("lru", p));
  EXPECT_EQ(p, EvictionPolicy::kLru);
  EXPECT_TRUE(parse_eviction_policy("random", p));
  EXPECT_EQ(p, EvictionPolicy::kRandom);

  p = EvictionPolicy::kS3Fifo;
  EXPECT_FALSE(parse_eviction_policy("clock", p));
  EXPECT_EQ(p, EvictionPolicy::kS3Fifo);  // untouched on failure

  EXPECT_STREQ(to_string(EvictionPolicy::kLru), "lru");
  EXPECT_STREQ(to_string(EvictionPolicy::kRandom), "random");
  EXPECT_STREQ(to_string(EvictionPolicy::kS3Fifo), "s3fifo");
}

// ---------------------------------------------------- S3-FIFO state machine

TEST(S3Fifo, GhostPromotionOnReFault) {
  CacheShard shard(0, 10, EvictionPolicy::kS3Fifo, 1);
  for (std::uint64_t k = 0; k < 10; ++k) {
    EXPECT_FALSE(fill_key(shard, k));  // cold inserts: no ghost hits
  }
  // Capacity exceeded: page 0 (oldest, never re-accessed) is evicted into
  // the ghost queue.
  EXPECT_FALSE(fill_key(shard, 10));
  EXPECT_FALSE(hit(shard, 0));
  // Re-faulting page 0 finds its ghost entry: the fill reports a ghost hit
  // and the page is admitted into the protected main queue.
  EXPECT_TRUE(fill_key(shard, 0));
  EXPECT_TRUE(hit(shard, 0));
}

TEST(S3Fifo, ScanFloodDoesNotEvictTouchedHotSet) {
  // 32 slots -> small queue target 3. Eight hot pages, re-accessed once
  // each, then a 100-page one-shot scan.
  constexpr std::uint64_t kHot = 8;
  CacheShard shard(0, 32, EvictionPolicy::kS3Fifo, 1);
  for (std::uint64_t k = 0; k < kHot; ++k) fill_key(shard, k);
  for (std::uint64_t k = 0; k < kHot; ++k) EXPECT_TRUE(hit(shard, k));
  for (std::uint64_t k = 100; k < 200; ++k) fill_key(shard, k);
  // The scan streamed through the small queue; eviction pressure promoted
  // the re-accessed hot pages into main, where the scan cannot reach them.
  for (std::uint64_t k = 0; k < kHot; ++k) {
    EXPECT_TRUE(hit(shard, k)) << "hot page " << k << " was evicted";
  }
}

TEST(S3Fifo, LruEvictsSameHotSetUnderScan) {
  // The contrast case for ScanFloodDoesNotEvictTouchedHotSet: identical
  // access sequence, LRU policy — the scan flushes every hot page.
  constexpr std::uint64_t kHot = 8;
  CacheShard shard(0, 32, EvictionPolicy::kLru, 1);
  for (std::uint64_t k = 0; k < kHot; ++k) fill_key(shard, k);
  for (std::uint64_t k = 0; k < kHot; ++k) EXPECT_TRUE(hit(shard, k));
  for (std::uint64_t k = 100; k < 200; ++k) fill_key(shard, k);
  for (std::uint64_t k = 0; k < kHot; ++k) {
    EXPECT_FALSE(hit(shard, k)) << "LRU unexpectedly kept hot page " << k;
  }
}

TEST(S3Fifo, GhostQueueIsBounded) {
  // Capacity 8 -> ghost capacity 8. Evict 16 pages; only the 8 most
  // recently evicted stay ghosted.
  CacheShard shard(0, 8, EvictionPolicy::kS3Fifo, 1);
  for (std::uint64_t k = 0; k < 24; ++k) fill_key(shard, k);  // evicts 0..15
  EXPECT_EQ(shard.evictions(), 16u);
  EXPECT_FALSE(fill_key(shard, 0));   // expired from the ghost
  EXPECT_TRUE(fill_key(shard, 15));   // still ghosted
}

// --------------------------------------------------------- LRU parity

TEST(ShardLru, EvictsLeastRecentlyUsed) {
  CacheShard shard(0, 4, EvictionPolicy::kLru, 1);
  for (std::uint64_t k = 0; k < 4; ++k) fill_key(shard, k);
  EXPECT_TRUE(hit(shard, 0));  // page 0 becomes most recent
  fill_key(shard, 4);          // evicts page 1 (LRU)
  EXPECT_TRUE(hit(shard, 0));
  EXPECT_FALSE(hit(shard, 1));
  EXPECT_TRUE(hit(shard, 2));
  EXPECT_TRUE(hit(shard, 3));
  EXPECT_TRUE(hit(shard, 4));
}

TEST(ShardLru, ReinsertRefreshesContent) {
  // A fill of a resident key (racing fills of one page) overwrites its
  // bytes in place instead of keeping the stale copy.
  CacheShard shard(0, 8, EvictionPolicy::kLru, 1);
  EXPECT_FALSE(shard.fill(3, page_of(1).data()));
  EXPECT_FALSE(shard.fill(3, page_of(2).data()));
  std::vector<std::byte> out(kPageSize);
  ASSERT_EQ(shard.peek_run(3, 1, out.data()), CacheShard::Probe::kHit);
  EXPECT_EQ(out[0], std::byte{2});
  EXPECT_EQ(shard.resident_pages(), 1u);
}

// --------------------------------------------------- ShardedPageCache

TEST(ShardedPageCache, AutoShardsScalesWithBudget) {
  EXPECT_EQ(ShardedPageCache::auto_shards(4), 1u);
  EXPECT_EQ(ShardedPageCache::auto_shards(255), 1u);
  EXPECT_EQ(ShardedPageCache::auto_shards(1024), 4u);
  EXPECT_EQ(ShardedPageCache::auto_shards(1 << 20), 16u);  // clamped
}

TEST(ShardedPageCache, GroupsMapToOneShardAndKeysSpread) {
  PageCacheOptions opts;
  opts.capacity_bytes = 4096 * kPageSize;
  opts.shards = 4;
  ShardedPageCache pool(opts);
  ASSERT_EQ(pool.shard_count(), 4u);
  // A 4-page group never splits across shards.
  for (std::uint64_t g = 0; g < 256; ++g) {
    const std::uint64_t base = g * kShardGroupPages;
    for (std::uint64_t j = 1; j < kShardGroupPages; ++j) {
      EXPECT_EQ(pool.shard_of(base), pool.shard_of(base + j));
    }
  }
  // The group hash actually spreads work: over 256 groups every shard
  // sees some.
  std::vector<std::size_t> per_shard(pool.shard_count(), 0);
  for (std::uint64_t g = 0; g < 256; ++g) {
    ++per_shard[pool.shard_of(g * kShardGroupPages)];
  }
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    EXPECT_GT(per_shard[i], 0u) << "shard " << i << " never selected";
  }
}

TEST(ShardedPageCache, CrossShardRunKeepsAllOrNothingAccounting) {
  PageCacheOptions opts;
  opts.capacity_bytes = 1024 * kPageSize;
  opts.shards = 4;
  opts.policy = EvictionPolicy::kLru;
  auto pool = std::make_shared<ShardedPageCache>(opts);
  const std::uint64_t first = cross_shard_run(*pool);
  // The adapter is the pool's first namespace (base 0): its pages are the
  // pool keys.
  CachedDevice dev(std::make_shared<MemDevice>("m", (first + 4) * kPageSize),
                   pool);
  std::vector<std::byte> buf(4 * kPageSize);
  ASSERT_EQ(dev.try_start_run(first, 4, buf.data()), RunState::kOwned);
  const CacheCounters after_claim = pool->cache_counters();
  EXPECT_EQ(after_claim.misses, 4u);
  EXPECT_EQ(after_claim.hits, 0u);
  // Both segments are claimed: the same run now defers on the in-flight
  // pages instead of claiming a second read.
  EXPECT_EQ(pool->try_start_run(first, 4, buf.data()), RunState::kDeferred);
  for (std::uint64_t j = 0; j < 4; ++j) {
    const auto data = page_of(static_cast<std::uint8_t>(first + j));
    dev.fill(first + j, data.data());
  }
  dev.end_run(first, 4);
  ASSERT_EQ(dev.try_start_run(first, 4, buf.data()), RunState::kHit);
  const CacheCounters after_hit = pool->cache_counters();
  EXPECT_EQ(after_hit.hits, 4u);
  EXPECT_EQ(after_hit.misses, 4u);
  for (std::uint64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(buf[j * kPageSize],
              static_cast<std::byte>((first + j) & 0xff));
  }
}

TEST(ShardedPageCache, PartialResidencyCountsWholeRunAsMisses) {
  PageCacheOptions opts;
  opts.capacity_bytes = 1024 * kPageSize;
  opts.shards = 4;
  opts.policy = EvictionPolicy::kLru;
  auto pool = std::make_shared<ShardedPageCache>(opts);
  const std::uint64_t first = cross_shard_run(*pool);
  CachedDevice dev(std::make_shared<MemDevice>("m", (first + 4) * kPageSize),
                   pool);
  // Only the first page resident: the whole 4-page run must classify as a
  // claimable miss and count 4 misses (all-or-nothing).
  const auto data = page_of(0x5a);
  dev.fill(first, data.data());
  std::vector<std::byte> buf(4 * kPageSize);
  ASSERT_EQ(dev.try_start_run(first, 4, buf.data()), RunState::kOwned);
  EXPECT_EQ(pool->cache_counters().misses, 4u);
  EXPECT_EQ(pool->cache_counters().hits, 0u);
  // The missing tail was claimed with it: it defers now.
  EXPECT_EQ(pool->try_start_run(first + 1, 3, buf.data()),
            RunState::kDeferred);
  dev.end_run(first, 4);
}

TEST(ShardedPageCache, TwoDevicesShareOnePoolWithoutKeyCollisions) {
  auto pool = std::make_shared<ShardedPageCache>([] {
    PageCacheOptions o;
    o.capacity_bytes = 64 * kPageSize;
    o.policy = EvictionPolicy::kLru;
    o.shards = 2;
    return o;
  }());
  auto a = std::make_shared<MemDevice>("a", 8 * kPageSize);
  auto b = std::make_shared<MemDevice>("b", 8 * kPageSize);
  std::fill(a->raw().begin(), a->raw().end(), static_cast<std::byte>(0xaa));
  std::fill(b->raw().begin(), b->raw().end(), static_cast<std::byte>(0xbb));
  CachedDevice ca(a, pool);
  CachedDevice cb(b, pool);

  std::vector<std::byte> out(kPageSize);
  ca.read(0, out);
  EXPECT_EQ(out[0], static_cast<std::byte>(0xaa));
  cb.read(0, out);  // same device-local page, different pool key
  EXPECT_EQ(out[0], static_cast<std::byte>(0xbb));
  ca.read(0, out);
  EXPECT_EQ(out[0], static_cast<std::byte>(0xaa));

  // Per-device views: each device missed its own first read; the re-read
  // hit. Pool aggregate = sum of both devices.
  EXPECT_EQ(ca.cache_counters().misses, 1u);
  EXPECT_EQ(cb.cache_counters().misses, 1u);
  EXPECT_EQ(ca.cache_counters().hits, 1u);
  EXPECT_EQ(pool->cache_counters().misses, 2u);
  EXPECT_EQ(pool->cache_counters().hits, 1u);
}

TEST(ShardedPageCache, S3FifoIsTheDefaultPolicy) {
  PageCacheOptions opts;
  opts.capacity_bytes = 16 * kPageSize;
  ShardedPageCache pool(opts);
  EXPECT_EQ(pool.policy(), EvictionPolicy::kS3Fifo);
}

// --------------------------------------------- stats double-count fix

TEST(CachedDeviceStats, UnalignedPassThroughRecordsOnInnerViewOnly) {
  auto inner = std::make_shared<MemDevice>("m", 8 * kPageSize);
  CachedDevice dev(inner, 4 * kPageSize, EvictionPolicy::kLru);
  std::vector<std::byte> out(100);
  dev.read(12345, out);
  // The inner device serviced the read; the cached view records nothing
  // (it used to double-count these bytes on both views).
  EXPECT_EQ(inner->stats().total_bytes(), 100u);
  EXPECT_EQ(dev.stats().total_bytes(), 0u);
  EXPECT_EQ(dev.stats().total_reads(), 0u);
  // The hit-rate statistics still see the traffic (one overlapped page).
  EXPECT_EQ(dev.cache_counters().misses, 1u);
}

TEST(CachedDeviceStats, AlignedReadsRecordOnCachedView) {
  auto inner = std::make_shared<MemDevice>("m", 8 * kPageSize);
  CachedDevice dev(inner, 4 * kPageSize, EvictionPolicy::kLru);
  std::vector<std::byte> out(kPageSize);
  dev.read(0, out);                 // miss: inner + cached view both record
  dev.read(0, out);                 // hit: cached view only
  EXPECT_EQ(dev.stats().total_reads(), 2u);
  EXPECT_EQ(dev.stats().total_bytes(), 2 * kPageSize);
  EXPECT_EQ(inner->stats().total_reads(), 1u);
}

// --------------------------------------------------------- ghost surface

TEST(CachedDeviceGhost, CountsPoolGhostHitsPerDevice) {
  auto inner = std::make_shared<MemDevice>("m", 64 * kPageSize);
  CachedDevice dev(inner, 8 * kPageSize, EvictionPolicy::kS3Fifo);
  std::vector<std::byte> out(kPageSize);
  // Stream pages 0..15 through the 8-page cache: 0..7 end up in the ghost
  // queue, 8..15 resident.
  for (std::uint64_t p = 0; p < 16; ++p) dev.read(p * kPageSize, out);
  EXPECT_EQ(dev.cache_counters().ghost_hits, 0u);
  // Re-fault page 7 — the most recently ghosted page — and the adapter
  // surfaces the pool's ghost promotion on its per-device counter.
  dev.read(7 * kPageSize, out);
  EXPECT_EQ(dev.cache_counters().ghost_hits, 1u);
  // One block, one count: the pool total reads the same promotion.
  EXPECT_EQ(dev.pool()->cache_counters().ghost_hits, 1u);
}

// ------------------------------------------------------- shard stress

// Multi-thread stress over a small sharded pool with heavy eviction and
// sync-path dedup; run under TSan in CI. Data correctness is checked on
// every read (each page carries its page number).
TEST(PageCacheStress, ConcurrentSyncReadersStayCoherent) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpsPerThread = 4000;
  constexpr std::uint64_t kPages = 64;

  auto inner = std::make_shared<MemDevice>("m", kPages * kPageSize);
  for (std::uint64_t p = 0; p < kPages; ++p) {
    auto span = inner->raw().subspan(p * kPageSize, kPageSize);
    std::fill(span.begin(), span.end(),
              static_cast<std::byte>((p * 7 + 1) & 0xff));
  }
  PageCacheOptions opts;
  opts.capacity_bytes = 16 * kPageSize;  // heavy eviction pressure
  opts.shards = 4;
  opts.policy = EvictionPolicy::kS3Fifo;
  auto pool = std::make_shared<ShardedPageCache>(opts);
  auto dev = std::make_shared<CachedDevice>(inner, pool);

  std::atomic<std::uint64_t> bad{0};
  std::vector<std::jthread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0x57AE55 + t);
      std::vector<std::byte> buf(kPageSize);
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        // Zipf-ish: half the traffic on 8 hot pages, the rest uniform.
        const std::uint64_t page = (rng.next() & 1)
                                       ? rng.next_below(8)
                                       : rng.next_below(kPages);
        dev->read(page * kPageSize, {buf.data(), buf.size()});
        if (buf[0] != static_cast<std::byte>((page * 7 + 1) & 0xff)) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.clear();  // join

  EXPECT_EQ(bad.load(), 0u);
  const CacheCounters c = pool->cache_counters();
  EXPECT_EQ(c.hits + c.misses, kThreads * kOpsPerThread);
  EXPECT_GT(c.hits, 0u);
  EXPECT_GT(c.misses, 0u);
  EXPECT_GT(c.evictions, 0u);
  // Every shard saw traffic.
  for (std::size_t i = 0; i < pool->shard_count(); ++i) {
    EXPECT_GT(pool->shard(i).resident_pages(), 0u) << "shard " << i << " idle";
  }
}

// Async channels from several threads (one channel per thread — the
// AsyncChannel contract is single-submitter) over one shared pool: the
// miss-dedup run protocol and fills race across shards.
TEST(PageCacheStress, ConcurrentChannelsDedupAcrossThreads) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 300;
  constexpr std::uint64_t kPages = 32;

  auto inner = std::make_shared<MemDevice>("m", kPages * kPageSize);
  for (std::uint64_t p = 0; p < kPages; ++p) {
    auto span = inner->raw().subspan(p * kPageSize, kPageSize);
    std::fill(span.begin(), span.end(),
              static_cast<std::byte>((p + 3) & 0xff));
  }
  PageCacheOptions opts;
  opts.capacity_bytes = 64 * kPageSize;  // everything fits: misses dedup
  opts.shards = 4;
  auto pool = std::make_shared<ShardedPageCache>(opts);
  auto dev = std::make_shared<CachedDevice>(inner, pool);

  std::atomic<std::uint64_t> bad{0};
  std::vector<std::jthread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ch = dev->open_channel();
      Xoshiro256 rng(0xC0FFEE + t);
      std::vector<std::byte> buf(4 * kPageSize);
      std::vector<std::uint64_t> completed;
      for (std::size_t r = 0; r < kRounds; ++r) {
        const std::uint64_t first = rng.next_below(kPages - 3);
        AsyncRead req;
        req.offset = first * kPageSize;
        req.length = 4 * kPageSize;
        req.buffer = buf.data();
        req.user = r;
        ch->submit(req);
        completed.clear();
        while (ch->pending() > 0) ch->wait(1, completed);
        for (std::uint64_t j = 0; j < 4; ++j) {
          if (buf[j * kPageSize] !=
              static_cast<std::byte>((first + j + 3) & 0xff)) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  threads.clear();  // join

  EXPECT_EQ(bad.load(), 0u);
  const CacheCounters c = pool->cache_counters();
  // Every page fits, so after the first fault a page is never re-read:
  // inner reads are bounded by the page count (one per page, modulo
  // partially covered claims re-reading runs).
  EXPECT_GT(c.hits, 0u);
}

}  // namespace
}  // namespace blaze::device
