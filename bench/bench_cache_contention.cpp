// Cache-contention micro: K threads hammering one shared page cache.
//
// The sharded pool exists so concurrent queries do not serialise on a
// single cache mutex. This micro stresses exactly that surface: K reader
// threads issue single-page reads against one MemDevice-backed
// CachedDevice with a skewed (Zipf-ish) page stream — 90 % of reads land
// on a hot set that fits in the pool, the rest are uniform over the whole
// device, and every thread periodically fires a sequential scan burst
// (the access pattern S3-FIFO is built to shrug off and LRU is not).
//
// IMPORTANT CAVEAT (same as bench_fig9_scaling): this container has ONE
// CPU core, so measured multi-thread wall time cannot improve with shard
// count; the `mops` column documents that honestly, and the contended run
// still verifies coherence (every read is pattern-checked) and miss
// dedup. The `modeled_mops` column is the projection a multi-core testbed
// realizes, from two single-thread calibrations per configuration:
//     T_op   = full adapter read path cost per op (parallelisable work)
//     T_lock = pool sync hit cost per op (work under one shard's mutex)
//     modeled_mops(C cores, K shards) = 1 / max(T_op / C, T_lock / K)
// — the shard mutexes are a capacity-K resource, so a single-shard pool
// bottlenecks at 1/T_lock no matter how many cores; sharding lifts it.
// The sweep crosses eviction policy x shard count, prints one JSON row
// per configuration, and check_bench_baseline.py --cache gates the
// artifact on the modeled speedup.
//
// Environment overrides:
//   BLAZE_BENCH_CACHE_THREADS     reader threads (default 8)
//   BLAZE_BENCH_CACHE_OPS         reads per thread (default 60000)
//   BLAZE_BENCH_CACHE_PAGES       device size in pages (default 4096)
//   BLAZE_BENCH_CACHE_MODEL_CORES cores for the projection (default 16,
//                                 as bench_workers)
//   BLAZE_BENCH_CACHE_SHARD_SWEEP comma list of shard counts (default "1,4")
//   BLAZE_BENCH_POLICIES          comma list of policies (default
//                                 "lru,s3fifo")
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "device/cached_device.h"
#include "device/mem_device.h"
#include "util/rng.h"

namespace {

using namespace blaze;
using namespace blaze::bench;

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// The shared access stream: hot-set reads with uniform spill and
/// periodic sequential scan bursts.
std::uint64_t next_page(Xoshiro256& rng, std::size_t& scan_page,
                        std::size_t op, std::size_t hot_pages,
                        std::size_t device_pages) {
  if (op % 1024 < 32) {
    // Scan burst: 32 consecutive sequential pages, the one-touch
    // traffic a scan-resistant policy must not let flush the hot set.
    return (scan_page++) % device_pages;
  }
  if (rng.next_below(10) < 9) return rng.next_below(hot_pages);
  return rng.next_below(device_pages);
}

}  // namespace

int main() {
  const auto threads =
      static_cast<std::size_t>(env_long("BLAZE_BENCH_CACHE_THREADS", 8));
  const auto per_thread =
      static_cast<std::size_t>(env_long("BLAZE_BENCH_CACHE_OPS", 60000));
  const auto device_pages =
      static_cast<std::size_t>(env_long("BLAZE_BENCH_CACHE_PAGES", 4096));
  const auto model_cores = static_cast<std::size_t>(
      std::max(1L, env_long("BLAZE_BENCH_CACHE_MODEL_CORES", 16)));

  std::vector<std::size_t> shard_sweep;
  if (const char* sweep = std::getenv("BLAZE_BENCH_CACHE_SHARD_SWEEP")) {
    for (const auto& item : split_list(sweep)) {
      shard_sweep.push_back(
          static_cast<std::size_t>(std::atol(item.c_str())));
    }
  }
  if (shard_sweep.empty()) shard_sweep = {1, 4};
  const char* policies_env = std::getenv("BLAZE_BENCH_POLICIES");
  std::vector<std::string> policies =
      split_list(policies_env != nullptr ? policies_env : "lru,s3fifo");
  if (policies.empty()) policies.push_back("s3fifo");

  // Backing store: every page stamped with a recognisable pattern so the
  // readers double as a coherence check under contention.
  auto mem = std::make_shared<device::MemDevice>("contention_mem",
                                                 device_pages * kPageSize);
  for (std::size_t p = 0; p < device_pages; ++p) {
    mem->raw()[p * kPageSize] = static_cast<std::byte>((p * 13 + 7) & 0xff);
  }

  // Pool holds a quarter of the device; the hot set is half the pool, so
  // it stays resident unless the uniform + scan traffic evicts it.
  const std::size_t pool_pages = device_pages / 4;
  const std::size_t hot_pages = pool_pages / 2;

  const device::EvictionPolicy default_policy =
      device::PageCacheOptions{}.policy;
  double best_multi_shard = 0.0;
  double single_shard = 0.0;

  for (const auto& pname : policies) {
    device::EvictionPolicy policy = device::EvictionPolicy::kS3Fifo;
    if (!device::parse_eviction_policy(pname, policy)) {
      std::fprintf(stderr, "unknown policy %s in BLAZE_BENCH_POLICIES\n",
                   pname.c_str());
      return 2;
    }
    for (const std::size_t shards : shard_sweep) {
      device::PageCacheOptions popts;
      popts.name = "contention_" + pname;
      popts.capacity_bytes = pool_pages * kPageSize;
      popts.policy = policy;
      popts.shards = shards;
      auto pool = std::make_shared<device::ShardedPageCache>(popts);
      auto dev = std::make_shared<device::CachedDevice>(mem, pool);

      // Calibration 1 (single thread): T_op, the full adapter read path
      // over the same skewed stream — the parallelisable per-op work.
      const std::size_t calib_ops = std::max<std::size_t>(per_thread, 20000);
      double t_op_ns = 0;
      {
        Xoshiro256 rng(0xCA11B001);
        std::vector<std::byte> buf(kPageSize);
        std::size_t scan_page = 0;
        Timer t;
        for (std::size_t op = 0; op < calib_ops; ++op) {
          const std::uint64_t page =
              next_page(rng, scan_page, op, hot_pages, device_pages);
          dev->read(page * kPageSize, buf);
        }
        t_op_ns = t.seconds() * 1e9 / static_cast<double>(calib_ops);
      }

      // Calibration 2 (single thread): T_lock, the pool's sync hit path
      // on a resident page — everything this call does happens under one
      // shard's mutex, so it is the serial resource sharding multiplies.
      double t_lock_ns = 0;
      {
        const std::uint64_t base = pool->register_device("calib").base;
        std::vector<std::byte> buf(kPageSize);
        if (pool->acquire_page_sync(base, buf.data()) ==
            device::SyncAcquire::kOwned) {
          pool->fill(base, mem->raw().data());
          pool->end_run(base, 1);
        }
        Timer t;
        for (std::size_t op = 0; op < calib_ops; ++op) {
          (void)pool->acquire_page_sync(base, buf.data());
        }
        t_lock_ns = t.seconds() * 1e9 / static_cast<double>(calib_ops);
      }

      // Contended run: K threads on one pool. On a multi-core box this
      // measures the sharding win directly; on the 1-core container it
      // is a scheduler-interleaved stress pass (coherence + dedup), and
      // the modeled column carries the scaling claim.
      std::atomic<std::uint64_t> corrupt{0};
      Timer wall;
      {
        std::vector<std::jthread> tpool;
        tpool.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t) {
          tpool.emplace_back([&, t] {
            Xoshiro256 rng(0xC0FFEEu * (t + 1));
            std::vector<std::byte> buf(kPageSize);
            std::size_t scan_page = 0;
            for (std::size_t op = 0; op < per_thread; ++op) {
              const std::uint64_t page =
                  next_page(rng, scan_page, op, hot_pages, device_pages);
              dev->read(page * kPageSize, buf);
              if (buf[0] !=
                  static_cast<std::byte>((page * 13 + 7) & 0xff)) {
                corrupt.fetch_add(1, std::memory_order_relaxed);
              }
            }
          });
        }
      }
      const double wall_s = wall.seconds();
      const std::uint64_t total_ops = threads * per_thread;
      const double mops =
          wall_s > 0 ? static_cast<double>(total_ops) / wall_s / 1e6 : 0.0;

      // Bottleneck projection: cores are a capacity-C resource for the
      // whole op, shard mutexes a capacity-K resource for the locked
      // part.
      const double cores_ns =
          t_op_ns / static_cast<double>(model_cores);
      const double lock_ns =
          t_lock_ns / static_cast<double>(pool->shard_count());
      const double modeled_mops = 1e3 / std::max(cores_ns, lock_ns);

      if (policy == default_policy) {
        if (pool->shard_count() == 1) {
          single_shard = std::max(single_shard, modeled_mops);
        } else {
          best_multi_shard = std::max(best_multi_shard, modeled_mops);
        }
      }

      const auto c = pool->cache_counters();
      std::printf(
          "{\"bench\":\"cache_contention\",\"policy\":\"%s\","
          "\"shards\":%zu,\"threads\":%zu,\"ops\":%llu,\"wall_s\":%.3f,"
          "\"mops\":%.3f,\"t_op_ns\":%.1f,\"t_lock_ns\":%.1f,"
          "\"modeled_cores\":%zu,\"modeled_mops\":%.3f,"
          "\"hit_rate\":%.4f,\"dedup_hits\":%llu,\"ghost_hits\":%llu,"
          "\"evictions\":%llu,\"corrupt_reads\":%llu}\n",
          pname.c_str(), pool->shard_count(), threads,
          static_cast<unsigned long long>(total_ops), wall_s, mops,
          t_op_ns, t_lock_ns, model_cores, modeled_mops, c.hit_rate(),
          static_cast<unsigned long long>(c.dedup_hits),
          static_cast<unsigned long long>(c.ghost_hits),
          static_cast<unsigned long long>(c.evictions),
          static_cast<unsigned long long>(corrupt.load()));
      std::fflush(stdout);
      if (corrupt.load() != 0) return 1;
    }
  }

  if (single_shard > 0.0 && best_multi_shard <= single_shard) {
    std::fprintf(stderr,
                 "sharding did not lift the modeled lock bottleneck: best "
                 "multi-shard %.3f Mops <= 1-shard %.3f Mops\n",
                 best_multi_shard, single_shard);
    return 1;
  }
  return 0;
}
