// Ablation: page-cache eviction policy for Blaze (the paper's stated
// future work, Section V-B).
//
// The paper attributes Blaze's only loss (sk2005 vs FlashGraph) to
// FlashGraph's LRU page cache capturing that graph's locality. This bench
// layers CachedDevice over the simulated SSD and runs BFS with no cache,
// a random-eviction cache (Blaze's original behaviour), an LRU cache, and
// the scan-resistant S3-FIFO pool default, on both a high-locality graph
// (sk) and a no-locality one (ur). Expected shape: LRU/S3-FIFO recover
// most of the sk gap and beat random; on ur no policy helps (nothing to
// cache).
#include <cstdio>

#include "bench/bench_common.h"
#include "device/cached_device.h"

int main() {
  using namespace blaze;
  using namespace blaze::bench;

  const auto profile = bench_optane();
  std::printf("# Ablation: Blaze + page cache eviction policy (BFS, cache "
              "= graph/8)\n");
  std::printf("graph,policy,seconds,device_MiB,hit_rate\n");

  for (const std::string gname : {"sk", "tw", "ur"}) {
    const auto& ds = dataset(gname);
    for (const std::string policy : {"none", "random", "lru", "s3fifo"}) {
      auto base = format::make_simulated_graph(ds.csr, profile);
      std::shared_ptr<device::BlockDevice> dev = base.device_ptr();
      device::CachedDevice* cache = nullptr;
      if (policy != "none") {
        device::EvictionPolicy ep = device::EvictionPolicy::kRandom;
        device::parse_eviction_policy(policy, ep);
        auto cached = std::make_shared<device::CachedDevice>(
            dev, base.input_bytes() / 8, ep);
        cache = cached.get();
        dev = cached;
      }
      format::OnDiskGraph g(format::GraphIndex(base.index()), dev);

      core::Runtime rt(bench_config(g));
      Timer t;
      auto r = algorithms::bfs(rt, g, 0);
      double seconds = t.seconds();
      double inner_mib =
          cache ? static_cast<double>(
                      cache->inner().stats().total_bytes()) /
                      (1 << 20)
                : static_cast<double>(g.device().stats().total_bytes()) /
                      (1 << 20);
      const double hit_rate = cache ? cache->cache_counters().hit_rate() : 0.0;
      std::printf("%s,%s,%.3f,%.1f,%.2f\n", gname.c_str(), policy.c_str(),
                  seconds, inner_mib, hit_rate);
      std::fflush(stdout);
      (void)r;
    }
  }
  return 0;
}
