// Compressed-adjacency sweep: every query/graph pair runs on the flat and
// on the delta+varint layout of the same dataset, on the same simulated
// device and the same page-cache budget, and prints one JSON row per run:
//
//   {"bench":"compression","graph":"r2","query":"BFS","format":"dvarint",
//    "bytes_per_edge":1.78,"seconds":...,"edges_per_sec":...,...}
//
// The budget is fixed in *bytes* (a fraction of the flat adjacency size),
// so the compressed layout fits proportionally more of the graph in cache
// — that, plus fewer pages per list on the demand path, is where the
// paper-style "effective edges per second" win comes from.
// check_bench_baseline.py --compression gates the bytes/edge ratio and the
// edges/s ratio on the baseline's gated graph.
//
// Environment overrides (besides the bench_common set):
//   BLAZE_BENCH_COMPRESSION_GRAPHS   comma list (default all six)
//   BLAZE_BENCH_COMPRESSION_QUERIES  comma list (default "BFS,PR")
//   BLAZE_BENCH_COMPRESSION_CACHE    cache budget as a percent of the
//                                    flat adjacency bytes (default 25)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "device/cached_device.h"

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

std::vector<std::string> env_list(const char* name,
                                  const std::vector<std::string>& def) {
  const char* v = std::getenv(name);
  if (!v) return def;
  auto out = split_list(v);
  return out.empty() ? def : out;
}

/// Rebuilds `g` with its adjacency reads routed through a page-cache pool
/// of exactly `budget_bytes`.
format::OnDiskGraph with_cache(const format::OnDiskGraph& g,
                               std::uint64_t budget_bytes,
                               std::shared_ptr<device::ShardedPageCache>* out) {
  device::PageCacheOptions popts;
  popts.name = "compression_pool";
  popts.capacity_bytes = budget_bytes;
  auto pool = std::make_shared<device::ShardedPageCache>(popts);
  *out = pool;
  return {g.index(),
          std::make_shared<device::CachedDevice>(g.device_ptr(), pool)};
}

}  // namespace

int main() {
  const auto graphs = env_list("BLAZE_BENCH_COMPRESSION_GRAPHS", graphs6());
  const auto queries =
      env_list("BLAZE_BENCH_COMPRESSION_QUERIES", {"BFS", "PR"});
  const double cache_pct =
      env_double("BLAZE_BENCH_COMPRESSION_CACHE", 25.0);

  std::printf("# bench_compression: flat vs dvarint at equal cache budget "
              "(%.0f%% of flat adjacency)\n", cache_pct);

  for (const auto& gname : graphs) {
    const BenchDataset& ds = dataset(gname);
    const std::uint64_t flat_adj_bytes =
        ds.csr.num_edges() * sizeof(vertex_t);
    const std::uint64_t budget = std::max<std::uint64_t>(
        kPageSize, static_cast<std::uint64_t>(
                       cache_pct / 100.0 *
                       static_cast<double>(flat_adj_bytes)));

    for (auto encoding : {format::AdjacencyEncoding::kFlat,
                          format::AdjacencyEncoding::kDeltaVarint}) {
      const char* fmt =
          encoding == format::AdjacencyEncoding::kFlat ? "flat" : "dvarint";
      auto raw = format::make_simulated_graph(ds.csr, bench_optane(), 2, 0,
                                              encoding);
      auto raw_t = format::make_simulated_graph(ds.transpose, bench_optane(),
                                                2, 0, encoding);
      std::shared_ptr<device::ShardedPageCache> pool, pool_t;
      auto out_g = with_cache(raw, budget, &pool);
      auto in_g = with_cache(raw_t, budget, &pool_t);

      core::Runtime rt(bench_config(out_g));
      for (const auto& query : queries) {
        RunResult r = run_blaze_query(rt, out_g, in_g, query, /*pr_iters=*/3);
        const double eps =
            r.seconds > 0
                ? static_cast<double>(r.stats.edges_scattered) / r.seconds
                : 0.0;
        std::printf(
            "{\"bench\":\"compression\",\"graph\":\"%s\",\"query\":\"%s\","
            "\"format\":\"%s\",\"bytes_per_edge\":%.4f,"
            "\"adjacency_bytes\":%llu,\"cache_budget_bytes\":%llu,"
            "\"seconds\":%.4f,\"edges_scattered\":%llu,"
            "\"edges_per_sec\":%.1f,\"bytes_read\":%llu,"
            "\"cache_hit_rate\":%.4f}\n",
            gname.c_str(), query.c_str(), fmt, out_g.bytes_per_edge(),
            static_cast<unsigned long long>(
                out_g.index().total_adjacency_bytes()),
            static_cast<unsigned long long>(budget), r.seconds,
            static_cast<unsigned long long>(r.stats.edges_scattered), eps,
            static_cast<unsigned long long>(r.stats.bytes_read),
            pool->cache_counters().hit_rate());
        std::fflush(stdout);
      }
    }
  }
  return 0;
}
