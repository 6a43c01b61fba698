// Figure 1: underutilized IO in FlashGraph and Graphene.
//
// Average read bandwidth (total read bytes / query wall time) of both
// baselines on a scaled Optane profile, over six graphs and the paper's
// queries, against the device's bandwidth line. The paper's shape: both
// systems reach the line for BFS but fall far below it on PR/WCC/SpMV for
// several graphs (worst cases 23 % for FlashGraph, 30 % for Graphene).
#include <cstdio>

#include "bench/bench_baseline_runners.h"

int main() {
  using namespace blaze;
  using namespace blaze::bench;

  const auto profile = bench_optane();
  const double device_line = profile.rand_read_mbps / 1e3;  // GB/s
  std::printf("# Figure 1: average read bandwidth of the baselines on the "
              "scaled Optane profile\n");
  std::printf("# device bandwidth line: %.3f GB/s\n", device_line);
  std::printf("system,query,graph,read_GBps,utilization\n");

  const unsigned pr_iters = 10;
  for (const auto& query : queries5()) {
    for (const auto& gname : graphs6()) {
      const auto& ds = dataset(gname);

      {  // FlashGraph
        auto out_g = format::make_simulated_graph(ds.csr, profile);
        auto in_g = format::make_simulated_graph(ds.transpose, profile);
        baseline::FlashGraphEngine out_eng(out_g, bench_fg_config(out_g));
        baseline::FlashGraphEngine in_eng(in_g, bench_fg_config(in_g));
        auto r = run_baseline_query(out_eng, in_eng, out_g.index(), query,
                                    pr_iters);
        double bw = gbps(r.stats.bytes_read, r.seconds);
        std::printf("FlashGraph,%s,%s,%.3f,%.2f\n", query.c_str(),
                    gname.c_str(), bw, bw / device_line);
      }
      if (query != "BC") {  // Graphene (no BC, as in the paper)
        auto out_pg = format::make_partitioned_graph(ds.csr, profile, 1);
        auto in_pg =
            format::make_partitioned_graph(ds.transpose, profile, 1);
        baseline::GrapheneEngine out_eng(out_pg, bench_graphene_config());
        baseline::GrapheneEngine in_eng(in_pg, bench_graphene_config());
        auto r = run_baseline_query(out_eng, in_eng, out_pg.index, query,
                                    pr_iters);
        double bw = gbps(r.stats.bytes_read, r.seconds);
        std::printf("Graphene,%s,%s,%.3f,%.2f\n", query.c_str(),
                    gname.c_str(), bw, bw / device_line);
      }
      std::fflush(stdout);
    }
  }
  return 0;
}
