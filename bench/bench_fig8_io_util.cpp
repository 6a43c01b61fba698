// Figure 8: average read bandwidth of Blaze vs its synchronization-based
// variant on the Optane profile.
//
// The paper's shape: Blaze sits near the device line on all workloads;
// with atomics instead of online binning, the compute-heavy queries
// (PR, SpMV) drop to 38-85 % of the line.
#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace blaze;
  using namespace blaze::bench;

  const auto profile = bench_optane();
  const double device_line = profile.rand_read_mbps / 1e3;
  std::printf("# Figure 8: Blaze vs synchronization-based variant, average "
              "read bandwidth (device line %.3f GB/s)\n",
              device_line);
  std::printf("variant,query,graph,read_GBps,utilization\n");

  const unsigned pr_iters = 10;
  for (bool sync : {false, true}) {
    for (const auto& query : queries5()) {
      for (const auto& gname : graphs6()) {
        const auto& ds = dataset(gname);
        auto out_g = format::make_simulated_graph(ds.csr, profile);
        auto in_g = format::make_simulated_graph(ds.transpose, profile);
        auto cfg = bench_config(out_g);
        cfg.sync_mode = sync;
        core::Runtime rt(cfg);
        auto r = run_blaze_query(rt, out_g, in_g, query, pr_iters);
        // Bandwidth comes from the unified PipelineStats record threaded
        // device -> io -> core (bytes_read is filled by the IO pipeline's
        // readers, not a per-bench side accounting).
        const io::PipelineStats& io_stats = r.stats;
        double bw = gbps(io_stats.bytes_read, r.seconds);
        std::printf("%s,%s,%s,%.3f,%.2f\n", sync ? "sync" : "blaze",
                    query.c_str(), gname.c_str(), bw, bw / device_line);
        std::fflush(stdout);
      }
    }
  }
  return 0;
}
