// Figure 9: thread scaling.
//
// Thread counts up to std::thread::hardware_concurrency() are measured, on
// a memory-backed graph (`measured_mem`: compute alone, no device waits)
// and on the scaled Optane profile (`measured_ssd`), each with its speedup
// over one worker. Only the counts above that (more workers than cores
// would be oversubscribed) print a `modeled` row instead, projected from
// the one-worker memory-backed time and the UNSCALED Optane bandwidth:
//     time(p) = max( bytes / optane_bw , mem_time_1 / p )
// Its speedup is over the same projection at one thread.
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"

int main() {
  using namespace blaze;
  using namespace blaze::bench;

  const auto scaled_profile = bench_optane();
  const double optane_bw = device::optane_p4800x().rand_read_mbps * 1e6;
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("# Figure 9: thread scaling (measured up to %zu threads, "
              "modeled at unscaled Optane bandwidth above)\n",
              cores);
  std::printf("query,graph,threads,series,seconds,speedup\n");

  const unsigned pr_iters = 5;
  for (const auto& query : queries5()) {
    for (const std::string gname : {"r2", "ur", "sk"}) {
      const auto& ds = dataset(gname);
      const auto mem_out = format::make_mem_graph(ds.csr);
      const auto mem_in = format::make_mem_graph(ds.transpose);
      const auto ssd_out = format::make_simulated_graph(ds.csr, scaled_profile);
      const auto ssd_in =
          format::make_simulated_graph(ds.transpose, scaled_profile);
      // Min-of-3: the first run in the process also pays for cold caches.
      auto run = [&](const format::OnDiskGraph& out_g,
                     const format::OnDiskGraph& in_g, std::size_t threads) {
        auto cfg = bench_config(out_g);
        cfg.compute_workers = threads;
        RunResult best;
        for (int rep = 0; rep < 3; ++rep) {
          core::Runtime rt(cfg);
          auto r = run_blaze_query(rt, out_g, in_g, query, pr_iters);
          if (rep == 0 || r.seconds < best.seconds) best = r;
        }
        return best;
      };

      // Set by the one-worker memory-backed run, which comes first.
      std::uint64_t bytes = 0;
      double mem1 = 0, ssd1 = 0;
      auto modeled_s = [&](std::size_t threads) {
        return std::max(static_cast<double>(bytes) / optane_bw,
                        mem1 / static_cast<double>(threads));
      };
      for (std::size_t threads : {1, 2, 4, 8, 16}) {
        if (threads > cores) {
          std::printf("%s,%s,%zu,modeled,%.4f,%.2f\n", query.c_str(),
                      gname.c_str(), threads, modeled_s(threads),
                      modeled_s(1) / modeled_s(threads));
          continue;
        }
        const auto mem = run(mem_out, mem_in, threads);
        const auto ssd = run(ssd_out, ssd_in, threads);
        if (threads == 1) {
          bytes = mem.stats.bytes_read;
          mem1 = mem.seconds;
          ssd1 = ssd.seconds;
        }
        std::printf("%s,%s,%zu,measured_mem,%.4f,%.2f\n", query.c_str(),
                    gname.c_str(), threads, mem.seconds, mem1 / mem.seconds);
        std::printf("%s,%s,%zu,measured_ssd,%.4f,%.2f\n", query.c_str(),
                    gname.c_str(), threads, ssd.seconds, ssd1 / ssd.seconds);
        std::fflush(stdout);
      }
    }
  }
  return 0;
}
