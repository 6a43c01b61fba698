// Figure 7: speedup of Blaze over FlashGraph and Graphene.
//
// Six graphs x five queries on the scaled Optane profile, 16 compute
// workers everywhere. The paper's shape: Blaze beats FlashGraph broadly
// (up to 13.6x, PR on rmat30) but loses 12-20 % on sk2005 (FlashGraph's
// LRU cache exploits that graph's locality); Blaze beats Graphene 1.6-7.9x
// everywhere (PR compared at 1 iteration since Graphene lacks selective
// scheduling; BC omitted since Graphene does not implement it).
#include <cstdio>

#include <algorithm>

#include "bench/bench_baseline_runners.h"

int main() {
  using namespace blaze;
  using namespace blaze::bench;

  const auto profile = bench_optane();
  std::printf("# Figure 7: Blaze speedup over the baselines (scaled Optane "
              "profile, %zu compute workers)\n",
              bench_workers());
  std::printf(
      "query,graph,blaze_s,flashgraph_s,graphene_s,speedup_vs_fg,"
      "speedup_vs_graphene\n");

  const unsigned pr_iters = 10;
  for (const auto& query : queries5()) {
    for (const auto& gname : graphs6()) {
      const auto& ds = dataset(gname);

      // Blaze (PR at 1 iteration for the Graphene column, like the paper;
      // the FlashGraph column uses the full selective-scheduling run).
      // min-of-3 throughout: noisy-neighbour jitter on a shared host only
      // ever adds time, so the minimum is the least-biased estimator for
      // both sides of every ratio.
      auto min3 = [](double a, double b, double c) {
        return std::min({a, b, c});
      };
      auto out_g = format::make_simulated_graph(ds.csr, profile);
      auto in_g = format::make_simulated_graph(ds.transpose, profile);
      core::Runtime rt(bench_config(out_g));
      auto blaze_r = run_blaze_query(rt, out_g, in_g, query, pr_iters);
      blaze_r.seconds = min3(
          blaze_r.seconds,
          run_blaze_query(rt, out_g, in_g, query, pr_iters).seconds,
          run_blaze_query(rt, out_g, in_g, query, pr_iters).seconds);

      double fg_s = 0, gr_s = 0;
      {
        auto fg_out = format::make_simulated_graph(ds.csr, profile);
        auto fg_in = format::make_simulated_graph(ds.transpose, profile);
        baseline::FlashGraphEngine out_eng(fg_out, bench_fg_config(fg_out));
        baseline::FlashGraphEngine in_eng(fg_in, bench_fg_config(fg_in));
        auto run = [&] {
          return run_baseline_query(out_eng, in_eng, fg_out.index(), query,
                                    pr_iters)
              .seconds;
        };
        fg_s = min3(run(), run(), run());
      }
      double blaze_vs_graphene_s = blaze_r.seconds;
      if (query != "BC") {
        auto pg_out = format::make_partitioned_graph(ds.csr, profile, 1);
        auto pg_in =
            format::make_partitioned_graph(ds.transpose, profile, 1);
        baseline::GrapheneEngine out_eng(pg_out, bench_graphene_config());
        baseline::GrapheneEngine in_eng(pg_in, bench_graphene_config());
        auto run = [&] {
          return run_baseline_query(out_eng, in_eng, pg_out.index, query,
                                    /*pr_iters=*/1)
              .seconds;
        };
        gr_s = min3(run(), run(), run());
        if (query == "PR") {
          // Re-run Blaze PR with 1 iteration for a like-for-like ratio.
          core::Runtime rt2(bench_config(out_g));
          blaze_vs_graphene_s = min3(
              run_blaze_query(rt2, out_g, in_g, "PR", 1).seconds,
              run_blaze_query(rt2, out_g, in_g, "PR", 1).seconds,
              run_blaze_query(rt2, out_g, in_g, "PR", 1).seconds);
        }
      }

      char gr_col[32], gr_speedup[32];
      if (query == "BC") {
        std::snprintf(gr_col, sizeof(gr_col), "-");
        std::snprintf(gr_speedup, sizeof(gr_speedup), "-");
      } else {
        std::snprintf(gr_col, sizeof(gr_col), "%.3f", gr_s);
        std::snprintf(gr_speedup, sizeof(gr_speedup), "%.2f",
                      gr_s / blaze_vs_graphene_s);
      }
      std::printf("%s,%s,%.3f,%.3f,%s,%.2f,%s\n", query.c_str(),
                  gname.c_str(), blaze_r.seconds, fg_s, gr_col,
                  fg_s / blaze_r.seconds, gr_speedup);
      std::fflush(stdout);
    }
  }
  return 0;
}
