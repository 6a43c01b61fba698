// Ablation: what out-of-core execution costs when the graph fits in DRAM.
//
// Runs the paper's queries through the in-core Ligra-style engine (no IO)
// and through Blaze over the scaled Optane profile. The gap is the price
// of out-of-core execution at this scale; the paper's value proposition is
// that for graphs that do NOT fit (hyperlink14 vs 96 GB DRAM), in-core is
// not an option at any price.
#include <cstdio>

#include "baselines/ligra.h"
#include "bench/bench_baseline_runners.h"

int main() {
  using namespace blaze;
  using namespace blaze::bench;

  const auto profile = bench_optane();
  std::printf("# Ablation: in-core (Ligra-style) vs out-of-core (Blaze, "
              "scaled Optane)\n");
  std::printf("query,graph,incore_s,blaze_s,ooc_overhead\n");

  const unsigned pr_iters = 10;
  for (const std::string query : {"BFS", "PR", "WCC", "SpMV"}) {
    for (const std::string gname : {"r2", "r3", "sk"}) {
      const auto& ds = dataset(gname);

      double incore = 1e30;
      for (int rep = 0; rep < 3; ++rep) {
        baseline::LigraEngine out_eng(ds.csr, bench_workers());
        baseline::LigraEngine in_eng(ds.transpose, bench_workers());
        std::vector<std::uint32_t> degrees(ds.csr.num_vertices());
        for (vertex_t v = 0; v < ds.csr.num_vertices(); ++v) {
          degrees[v] = ds.csr.degree(v);
        }
        format::GraphIndex index(degrees);
        Timer t;
        run_baseline_query(out_eng, in_eng, index, query, pr_iters);
        incore = std::min(incore, t.seconds());
      }

      double blaze_s = 1e30;
      auto out_g = format::make_simulated_graph(ds.csr, profile);
      auto in_g = format::make_simulated_graph(ds.transpose, profile);
      for (int rep = 0; rep < 3; ++rep) {
        core::Runtime rt(bench_config(out_g));
        Timer t;
        run_blaze_query(rt, out_g, in_g, query, pr_iters);
        blaze_s = std::min(blaze_s, t.seconds());
      }

      std::printf("%s,%s,%.3f,%.3f,%.1fx\n", query.c_str(), gname.c_str(),
                  incore, blaze_s, blaze_s / incore);
      std::fflush(stdout);
    }
  }
  return 0;
}
