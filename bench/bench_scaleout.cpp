// Extension bench: destination-partitioned scale-out (paper Section VI).
//
// Runs BFS and one PageRank iteration on clusters of 1..8 simulated
// machines and reports the modeled cluster wall time —
// max(machine time per iteration) + frontier broadcast — against the
// single-machine baseline. Expected shape: compute/IO per machine shrinks
// ~linearly with the machine count (each stores |E|/M edges), while the
// broadcast term grows, bounding the useful cluster size: the tradeoff
// the paper's sketch anticipates.
#include <cstdio>

#include "algorithms/drivers.h"
#include "bench/bench_common.h"
#include "scaleout/cluster.h"

int main() {
  using namespace blaze;
  using namespace blaze::bench;

  const auto& ds = dataset("r3");
  std::printf("# Scale-out extension: destination-partitioned cluster "
              "(modeled wall time)\n");
  std::printf(
      "query,machines,modeled_s,max_machine_s,network_s,network_MiB,"
      "edge_balance\n");

  for (const std::string query : {"BFS", "PR1"}) {
    double base = 0;
    for (std::size_t machines : {1, 2, 4, 8}) {
      scaleout::ClusterConfig cfg;
      cfg.machines = machines;
      cfg.engine.compute_workers = 4;
      cfg.profile = bench_optane();
      scaleout::Cluster cluster(ds.csr, cfg);

      core::QueryStats qs;
      if (query == "BFS") {
        qs = algorithms::run_bfs(cluster, 0).stats;
      } else {
        // One PageRank power iteration over the cluster.
        const vertex_t n = cluster.num_vertices();
        std::vector<float> delta(n, 1.0f / static_cast<float>(n));
        std::vector<float> ngh_sum(n, 0.0f);
        // Degrees must be the GLOBAL out-degrees; machine 0's index only
        // has local edges, so build the program against the full graph.
        format::GraphIndex global_index([&] {
          std::vector<std::uint32_t> deg(n);
          for (vertex_t v = 0; v < n; ++v) deg[v] = ds.csr.degree(v);
          return deg;
        }());
        algorithms::PrProgram prog{global_index, delta, ngh_sum};
        cluster.edge_map(core::VertexSubset::all(n), prog, false, &qs);
      }

      const auto& cs = cluster.stats();
      std::uint64_t emin = ~0ull, emax = 0;
      for (std::size_t m = 0; m < machines; ++m) {
        emin = std::min(emin, cluster.machine_edges(m));
        emax = std::max(emax, cluster.machine_edges(m));
      }
      double modeled = cs.modeled_seconds();
      if (machines == 1) base = modeled;
      std::printf("%s,%zu,%.3f,%.3f,%.4f,%.2f,%.3f\n", query.c_str(),
                  machines, modeled, cs.max_machine_seconds,
                  cs.network_seconds,
                  static_cast<double>(cs.network_bytes) / (1 << 20),
                  emin > 0 ? static_cast<double>(emax) /
                                 static_cast<double>(emin)
                           : 0.0);
      std::fflush(stdout);
      (void)base;
    }
  }
  return 0;
}
