// Scale-out extension tests: destination-partitioned clusters must give
// bit-identical answers to a single machine, balance storage, and account
// broadcast traffic.
#include <gtest/gtest.h>

#include <algorithm>

#include "algorithms/drivers.h"
#include "baselines/inmem.h"
#include "scaleout/cluster.h"
#include "test_helpers.h"

namespace blaze::scaleout {
namespace {

ClusterConfig test_cluster_config(std::size_t machines) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.engine = testutil::test_config(2);
  return cfg;
}

TEST(Cluster, PartitionCoversAllEdgesExactlyOnce) {
  graph::Csr g = graph::generate_rmat(10, 8, 1000);
  Cluster cluster(g, test_cluster_config(4));
  std::uint64_t total = 0;
  for (std::size_t m = 0; m < cluster.machines(); ++m) {
    total += cluster.machine_edges(m);
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST(Cluster, HashedPartitioningBalancesPowerLaw) {
  // Hashing balances in-degree mass up to hub granularity: one hub's
  // in-edges land whole on its owner, so the bound loosens on small
  // graphs where a single hub is a visible fraction of all edges.
  graph::Csr g = graph::generate_rmat(13, 8, 1001);
  Cluster cluster(g, test_cluster_config(8));
  std::uint64_t lo = ~0ull, hi = 0;
  for (std::size_t m = 0; m < cluster.machines(); ++m) {
    lo = std::min(lo, cluster.machine_edges(m));
    hi = std::max(hi, cluster.machine_edges(m));
  }
  EXPECT_LT(static_cast<double>(hi) / static_cast<double>(lo), 1.5);

  // Contrast: naive modulo partitioning on the same graph is far worse
  // (RMAT bit bias concentrates low-residue destinations).
  std::vector<std::uint64_t> naive(8, 0);
  for (vertex_t d : g.edges()) ++naive[d % 8];
  auto [nlo, nhi] = std::minmax_element(naive.begin(), naive.end());
  EXPECT_GT(static_cast<double>(*nhi) / static_cast<double>(*nlo),
            static_cast<double>(hi) / static_cast<double>(lo));
}

TEST(Cluster, BfsMatchesSingleMachine) {
  graph::Csr g = graph::generate_rmat(10, 8, 1002);
  Cluster cluster(g, test_cluster_config(3));
  auto parent = algorithms::run_bfs(cluster, 0).parent;
  auto dist = testutil::reference_bfs_dist(g, 0);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(parent[v] == kInvalidVertex, dist[v] == ~0u) << v;
  }
}

TEST(Cluster, WccMatchesOracleAcrossMachines) {
  graph::Csr g = graph::generate_uniform(1500, 4500, 1003);
  graph::Csr gt = graph::transpose(g);
  Cluster out_c(g, test_cluster_config(2));
  Cluster in_c(gt, test_cluster_config(2));
  auto ids = algorithms::run_wcc(out_c, in_c).ids;
  EXPECT_EQ(ids, baseline::inmem::wcc(g));
}

TEST(Cluster, SpmvMatchesOracle) {
  graph::Csr g = graph::generate_rmat(9, 8, 1004);
  Cluster cluster(g, test_cluster_config(4));
  std::vector<float> x(g.num_vertices(), 1.0f);
  auto y = algorithms::run_spmv(cluster, x).y;
  auto want = baseline::inmem::spmv(g, x);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(y[i], want[i], 1e-3f + 1e-4f * std::fabs(want[i])) << i;
  }
}

TEST(Cluster, BroadcastAccountingGrowsWithMachines) {
  graph::Csr g = graph::generate_rmat(9, 8, 1005);
  std::uint64_t bytes2, bytes4;
  {
    Cluster c(g, test_cluster_config(2));
    algorithms::run_bfs(c, 0);
    bytes2 = c.stats().network_bytes;
  }
  {
    Cluster c(g, test_cluster_config(4));
    algorithms::run_bfs(c, 0);
    bytes4 = c.stats().network_bytes;
  }
  EXPECT_GT(bytes2, 0u);
  // (M-1) scaling: 4 machines ship ~3x what 2 machines ship.
  EXPECT_NEAR(static_cast<double>(bytes4) / static_cast<double>(bytes2),
              3.0, 0.5);
}

TEST(Cluster, SingleMachineDegeneratesToPlainBlaze) {
  graph::Csr g = graph::generate_rmat(9, 8, 1006);
  Cluster cluster(g, test_cluster_config(1));
  EXPECT_EQ(cluster.machine_edges(0), g.num_edges());
  auto parent = algorithms::run_bfs(cluster, 0).parent;
  EXPECT_EQ(cluster.stats().network_bytes, 0u);  // no peers
  EXPECT_EQ(parent[0], 0u);
}

}  // namespace
}  // namespace blaze::scaleout
