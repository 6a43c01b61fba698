// Scale-out Blaze: destination-partitioned multi-machine execution
// (the paper's Section VI future-work sketch, built as a simulation).
//
// "One potential way to scale out Blaze is to partition the input graph
//  based on the destination vertex and place each partition in each
//  machine. This allows a single machine to process only a subset of edges
//  and vertex-related values, and, more importantly, to propagate values
//  between scatter and gather threads locally, avoiding the costly network
//  communications during EDGEMAP execution."
//
// Machine m of M owns destination vertices {d : hash(d) % M == m} (hashed
// for balance under power-law in-degree) and stores the
// subgraph of edges pointing at them on its own (simulated) FND. During
// EdgeMap every machine scans its local adjacency for the global frontier
// and runs scatter -> bins -> gather entirely locally: a destination's
// updates never leave its owner, so the binning exclusivity argument holds
// cluster-wide. The only cross-machine traffic is the per-iteration
// frontier/source-value broadcast, which the simulation accounts at a
// configurable network bandwidth.
//
// This runs in one process: "machines" execute sequentially on this
// single-core host and the cluster-level iteration time is modeled as
// max(machine times) + broadcast time — the quantity a real deployment's
// barrier would realize.
#pragma once

#include <memory>
#include <vector>

#include "core/edge_map.h"
#include "core/runtime.h"
#include "format/on_disk_graph.h"
#include "graph/csr.h"
#include "util/rng.h"

namespace blaze::scaleout {

struct ClusterConfig {
  std::size_t machines = 4;
  core::Config engine;  ///< per-machine engine configuration
  device::SsdProfile profile = device::optane_p4800x();
  double network_gbps = 10.0;  ///< broadcast bandwidth between machines
};

/// Modeled execution statistics of the cluster.
struct ClusterStats {
  core::QueryStats engine;        ///< summed over machines
  double max_machine_seconds = 0; ///< sum over iterations of max(machines)
  double sum_machine_seconds = 0; ///< total machine-seconds consumed
  std::uint64_t network_bytes = 0;
  double network_seconds = 0;

  /// Modeled cluster wall time: per-iteration barrier at the slowest
  /// machine plus the frontier broadcast.
  double modeled_seconds() const {
    return max_machine_seconds + network_seconds;
  }
};

/// A simulated cluster of Blaze machines over one logical graph. Satisfies
/// the same engine concept as the baselines, so the generic query drivers
/// in baselines/queries.h run unchanged on a cluster.
class Cluster {
 public:
  Cluster(const graph::Csr& g, ClusterConfig cfg);

  vertex_t num_vertices() const { return num_vertices_; }
  std::size_t machines() const { return nodes_.size(); }
  const ClusterStats& stats() const { return stats_; }

  /// Destination-partitioned EdgeMap: every machine applies `prog` to its
  /// local edges; results merge into one output frontier.
  template <typename Program>
  core::VertexSubset edge_map(const core::VertexSubset& frontier,
                              Program& prog, bool output,
                              core::QueryStats* stats = nullptr) {
    core::VertexSubset out(num_vertices_);
    double max_machine = 0;
    for (auto& node : nodes_) {
      core::QueryStats machine_stats;
      core::EdgeMapOptions opts;
      opts.output = output;
      opts.stats = &machine_stats;
      double before = machine_stats.seconds;
      core::VertexSubset local =
          core::edge_map(*node->runtime, node->graph, frontier, prog, opts);
      max_machine = std::max(max_machine, machine_stats.seconds - before);
      stats_.sum_machine_seconds += machine_stats.seconds;
      stats_.engine.merge(machine_stats);
      if (stats) stats->merge(machine_stats);
      if (output) {
        local.for_each([&](vertex_t v) { out.add(v); });
      }
    }
    stats_.max_machine_seconds += max_machine;
    // Broadcast: the frontier's source values (ID + value slot) must reach
    // every machine before its scatters run; account it against the input
    // frontier, which is what a real deployment would ship.
    std::uint64_t bytes = static_cast<std::uint64_t>(frontier.count()) * 8 *
                          (nodes_.size() - 1);
    stats_.network_bytes += bytes;
    stats_.network_seconds +=
        static_cast<double>(bytes) / (network_gbps_ * 1e9);
    return out;
  }

  /// VertexMap runs on machine 0's pool (vertex data is replicated).
  template <typename Fn>
  core::VertexSubset vertex_map(const core::VertexSubset& frontier, Fn&& f,
                                core::QueryStats* stats = nullptr) {
    return core::vertex_map(nodes_[0]->runtime->pool(), frontier,
                            std::forward<Fn>(f), stats);
  }

  /// Owner of destination vertex d.
  static std::size_t owner(vertex_t d, std::size_t machines) {
    return static_cast<std::size_t>(hash64(d) % machines);
  }

  /// Edges stored on machine m (for balance reporting).
  std::uint64_t machine_edges(std::size_t m) const {
    return nodes_[m]->graph.num_edges();
  }

 private:
  struct Node {
    format::OnDiskGraph graph;
    std::unique_ptr<core::Runtime> runtime;
  };

  vertex_t num_vertices_ = 0;
  double network_gbps_;
  std::vector<std::unique_ptr<Node>> nodes_;
  ClusterStats stats_;
};

}  // namespace blaze::scaleout
