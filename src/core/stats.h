// Execution statistics and memory accounting.
//
// QueryStats accumulates over the EdgeMap/VertexMap calls of one query and
// feeds the evaluation harness: average read bandwidth (Figs 1, 8, 10),
// iteration counts, and the DRAM footprint breakdown behind Figure 12.
// The IO-side counters are the unified io::PipelineStats record, filled by
// the persistent IO pipeline and merged up here — device, io, and core
// layers all report through this one struct.
#pragma once

#include <cstdint>

#include "io/pipeline_stats.h"

namespace blaze::core {

/// Cumulative statistics for one graph query. Extends the cross-layer IO
/// record (pages_read, io_requests, bytes_read, backpressure stalls,
/// device busy time, and the fault counters — retries, failed_requests,
/// gave_up) with the compute-side counters.
struct QueryStats : io::PipelineStats {
  std::uint64_t edge_map_calls = 0;
  std::uint64_t vertex_map_calls = 0;
  std::uint64_t edges_scattered = 0;  ///< scatter-function invocations
  std::uint64_t records_binned = 0;   ///< records through online binning
  double seconds = 0.0;               ///< accumulated EdgeMap wall time

  /// Average read bandwidth in GB/s: total read bytes over total time —
  /// exactly how the paper computes the Figure 8 series.
  double avg_read_gbps() const {
    return seconds > 0 ? static_cast<double>(bytes_read) / 1e9 / seconds
                       : 0.0;
  }

  /// True when the query survived (or propagated) at least one device
  /// fault: retried transient failures leave retries > 0 with
  /// failed_requests == 0; a propagated failure leaves failed_requests > 0.
  bool experienced_faults() const {
    return retries > 0 || failed_requests > 0;
  }

  /// Fraction of EdgeMap wall time the devices spent servicing reads
  /// (device_busy_ns is summed across devices, so >1.0 means parallel IO).
  double device_utilization() const {
    return seconds > 0 ? static_cast<double>(device_busy_ns) / 1e9 / seconds
                       : 0.0;
  }

  using io::PipelineStats::merge;  // merge(PipelineStats): IO side only

  void merge(const QueryStats& o) {
    io::PipelineStats::merge(o);
    edge_map_calls += o.edge_map_calls;
    vertex_map_calls += o.vertex_map_calls;
    edges_scattered += o.edges_scattered;
    records_binned += o.records_binned;
    seconds += o.seconds;
  }
};

/// DRAM footprint breakdown of a query (Figure 12). All values in bytes.
struct MemoryFootprint {
  std::uint64_t io_buffers = 0;      ///< static IO buffer pool
  std::uint64_t bins = 0;            ///< online binning space
  std::uint64_t graph_metadata = 0;  ///< index + page-to-vertex map
  std::uint64_t frontiers = 0;       ///< vertex + page subsets
  std::uint64_t algorithm = 0;       ///< algorithm-specific vertex arrays

  std::uint64_t total() const {
    return io_buffers + bins + graph_metadata + frontiers + algorithm;
  }
};

}  // namespace blaze::core
