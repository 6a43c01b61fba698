// Process-wide EdgeMap counters for blaze::metrics.
//
// The core layer's telemetry story: every EdgeMap call (edge_map.h) bumps
// one shared set of owned registry handles, bound lazily on first use. The
// sampler then turns them into the iteration-progress and scatter-volume
// time series the serving dashboard plots next to the per-device bandwidth.
//
// Cost discipline: core_metrics() is the only entry point, and a
// metrics-off run pays exactly one relaxed atomic load plus a predicted
// branch per call. With metrics on, binding happens once (thread-safe
// static-local init) and each use is a handful of relaxed atomic RMWs.
#pragma once

#include "metrics/metrics.h"

namespace blaze::core::detail {

/// Stable registry handles for the EdgeMap counters. All pointers are
/// non-null once core_metrics() returns non-null.
struct CoreMetrics {
  metrics::Counter* iterations;  ///< blaze_iterations_total (EdgeMap calls)
  metrics::Counter* edges;       ///< blaze_edges_scattered_total
  metrics::Counter* records;     ///< blaze_records_binned_total
  metrics::Gauge* frontier;      ///< blaze_frontier_vertices (last call's)
};

/// The lazily bound handle block, or nullptr while metrics are off.
inline const CoreMetrics* core_metrics() {
  if (!metrics::enabled()) return nullptr;
  static const CoreMetrics m = [] {
    metrics::Registry& reg = metrics::Registry::instance();
    return CoreMetrics{reg.counter("blaze_iterations_total"),
                       reg.counter("blaze_edges_scattered_total"),
                       reg.counter("blaze_records_binned_total"),
                       reg.gauge("blaze_frontier_vertices")};
  }();
  return &m;
}

}  // namespace blaze::core::detail
