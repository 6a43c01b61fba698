// Process-wide async-scheduler counters for blaze::metrics.
//
// Same cost discipline as core_metrics.h: sched_metrics() is the only
// entry point, a metrics-off run pays one relaxed load plus a predicted
// branch, and binding happens once via a thread-safe static local. The
// sampler turns these into the round and bucket-occupancy time series the
// async mode's convergence story is told with.
#pragma once

#include "metrics/metrics.h"

namespace blaze::sched::detail {

/// Stable registry handles for the AsyncRunner series. All pointers are
/// non-null once sched_metrics() returns non-null.
struct SchedMetrics {
  metrics::Counter* rounds;       ///< blaze_sched_rounds_total
  metrics::Counter* popped;       ///< blaze_sched_popped_vertices_total
  metrics::Counter* pushes;       ///< blaze_sched_pushes_total
  metrics::Counter* stale_drops;  ///< blaze_sched_stale_drops_total
  metrics::Counter* refetches;    ///< blaze_sched_page_refetches_total
  metrics::Gauge* occupancy;      ///< blaze_sched_queue_occupancy
};

/// The lazily bound handle block, or nullptr while metrics are off.
inline const SchedMetrics* sched_metrics() {
  if (!metrics::enabled()) return nullptr;
  static const SchedMetrics m = [] {
    metrics::Registry& reg = metrics::Registry::instance();
    return SchedMetrics{reg.counter("blaze_sched_rounds_total"),
                        reg.counter("blaze_sched_popped_vertices_total"),
                        reg.counter("blaze_sched_pushes_total"),
                        reg.counter("blaze_sched_stale_drops_total"),
                        reg.counter("blaze_sched_page_refetches_total"),
                        reg.gauge("blaze_sched_queue_occupancy")};
  }();
  return &m;
}

}  // namespace blaze::sched::detail
