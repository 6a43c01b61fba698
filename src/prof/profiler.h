// prof::WorkloadProfiler — the profiling front end: routes the page-cache
// access stream into per-namespace ReuseSamplers, snapshots miss-ratio
// curves, and exports them through the metric registry and blaze-run's
// --profile report.
//
// Wiring: WorkloadProfiler implements device::CacheAccessObserver and is
// installed on the shared ShardedPageCache by Runtime::profiler() — the
// device layer never depends on prof. The hot path (on_access) is one
// array-indexed relaxed atomic load to find the namespace's sampler, then
// ReuseSampler::record per page (itself mostly a hash-and-reject);
// samplers are created lazily under a mutex the first time a namespace is
// seen.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "device/page_cache.h"
#include "metrics/metrics.h"
#include "prof/reuse_sampler.h"

namespace blaze::prof {

struct ProfilerOptions {
  /// Per-namespace sampler budget (ReuseSamplerOptions::sample_budget).
  std::size_t sample_budget = 4096;

  /// Initial per-namespace sampling rate (adapts downward on its own).
  double initial_rate = 1.0;
};

/// One namespace's curve snapshot, joined to its registered name when the
/// profiler has been told it (bind_namespace / GraphCatalog).
struct NamespaceCurve {
  std::uint64_t ns_base = 0;  ///< ShardedPageCache::register_device() base
  std::string name;           ///< empty until bind_namespace()
  MissRatioCurve curve;
};

class WorkloadProfiler final : public device::CacheAccessObserver {
 public:
  explicit WorkloadProfiler(ProfilerOptions opts = {});
  ~WorkloadProfiler() override;

  WorkloadProfiler(const WorkloadProfiler&) = delete;
  WorkloadProfiler& operator=(const WorkloadProfiler&) = delete;

  /// Installs this profiler as `pool`'s access observer. The destructor
  /// uninstalls it (via a weak_ptr, so a pool that died first is fine).
  void attach(const std::shared_ptr<device::ShardedPageCache>& pool);
  void detach();

  /// device::CacheAccessObserver — called from the read workers.
  void on_access(std::uint64_t first_key, std::uint32_t num_pages) override;

  /// Names a namespace (idempotent) and, when the metric registry is
  /// enabled, publishes its curve as polled gauges:
  ///   blaze_prof_mrc_bucket{ns=<name>, cache_pages=2^k}  (miss ratio)
  ///   blaze_prof_sample_rate{ns=<name>}
  /// Callbacks read the sampler under its own leaf lock at sample time.
  void bind_namespace(std::uint64_t ns_base, const std::string& name,
                      bool bind_metrics);

  /// All namespaces with samplers, ascending namespace id.
  std::vector<NamespaceCurve> curves() const;

  /// Raw access count routed to a namespace's sampler so far.
  std::uint64_t accesses_of(std::uint64_t ns_base) const;

 private:
  /// One slot per namespace id (key >> kNamespaceShift). 256 namespaces
  /// is far beyond any catalog; ids past the array are ignored.
  static constexpr std::size_t kMaxNamespaces = 256;

  ReuseSampler* sampler_slow(std::size_t ns);
  const ReuseSampler* sampler_of(std::uint64_t ns_base) const;

  const ProfilerOptions opts_;
  std::array<std::atomic<ReuseSampler*>, kMaxNamespaces> samplers_{};

  mutable std::mutex mu_;
  // Guarded by mu_:
  std::vector<std::unique_ptr<ReuseSampler>> owned_;
  std::array<std::string, kMaxNamespaces> names_{};

  std::weak_ptr<device::ShardedPageCache> pool_;
  metrics::BindingSet metrics_bindings_;
};

}  // namespace blaze::prof
