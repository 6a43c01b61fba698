#include "prof/profiler.h"

namespace blaze::prof {

WorkloadProfiler::WorkloadProfiler(ProfilerOptions opts) : opts_(opts) {}

WorkloadProfiler::~WorkloadProfiler() { detach(); }

void WorkloadProfiler::attach(
    const std::shared_ptr<device::ShardedPageCache>& pool) {
  detach();
  pool_ = pool;
  if (pool) pool->set_access_observer(this);
}

void WorkloadProfiler::detach() {
  if (auto p = pool_.lock()) p->set_access_observer(nullptr);
  pool_.reset();
}

void WorkloadProfiler::on_access(std::uint64_t first_key,
                                 std::uint32_t num_pages) {
  const std::uint64_t ns = first_key >> device::kNamespaceShift;
  if (ns >= kMaxNamespaces) return;
  ReuseSampler* s = samplers_[ns].load(std::memory_order_acquire);
  if (!s) s = sampler_slow(static_cast<std::size_t>(ns));
  s->record_run(first_key, num_pages);
}

ReuseSampler* WorkloadProfiler::sampler_slow(std::size_t ns) {
  std::lock_guard lock(mu_);
  ReuseSampler* s = samplers_[ns].load(std::memory_order_relaxed);
  if (s) return s;
  ReuseSamplerOptions ropts;
  ropts.sample_budget = opts_.sample_budget;
  ropts.initial_rate = opts_.initial_rate;
  // Decorrelate namespaces: one graph's sampled page set must not predict
  // another's (they share page-number ranges within their namespaces).
  ropts.seed = 0x5ca1ab1eull ^ (0x9e3779b97f4a7c15ull * (ns + 1));
  owned_.push_back(std::make_unique<ReuseSampler>(ropts));
  s = owned_.back().get();
  samplers_[ns].store(s, std::memory_order_release);
  return s;
}

const ReuseSampler* WorkloadProfiler::sampler_of(
    std::uint64_t ns_base) const {
  const std::uint64_t ns = ns_base >> device::kNamespaceShift;
  if (ns >= kMaxNamespaces) return nullptr;
  return samplers_[ns].load(std::memory_order_acquire);
}

void WorkloadProfiler::bind_namespace(std::uint64_t ns_base,
                                      const std::string& name,
                                      bool bind_metrics) {
  const std::uint64_t ns = ns_base >> device::kNamespaceShift;
  if (ns >= kMaxNamespaces) return;
  ReuseSampler* s = sampler_slow(static_cast<std::size_t>(ns));
  bool already_bound = false;
  {
    std::lock_guard lock(mu_);
    already_bound = !names_[ns].empty();
    names_[ns] = name;
  }
  if (!bind_metrics || already_bound) return;
  // Registry calls happen OUTSIDE mu_ (registry lock ordering: callbacks
  // may only take leaf locks, and ours take the sampler's own mutex).
  metrics::Registry& reg = metrics::Registry::instance();
  using metrics::Kind;
  // Curve gauges at 2^k pages up to 2^20 (4 GiB of 4 kB pages) — wide
  // enough for any budget this repo benches; the JSON report carries the
  // full-resolution curve regardless.
  for (std::size_t k = 0; k <= 20; k += 2) {
    const std::uint64_t pages = std::uint64_t{1} << k;
    metrics_bindings_.add(reg.callback(
        "blaze_prof_mrc_bucket",
        {{"ns", name}, {"cache_pages", std::to_string(pages)}}, Kind::kGauge,
        [s, pages] { return s->curve().miss_ratio_at(pages); }));
  }
  metrics_bindings_.add(
      reg.callback("blaze_prof_sample_rate", {{"ns", name}}, Kind::kGauge,
                   [s] { return s->sample_rate(); }));
  metrics_bindings_.add(reg.callback(
      "blaze_prof_accesses_total", {{"ns", name}}, Kind::kCounter,
      [s] { return static_cast<double>(s->accesses()); }));
}

std::uint64_t WorkloadProfiler::accesses_of(std::uint64_t ns_base) const {
  if (const ReuseSampler* s = sampler_of(ns_base)) return s->accesses();
  return 0;
}

std::vector<NamespaceCurve> WorkloadProfiler::curves() const {
  std::vector<NamespaceCurve> out;
  for (std::size_t ns = 0; ns < kMaxNamespaces; ++ns) {
    const ReuseSampler* s = samplers_[ns].load(std::memory_order_acquire);
    if (!s) continue;
    NamespaceCurve c;
    c.ns_base = static_cast<std::uint64_t>(ns) << device::kNamespaceShift;
    c.curve = s->curve();
    {
      std::lock_guard lock(mu_);
      c.name = names_[ns];
    }
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace blaze::prof
