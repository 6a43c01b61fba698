#include "algorithms/kcore.h"

#include <algorithm>

#include "algorithms/detail/atomics.h"
#include "algorithms/programs.h"
#include "core/edge_map.h"
#include "sched/async_runner.h"

namespace blaze::algorithms {

namespace {
constexpr std::uint32_t kAlive = PeelProgram::kAlive;

/// Peeling with re-enqueue: each incoming record decrements the
/// destination's residual degree; the new residual is its new priority.
/// Only the physical slot is clamped by the queue, the exact residual
/// rides in the entry, which is what makes level-at-a-time popping exact.
struct AsyncPeelProgram {
  using value_type = std::uint32_t;
  std::vector<std::uint32_t>& residual;
  const std::vector<std::uint32_t>& coreness;
  sched::BucketQueue& queue;

  value_type scatter(vertex_t, vertex_t) const { return 1; }
  bool cond(vertex_t d) const {
    return detail::relaxed_load(coreness[d]) == kAlive;
  }
  bool gather(vertex_t d, value_type v) {
    const std::uint32_t cur = residual[d];
    const std::uint32_t nr = cur > v ? cur - v : 0;
    residual[d] = nr;
    queue.push(d, nr);
    return false;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    std::atomic_ref<std::uint32_t> ref(residual[d]);
    std::uint32_t cur = ref.load(std::memory_order_relaxed);
    std::uint32_t nr;
    do {
      nr = cur > v ? cur - v : 0;
    } while (!ref.compare_exchange_weak(cur, nr,
                                        std::memory_order_relaxed));
    queue.push(d, nr);
    return false;
  }
};

/// Async k-core: priority = exact residual degree, strict one-level-per-
/// round popping (single_bucket_rounds). Popping level b with current core
/// number k peels those vertices at max(k, b) — the same shell the BSP
/// inner loop would peel — so the coreness numbers are identical.
KcoreResult kcore_async(core::QueryContext& qc,
                        const format::OnDiskGraph& out_g,
                        const format::OnDiskGraph& in_g,
                        std::uint32_t max_k) {
  const vertex_t n = out_g.num_vertices();
  KcoreResult result;
  result.coreness.assign(n, kAlive);
  std::vector<std::uint32_t> residual(n);
  for (vertex_t v = 0; v < n; ++v) {
    residual[v] = out_g.degree(v) + in_g.degree(v);
  }

  const core::Config& cfg = qc.config();
  sched::AsyncOptions aopts;
  aopts.num_buckets = cfg.async_buckets;
  aopts.single_bucket_rounds = true;
  sched::AsyncRunner runner(qc, out_g, aopts);
  for (vertex_t v = 0; v < n; ++v) {
    runner.queue().push(v, residual[v]);
  }

  AsyncPeelProgram prog{residual, result.coreness, runner.queue()};
  core::EdgeMapOptions opts;
  opts.output = false;
  opts.stats = &result.stats;
  std::uint32_t k = 0;
  std::uint64_t alive = n;
  runner.run([&](const core::VertexSubset& frontier,
                 sched::priority_t level) {
    // A level below the current k is a vertex whose residual dropped after
    // its shell was reached: it still belongs to the k-shell in progress.
    if (max_k != 0 && std::max(k, level) > max_k) {
      runner.request_stop();
      return static_cast<double>(alive);
    }
    k = std::max(k, level);
    core::vertex_map(
        qc, frontier,
        [&](vertex_t v) {
          detail::relaxed_store(result.coreness[v], k);
          return false;
        },
        &result.stats);
    alive -= frontier.count();
    core::edge_map(qc, {&out_g, &in_g}, frontier, prog, opts);
    return static_cast<double>(alive);
  });
  // A bounded sweep leaves the deeper core unpeeled, exactly like the BSP
  // loop: everything still alive is "past max_k".
  bool any_alive = false;
  for (vertex_t v = 0; v < n; ++v) {
    if (result.coreness[v] == kAlive) {
      result.coreness[v] = max_k + 1;
      any_alive = true;
    }
  }
  result.max_core = any_alive ? max_k : k;
  return result;
}

}  // namespace

KcoreResult kcore(core::QueryContext& qc, const format::OnDiskGraph& out_g,
                  const format::OnDiskGraph& in_g, std::uint32_t max_k) {
  BLAZE_CHECK(out_g.num_vertices() == in_g.num_vertices(),
              "kcore: graph/transpose vertex count mismatch");
  if (qc.config().execution_mode == core::ExecutionMode::kAsync) {
    return kcore_async(qc, out_g, in_g, max_k);
  }
  const vertex_t n = out_g.num_vertices();
  KcoreResult result;
  result.coreness.assign(n, kAlive);
  std::vector<std::uint32_t> residual(n);
  for (vertex_t v = 0; v < n; ++v) {
    residual[v] = out_g.degree(v) + in_g.degree(v);
  }

  PeelProgram prog{residual, result.coreness};
  core::EdgeMapOptions opts;
  opts.output = false;
  opts.stats = &result.stats;

  std::uint64_t alive = n;
  std::uint32_t k = 0;
  while (alive > 0 && (max_k == 0 || k <= max_k)) {
    // Peel everything with residual degree <= k until the k-shell is empty,
    // then move to k+1.
    for (;;) {
      core::VertexSubset peeled = core::vertex_map(
          qc, core::VertexSubset::all(n),
          [&](vertex_t v) {
            if (result.coreness[v] == kAlive && residual[v] <= k) {
              result.coreness[v] = k;
              return true;
            }
            return false;
          },
          &result.stats);
      if (peeled.empty()) break;
      alive -= peeled.count();
      core::edge_map(qc, {&out_g, &in_g}, peeled, prog, opts);
    }
    ++k;
  }
  // Anything still alive when max_k bounded the sweep gets coreness max_k+1.
  if (alive > 0) {
    for (vertex_t v = 0; v < n; ++v) {
      if (result.coreness[v] == kAlive) result.coreness[v] = k;
    }
  }
  result.max_core = k > 0 ? k - 1 : 0;
  return result;
}

KcoreResult kcore(core::Runtime& rt, const format::OnDiskGraph& out_g,
                  const format::OnDiskGraph& in_g, std::uint32_t max_k) {
  return kcore(rt.default_context(), out_g, in_g, max_k);
}

}  // namespace blaze::algorithms
