#include "algorithms/wcc.h"

#include <atomic>

#include "algorithms/detail/atomics.h"
#include "algorithms/programs.h"
#include "core/edge_map.h"
#include "sched/async_runner.h"

namespace blaze::algorithms {

namespace {

/// Label-to-bucket quantization: labels span [0, n), buckets are few, so
/// drop low bits until the label range fits a few windows of the queue
/// (the overflow bucket absorbs the tail either way).
std::uint32_t label_shift(vertex_t n, std::uint32_t buckets) {
  std::uint32_t shift = 0;
  while ((static_cast<std::uint64_t>(n) >> shift) > 16ull * buckets) {
    ++shift;
  }
  return shift;
}

/// Min-label flooding for the async scheduler: scatter forwards the
/// source's current label (fresher than at pop time only helps — labels
/// are monotone decreasing), gather keeps the min and re-enqueues lowered
/// destinations so they flood further.
struct AsyncWccProgram {
  using value_type = vertex_t;
  std::vector<vertex_t>& ids;
  std::uint32_t shift;
  sched::BucketQueue& queue;

  value_type scatter(vertex_t s, vertex_t) const {
    return detail::relaxed_load(ids[s]);
  }
  bool cond(vertex_t) const { return true; }
  bool gather(vertex_t d, value_type v) {
    if (v < ids[d]) {
      detail::relaxed_store(ids[d], v);  // scatter reads ids[s] concurrently
      queue.push(d, v >> shift);
    }
    return false;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    if (detail::atomic_min(ids[d], v)) queue.push(d, v >> shift);
    return false;
  }
};

WccResult wcc_async(core::QueryContext& qc,
                    const format::OnDiskGraph& out_g,
                    const format::OnDiskGraph& in_g) {
  const vertex_t n = out_g.num_vertices();
  WccResult result;
  result.ids.resize(n);
  for (vertex_t v = 0; v < n; ++v) result.ids[v] = v;

  const core::Config& cfg = qc.config();
  sched::AsyncOptions aopts;
  aopts.num_buckets = cfg.async_buckets;
  aopts.round_page_budget = cfg.async_round_pages;
  sched::AsyncRunner runner(qc, out_g, aopts);
  const std::uint32_t shift = label_shift(n, cfg.async_buckets);
  for (vertex_t v = 0; v < n; ++v) {
    runner.queue().push(v, v >> shift);
  }

  AsyncWccProgram prog{result.ids, shift, runner.queue()};
  core::EdgeMapOptions opts;
  opts.output = false;
  opts.stats = &result.stats;
  auto rs = runner.run(
      [&](const core::VertexSubset& frontier, sched::priority_t) {
        core::edge_map(qc, {&out_g, &in_g}, frontier, prog, opts);
        return static_cast<double>(frontier.count());
      });
  result.iterations = static_cast<std::uint32_t>(rs.rounds);
  return result;
}

}  // namespace

WccResult wcc(core::QueryContext& qc, const format::OnDiskGraph& out_g,
              const format::OnDiskGraph& in_g) {
  BLAZE_CHECK(out_g.num_vertices() == in_g.num_vertices(),
              "wcc: graph/transpose vertex count mismatch");
  if (qc.config().execution_mode == core::ExecutionMode::kAsync) {
    return wcc_async(qc, out_g, in_g);
  }
  const vertex_t n = out_g.num_vertices();
  WccResult result;
  result.ids.resize(n);
  std::vector<vertex_t> prev_ids(n);
  for (vertex_t v = 0; v < n; ++v) {
    result.ids[v] = v;
    prev_ids[v] = v;
  }

  WccProgram prog{result.ids};
  core::VertexSubset frontier = core::VertexSubset::all(n);
  core::EdgeMapOptions opts;
  opts.output = false;
  opts.stats = &result.stats;

  while (!frontier.empty()) {
    core::edge_map(qc, {&out_g, &in_g}, frontier, prog, opts);
    frontier = core::vertex_map(
        qc, core::VertexSubset::all(n),
        [&](vertex_t i) {
          // APPLYFILTER: pointer jumping, then activate changed vertices.
          // Neighboring lambda invocations may touch the same label slots
          // concurrently, so go through relaxed atomics; labels only ever
          // decrease, so stale reads just delay convergence by a round.
          std::atomic_ref<vertex_t> my(result.ids[i]);
          vertex_t label = my.load(std::memory_order_relaxed);
          vertex_t id = std::atomic_ref<vertex_t>(result.ids[label])
                            .load(std::memory_order_relaxed);
          if (label != id) my.store(id, std::memory_order_relaxed);
          if (prev_ids[i] != id) {
            prev_ids[i] = id;
            return true;
          }
          return false;
        },
        &result.stats);
    ++result.iterations;
  }
  return result;
}

WccResult wcc(core::Runtime& rt, const format::OnDiskGraph& out_g,
              const format::OnDiskGraph& in_g) {
  return wcc(rt.default_context(), out_g, in_g);
}

}  // namespace blaze::algorithms
