#include "algorithms/wcc.h"

#include "algorithms/drivers.h"
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

WccResult wcc_async(core::QueryContext& qc,
                    const format::OnDiskGraph& out_g,
                    const format::OnDiskGraph& in_g) {
  const vertex_t n = out_g.num_vertices();
  WccResult result;
  result.ids.resize(n);
  for (vertex_t v = 0; v < n; ++v) result.ids[v] = v;

  sched::AsyncRunner runner(qc, out_g);
  const std::uint32_t shift = label_shift(n, runner.queue().num_buckets());
  for (vertex_t v = 0; v < n; ++v) {
    runner.queue().push(v, v >> shift);
  }

  sched::Enqueue<WccProgram> prog{{result.ids}, runner.updated()};
  BlazeEngine eng(qc, out_g, in_g);
  // Lowered labels flood further, smallest first.
  auto rs = runner.run(
      [&](const core::VertexSubset& frontier) {
        eng.edge_map(frontier, prog, /*output=*/false, &result.stats);
      },
      [&ids = result.ids, shift](vertex_t d) { return ids[d] >> shift; });
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
  // One engine over both directions: each iteration reads the graph and
  // its transpose in one edge_map pass.
  BlazeEngine eng(qc, out_g, in_g);
  return run_wcc(eng);
}

WccResult wcc(core::Runtime& rt, const format::OnDiskGraph& out_g,
              const format::OnDiskGraph& in_g) {
  return wcc(rt.default_context(), out_g, in_g);
}

}  // namespace blaze::algorithms
