#include "algorithms/kcore.h"

#include "algorithms/drivers.h"

namespace blaze::algorithms {

namespace {
constexpr std::uint32_t kAlive = PeelProgram::kAlive;
}  // namespace

KcoreResult kcore(core::QueryContext& qc, const format::OnDiskGraph& out_g,
                  const format::OnDiskGraph& in_g, std::uint32_t max_k) {
  BLAZE_CHECK(out_g.num_vertices() == in_g.num_vertices(),
              "kcore: graph/transpose vertex count mismatch");
  const vertex_t n = out_g.num_vertices();
  KcoreResult result;
  result.coreness.assign(n, kAlive);
  std::vector<std::uint32_t> residual(n);
  for (vertex_t v = 0; v < n; ++v) {
    residual[v] = out_g.degree(v) + in_g.degree(v);
  }

  PeelProgram prog{residual, result.coreness};
  BlazeEngine eng(qc, out_g, in_g);

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
      eng.edge_map(peeled, prog, /*output=*/false, &result.stats);
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
