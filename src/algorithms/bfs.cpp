#include "algorithms/bfs.h"

#include "algorithms/drivers.h"

namespace blaze::algorithms {

BfsResult bfs(core::QueryContext& qc, const format::OnDiskGraph& g,
              vertex_t source) {
  BlazeEngine eng(qc, g);
  return run_bfs(eng, source);
}

BfsResult bfs(core::Runtime& rt, const format::OnDiskGraph& g,
              vertex_t source) {
  return bfs(rt.default_context(), g, source);
}

}  // namespace blaze::algorithms
