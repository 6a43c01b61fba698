#include "algorithms/bc.h"

#include "algorithms/drivers.h"

namespace blaze::algorithms {

BcResult bc(core::Runtime& rt, const format::OnDiskGraph& out_g,
            const format::OnDiskGraph& in_g, vertex_t source) {
  BLAZE_CHECK(out_g.num_vertices() == in_g.num_vertices(),
              "bc: graph/transpose vertex count mismatch");
  BlazeEngine out_eng(rt.default_context(), out_g);
  BlazeEngine in_eng(rt.default_context(), in_g);
  return run_bc(out_eng, in_eng, source);
}

}  // namespace blaze::algorithms
