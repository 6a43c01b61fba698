#include "algorithms/spmv.h"

#include "algorithms/drivers.h"

namespace blaze::algorithms {

SpmvResult spmv(core::Runtime& rt, const format::OnDiskGraph& g,
                const std::vector<float>& x) {
  BlazeEngine eng(rt.default_context(), g);
  return run_spmv(eng, x);
}

}  // namespace blaze::algorithms
