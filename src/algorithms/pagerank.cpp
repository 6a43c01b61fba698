#include "algorithms/pagerank.h"

#include "algorithms/drivers.h"

namespace blaze::algorithms {

PageRankResult pagerank(core::QueryContext& qc,
                        const format::OnDiskGraph& g,
                        const PageRankOptions& options) {
  BlazeEngine eng(qc, g);
  return run_pagerank(eng, g.index(), options);
}

PageRankResult pagerank(core::Runtime& rt, const format::OnDiskGraph& g,
                        const PageRankOptions& options) {
  return pagerank(rt.default_context(), g, options);
}

}  // namespace blaze::algorithms
