// Async vs BSP to convergence: the same monotone query runs twice on the
// same simulated device — once through the BSP edge_map loop, once through
// the sched::AsyncRunner priority loop — and prints one JSON row per pair:
//
//   {"bench":"async","graph":"r2","query":"WCC","bsp_bytes":...,
//    "async_bytes":...,"bytes_ratio":1.11,"bsp_seconds":...,
//    "async_seconds":...,"time_ratio":1.17,"bsp_iterations":3,
//    "async_rounds":4,"matches_bsp":true}
//
// bytes_ratio = bsp_bytes / async_bytes: > 1 means the priority order
// reached the fixed point on fewer total bytes read. On the power-law
// family WCC wins — min-label flooding in label order settles each
// vertex's final label sooner, cutting the relabel cascades BSP
// re-streams. SSSP and WCC run page-coalesced rounds (every queued vertex
// on a page the round reads joins it); the SSSP floor holds it to 1.05x
// of BSP's bytes (DESIGN.md section 10.4). PageRank and k-core have no
// async form (they run BSP in async mode), so they are not swept.
// time_ratio = async_seconds / bsp_seconds: < 1 means async converged
// sooner in wall time. check_bench_baseline.py prints it ungated.
// matches_bsp asserts the fixed point itself: exact equality for
// SSSP/WCC, within 1e-4 relative for stored-weight SSSP.
// check_bench_baseline.py --async gates each query's bytes ratio on the
// power-law graphs (r2/r3) against its own floor and requires every
// matches_bsp to be true.
//
// Environment overrides (besides the bench_common set):
//   BLAZE_BENCH_ASYNC_GRAPHS   comma list (default "r2,r3")
//   BLAZE_BENCH_ASYNC_QUERIES  comma list of SSSP,WSSSP,WCC
//                              (default "SSSP,WCC")
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "bench/bench_common.h"
#include "graph/weighted.h"

namespace {

using namespace blaze;
using namespace blaze::bench;

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<std::string> env_list(const char* name,
                                  const std::vector<std::string>& def) {
  const char* v = std::getenv(name);
  if (!v) return def;
  auto out = split_list(v);
  return out.empty() ? def : out;
}

struct QueryRun {
  double seconds = 0;
  std::uint64_t bytes = 0;
  std::uint32_t iterations = 0;
  std::vector<std::uint32_t> sssp_dist;
  std::vector<float> wsssp_dist;
  std::vector<vertex_t> wcc_ids;
};

QueryRun run_query(core::Runtime& rt, const format::OnDiskGraph& out_g,
                   const format::OnDiskGraph& in_g, const std::string& query) {
  QueryRun r;
  Timer t;
  if (query == "SSSP") {
    auto res = algorithms::sssp(rt, out_g, 0);
    r.bytes = res.stats.bytes_read;
    r.iterations = res.iterations;
    r.sssp_dist = std::move(res.dist);
  } else if (query == "WSSSP") {
    auto res = algorithms::sssp_weighted(rt, out_g, 0);
    r.bytes = res.stats.bytes_read;
    r.iterations = res.iterations;
    r.wsssp_dist = std::move(res.dist);
  } else if (query == "WCC") {
    auto res = algorithms::wcc(rt, out_g, in_g);
    r.bytes = res.stats.bytes_read;
    r.iterations = res.iterations;
    r.wcc_ids = std::move(res.ids);
  } else {
    std::fprintf(stderr, "unknown query %s\n", query.c_str());
    std::abort();
  }
  r.seconds = t.seconds();
  return r;
}

/// Fixed-point agreement: exact for integer distances and labels, within
/// float rounding for stored-weight distances.
bool matches(const QueryRun& bsp, const QueryRun& async_run) {
  if (!bsp.wsssp_dist.empty()) {
    for (std::size_t v = 0; v < bsp.wsssp_dist.size(); ++v) {
      const float want = bsp.wsssp_dist[v];
      const float got = async_run.wsssp_dist[v];
      if (std::isinf(want) != std::isinf(got)) return false;
      if (!std::isinf(want) &&
          std::fabs(got - want) > 1e-4f * (1.0f + want)) {
        return false;
      }
    }
    return true;
  }
  return bsp.sssp_dist == async_run.sssp_dist &&
         bsp.wcc_ids == async_run.wcc_ids;
}

}  // namespace

int main() {
  const auto graphs = env_list("BLAZE_BENCH_ASYNC_GRAPHS", {"r2", "r3"});
  const auto queries = env_list("BLAZE_BENCH_ASYNC_QUERIES", {"SSSP", "WCC"});

  std::printf("# bench_async: BSP vs priority-driven async to "
              "convergence\n");

  for (const auto& gname : graphs) {
    const BenchDataset& ds = dataset(gname);
    auto out_g = format::make_simulated_graph(ds.csr, bench_optane(), 2);
    auto in_g = format::make_simulated_graph(ds.transpose, bench_optane(), 2);

    for (const auto& query : queries) {
      // WSSSP streams stored-weight 8-byte records off its own file pair.
      format::OnDiskGraph* q_out = &out_g;
      format::OnDiskGraph w_g = out_g;
      if (query == "WSSSP") {
        w_g = format::make_simulated_graph(
            graph::attach_random_weights(ds.csr, 99), bench_optane(), 2);
        q_out = &w_g;
      }

      core::Runtime bsp_rt(bench_config(*q_out));
      auto bsp = run_query(bsp_rt, *q_out, in_g, query);

      auto acfg = bench_config(*q_out);
      acfg.execution_mode = core::ExecutionMode::kAsync;
      core::Runtime async_rt(acfg);
      auto asy = run_query(async_rt, *q_out, in_g, query);

      const double ratio =
          asy.bytes > 0
              ? static_cast<double>(bsp.bytes) / static_cast<double>(asy.bytes)
              : 0.0;
      const double time_ratio =
          bsp.seconds > 0 ? asy.seconds / bsp.seconds : 0.0;
      std::printf(
          "{\"bench\":\"async\",\"graph\":\"%s\",\"query\":\"%s\","
          "\"bsp_bytes\":%llu,\"async_bytes\":%llu,\"bytes_ratio\":%.4f,"
          "\"bsp_seconds\":%.4f,\"async_seconds\":%.4f,"
          "\"time_ratio\":%.4f,"
          "\"bsp_iterations\":%u,\"async_rounds\":%u,"
          "\"matches_bsp\":%s}\n",
          gname.c_str(), query.c_str(),
          static_cast<unsigned long long>(bsp.bytes),
          static_cast<unsigned long long>(asy.bytes), ratio, bsp.seconds,
          asy.seconds, time_ratio, bsp.iterations, asy.iterations,
          matches(bsp, asy) ? "true" : "false");
      std::fflush(stdout);
    }
  }
  return 0;
}
